"""Exact arithmetic in Z[zeta_M] and character-sum vanishing tests.

Character values are M-th roots of unity (M the group exponent), so every
character sum lives in Z[zeta_M] = Z[x]/(Phi_M). Vanishing is decided
exactly: build the mask polynomial sum_x A(x) x^{<x,g>} and test
divisibility by the M-th cyclotomic polynomial Phi_M. No floating point
anywhere; floats appear only in tests as a cross-check.

Two paths compute such sums. The zero-mask kernel (CharTable) decides every
direction class of a set at once and serves the searches and sweeps.
char_sum_coeffs, the one exact evaluator of the verifiers and of char_sum,
reads the exponents <x, g> from per-group exponent rows built from
coordinates (exponent_rows), never from a CharTable; the two share only the
reduction modulo Phi_M.
"""

from __future__ import annotations

import itertools
import math
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import GroupMismatch, InvalidArgument, NotTwoDistinctPrimes
from .groups import (
    MAX_BATCH_TABLE_BYTES,
    Element,
    Group,
    Multiset,
    check_table_order,
    index_tables,
    is_prime,
)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise InvalidArgument("phi is defined for n >= 1")
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial Phi_n, coefficients ascending, degree phi(n).

    x^n - 1 is the product of Phi_d over the divisors d of n, so Phi_n is
    x^n - 1 divided by Phi_d for each proper divisor d; every division is
    exact over Z.
    """
    if n < 1:
        raise InvalidArgument("cyclotomic_poly requires n >= 1")
    coeffs = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            deg, terms = _phi_terms(d)
            _divide_monic(coeffs, deg, terms)
            assert not any(coeffs[:deg])
            del coeffs[:deg]
    assert len(coeffs) == euler_phi(n) + 1
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _phi_terms(M: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(M), the nonzero (power, coefficient) terms of Phi_M below its leading one)."""
    coeffs = cyclotomic_poly(M)
    return len(coeffs) - 1, tuple((j, c) for j, c in enumerate(coeffs[:-1]) if c)


def _divide_monic(coeffs: list[int], d: int, terms: tuple[tuple[int, int], ...]) -> None:
    """Divide sum_t coeffs[t] x^t by x^d + sum_{(j, c) in terms} c x^j, in place.

    terms holds the nonzero lower terms (j < d) of the monic divisor, so the
    division is exact over Z. Afterwards coeffs[:d] is the remainder and
    coeffs[d:] the quotient: the step at power i only touches powers below i.
    """
    for i in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[i]
        if c:
            base = i - d
            for j, t in terms:
                coeffs[base + j] -= c * t


def _reduce(M: int, coeffs: list[int]) -> list[int]:
    """The remainder of sum_t coeffs[t] x^t modulo Phi_M, as phi(M) coefficients.

    coeffs is consumed.
    """
    d, terms = _phi_terms(M)
    _divide_monic(coeffs, d, terms)
    del coeffs[d:]
    return coeffs + [0] * (d - len(coeffs))


@dataclass(frozen=True)
class CyclotomicInt:
    """An element of Z[zeta_M], stored as the unique remainder mod Phi_M.

    coeffs always has length phi(M), zero-padded; value equality is
    coefficient equality.
    """

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        d = euler_phi(self.modulus)
        if len(self.coeffs) != d:
            raise InvalidArgument(f"need exactly {d} coefficients for modulus {self.modulus}")

    @classmethod
    def from_int(cls, M: int, c: int) -> "CyclotomicInt":
        return cls(M, (c,) + (0,) * (euler_phi(M) - 1))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def evaluate(self) -> complex:
        """Numeric value at zeta_M = exp(2 pi i / M); for diagnostics only."""
        import cmath

        z = cmath.exp(2j * cmath.pi / self.modulus)
        return sum(c * z**j for j, c in enumerate(self.coeffs))


# ---------------------------------------------------------------------------
# the zero-mask kernel: every direction class of a set decided by one sum
#
# zeta_M^k mod Phi_M has phi(M) integer coefficients. The kernel packs them
# for every direction class side by side in limbs sized for the group and
# decides all classes of a set with one big-int sum (class_word), which
# zero_mask expands to element bits (expand_word); a sweep decides a whole
# block of candidates with a few more, each in its own L-byte slot (decode).
# A word leaves the kernel only as such a memo key (key, keys,
# stem_batches, and zero_mask beside its mask), which expand and orbit read
# back. Nothing else reads these tables: the verifiers
# and multiset zero sets go through char_sum_coeffs and its exponent rows,
# which share only the reduction modulo Phi_M.


class CharTable:
    """Per-group zero-mask kernel (internal, cached per group)."""

    def __init__(self, G: Group):
        check_table_order(G)
        self.group = G
        self.M = G.exponent
        self.phi = euler_phi(self.M)
        self.reduced_powers = [tuple(_reduce(self.M, [0] * t + [1])) for t in range(self.M)]
        self.max_abs = max((abs(c) for row in self.reduced_powers for c in row), default=0)
        self._weights = tuple(self.M // n for n in G.moduli)
        self._batches: dict[int, list[tuple[int, int]]] = {}  # by depth (_batch_tables)
        self._slots: dict[int, tuple] = {}  # by slot count (decode)

    def _exponents(self, g_index: int) -> list[int]:
        """<s, g> for every s, indexed by element index."""
        G, M = self.group, self.M
        # <s, g> = sum_i (M / n_i) g_i s_i, and s runs over the product of the
        # coordinate ranges in index order
        terms = (
            [wi * gi * j for j in range(n)]
            for wi, gi, n in zip(self._weights, G.coords_of(g_index), G.moduli)
        )
        return [t % M for t in map(sum, itertools.product(*terms))]

    @cached_property
    def _kernel(self) -> tuple:
        """The word-parallel tables of class_word and expand, built on first use.

        Every reduced power zeta^t has phi coefficients, each of absolute
        value at most max_abs. A limb of w bits holds one coefficient plus
        bias (limb_layout); cols[s] holds, side by side, the phi
        limbs of zeta^<s, r> for the representative r of every direction
        class, class c in limbs c*phi .. c*phi + phi - 1. Returns (cols,
        unit, low, folds, class_bits, gens_at): unit has bias in every limb,
        low has 2^(w-1) - 1 in every limb, folds are the shifts that OR a
        class's limbs into its lowest one, class_bits has the top bit of
        that limb of every class, and gens_at maps that bit to the class's
        generator mask.
        """
        phi = self.phi
        classes = index_tables(self.group).direction_classes
        bias, w = self.limb_layout()
        blocks = [
            sum((c + bias) << (w * i) for i, c in enumerate(row)) for row in self.reduced_powers
        ]
        stride = phi * w
        exponents = [self._exponents(r) for r, _ in classes]
        cols = [
            sum(blocks[e[s]] << (stride * c) for c, e in enumerate(exponents))
            for s in range(self.group.order)
        ]
        repunit = sum(1 << (w * j) for j in range(phi * len(classes)))
        folds, span = [], 1
        while 2 * span <= phi:
            folds.append(w * span)
            span *= 2
        if span < phi:
            folds.append(w * (phi - span))
        class_bits = sum(1 << (stride * c + w - 1) for c in range(len(classes)))
        gens_at = {stride * c + w - 1: gens for c, (_, gens) in enumerate(classes)}
        low = (repunit << (w - 1)) - repunit
        return cols, bias * repunit, low, folds, class_bits, gens_at

    def limb_layout(self) -> tuple[int, int]:
        """(bias, limb width w) of the zero-mask kernel.

        bias = max_abs makes every biased coefficient c + bias lie in
        [0, 2 * max_abs]. A set has mass m <= |G|, so a limb of its sum lies
        in [0, 2 * |G| * max_abs] and stays below 2^(w-1): the top bit of
        every limb is a guard bit that no sum reaches.
        """
        return self.max_abs, (2 * self.group.order * self.max_abs).bit_length() + 1

    @property
    def cols(self) -> list[int]:
        """cols[s]: the limbs of element s for every direction class; the
        kernel sum of a set is the sum of its elements' cols."""
        return self._kernel[0]

    @cached_property
    def col_index(self) -> dict[int, int]:
        """The element index of each kernel column. Columns are distinct:
        characters separate points, so if <s - s', r> = 0 at the
        representative r of every direction class then s = s'."""
        return {col: s for s, col in enumerate(self.cols)}

    def class_word(self, total: int, m: int) -> int:
        """The class word of a kernel sum: total is the sum of the cols of a
        set of m elements, and the word has one bit per direction class, the
        top bit of the class's lowest limb, set exactly when the character
        sum of the set vanishes on that class.

        One sum of cols gives, in each limb, m * bias plus one coefficient
        of one class's character sum, with no carry between limbs since
        every limb stays below 2^(w-1) (limb_layout). XOR with m * unit
        zeroes exactly the limbs whose coefficient is 0 and leaves every
        limb below 2^(w-1); adding 2^(w-1) - 1 to each limb then sets its
        top bit exactly when the limb is nonzero, again without a carry out
        of the limb. The folds, multiples of w, OR the top bits of each
        class's phi limbs into the top bit of its lowest limb (the bits
        below the top bits never reach a top bit), which stays clear exactly
        when the sum vanishes.
        """
        _, unit, low, folds, class_bits, _ = self._kernel
        nonzero = (total ^ m * unit) + low
        for shift in folds:
            nonzero |= nonzero >> shift
        return class_bits ^ (class_bits & nonzero)

    def key(self, total: int, m: int) -> bytes:
        """The memo key of a kernel sum of m elements: its class word
        (class_word) as key_bytes little-endian bytes."""
        return self.class_word(total, m).to_bytes(self.key_bytes, "little")

    @cached_property
    def word_bits(self) -> list[int]:
        """The bit of each direction class in a class word, by class id."""
        return [1 << top for top in self._kernel[5]]

    @cached_property
    def key_bytes(self) -> int:
        """L, the bytes of a memo key (key) and of one slot of a packed
        batch: ceil(classes * phi * w / 8), so a slot holds every limb of a
        kernel sum, guard bits included."""
        classes = len(index_tables(self.group).direction_classes)
        return -(-classes * self.phi * self.limb_layout()[1] // 8)

    def batch_depth(self, k: int) -> int:
        """How many trailing indices a stem walk of size k batches: 2, else
        as many as k - 1 allows, less while the tables of the depth would
        hold more than MAX_BATCH_TABLE_BYTES (4 L C(|G|, depth + 1)). Depth 0
        walks one candidate per stem and always fits."""
        depth = min(2, k - 1)
        n = self.group.order
        while depth and 4 * self.key_bytes * math.comb(n, depth + 1) > MAX_BATCH_TABLE_BYTES:
            depth -= 1
        return depth

    def sum_base(self, k: int) -> int:
        """cols[0] + (|G| - k) * unit: what decode adds the cols of a
        0-containing k-set's nonzero part to."""
        cols, unit = self._kernel[:2]
        return cols[0] + (self.group.order - k) * unit

    def decode(self, packed: int, count: int) -> tuple[bytes, ...]:
        """The memo keys of count packed kernel sums: slot j (bits 8 L j and
        up) holds (|G| - m) * unit plus the cols of a set of m elements, as
        sum_base(k) plus the cols of a nonzero part does for a 0-containing
        k-set, and keys[j] is the set's class word (class_word) in L
        little-endian bytes.

        Each slot is read as class_word reads the sum of |G| elements: its
        limbs lie in [(|G| - m) * bias, 2 |G| * bias], below 2^(w-1), so no
        slot carries into the next, and the folds, together a shift of
        (phi - 1) w, move a bit of the next slot at most to bit
        8 L - (phi - 1) w >= classes * phi * w - (phi - 1) w of this one,
        above every class bit. The slot-replicated constants and the struct
        unpack that splits the keys are built once per count and kept.
        """
        got = self._slots.get(count)
        if got is None:
            L = self.key_bytes
            _, unit, low, folds, class_bits, _ = self._kernel
            got = self._slots[count] = (
                *(
                    int.from_bytes(value.to_bytes(L, "little") * count, "little")
                    for value in (self.group.order * unit, low, class_bits)
                ),
                folds,
                count * L,
                struct.Struct(f"{L}s" * count).unpack,
            )
        flip, low, class_bits, folds, size, split = got
        nonzero = (packed ^ flip) + low
        for shift in folds:
            nonzero |= nonzero >> shift
        return split((class_bits ^ (class_bits & nonzero)).to_bytes(size, "little"))

    def keys(self, sums: list[int]) -> tuple[bytes, ...]:
        """The memo keys of a block of sums, each sum_base(k) plus the cols of
        a nonzero part, packed into L-byte slots and keyed by one decode."""
        slots = map(int.to_bytes, sums, itertools.repeat(self.key_bytes), itertools.repeat("little"))
        return self.decode(int.from_bytes(b"".join(slots), "little"), len(sums))

    def _batch_tables(self, depth: int) -> list[tuple[int, int]]:
        """Per start index a, the batch of every depth-combination of
        range(a + 1, |G|) in itertools.combinations order, combination j in
        slot j (bits 8 L j and up): (count, the packed sums of the cols of
        each combination). Built on first use and kept for the group.

        The combinations above a are a + 1 on top of each combination of one
        index fewer above a + 1, then the combinations above a + 1; so each
        depth is built from the one below with one replication, two adds and
        one shift per start index.
        """
        got = self._batches.get(depth)
        if got is not None:
            return got
        n, L = self.group.order, self.key_bytes
        cols = self.cols

        def rep(value: int, count: int) -> int:
            return int.from_bytes(value.to_bytes(L, "little") * count, "little")

        counts, sums = [1] * n, [0] * n  # depth 0: the empty combination
        for _ in range(depth):
            below_counts, below_sums = counts, sums
            counts, sums = [0] * n, [0] * n
            for a in range(n - 2, -1, -1):
                led = below_counts[a + 1]  # the combinations led by a + 1
                counts[a] = led + counts[a + 1]
                sums[a] = rep(cols[a + 1], led) + below_sums[a + 1] + (sums[a + 1] << 8 * L * led)
        got = self._batches[depth] = list(zip(counts[: n - depth], sums))
        return got

    def stem_batches(
        self, k: int, stems: Iterable[tuple[int, ...]]
    ) -> Iterator[tuple[tuple[int, ...], tuple[bytes, ...]]]:
        """(stem, keys) for each stem of a size-k walk: a stem is the first
        k - 1 - depth indices of a nonzero part (batch_depth), its batch every
        depth-combination of the indices above its largest (of range(1, |G|)
        for the empty stem), in itertools.combinations order, and keys[j] the
        class word of stem + the j-th combination, as class_word gives it for
        the whole k-set (with 0), in L little-endian bytes.

        The stem's sum, sum_base(k) plus its cols, is copied into every slot
        of its packed table (_batch_tables) with one replication and added,
        and one decode gives the whole batch's keys.
        """
        tables = self._batch_tables(self.batch_depth(k))
        cols, base, L, decode = self.cols, self.sum_base(k), self.key_bytes, self.decode
        for stem in stems:
            count, packed = tables[stem[-1] if stem else 0]
            total = sum(map(cols.__getitem__, stem), base).to_bytes(L, "little")
            yield stem, decode(int.from_bytes(total * count, "little") + packed, count)

    def expand(self, key: bytes) -> int:
        """The element bits of the class word of a memo key (expand_word)."""
        return self.expand_word(int.from_bytes(key, "little"))

    def expand_word(self, word: int) -> int:
        """The element bits of a class word: the generators of every class
        whose bit is set."""
        gens_at = self._kernel[5]
        mask = 0
        while word:
            top = word.bit_length() - 1
            mask |= gens_at[top]
            word ^= 1 << top
        return mask

    def orbit(self, key: bytes) -> Iterator[bytes]:
        """The memo keys of the other images of key's word under Aut(G), each
        once, breadth first under IndexTables.class_generators (read at every
        call, not kept), one word at a time, never closing the group."""
        word_bits, L = self.word_bits, self.key_bytes
        perms = index_tables(self.group).class_generators
        # per class generator, the word bit of the image of each class
        gens = [(perm, list(map(word_bits.__getitem__, perm))) for perm in perms]
        word = int.from_bytes(key, "little")
        seen = {word}
        todo = [[c for c, bit in enumerate(word_bits) if word & bit]]
        for classes in todo:
            for perm, bits in gens:
                image = sum(map(bits.__getitem__, classes))
                if image not in seen:
                    seen.add(image)
                    todo.append(list(map(perm.__getitem__, classes)))
                    yield image.to_bytes(L, "little")

    def zero_mask(self, cand: Sequence[int]) -> tuple[bytes, int]:
        """(memo key, zero mask) of a set of element indices, from one kernel
        sum: the key of its class word (key) and the bitmask over element
        indices of its zero set.

        Bit g of the mask is set for every nonzero g at which the character
        sum of the set vanishes. The generators of <g> are Galois conjugates
        of g (the sum at k*g is the image of the sum at g under
        zeta -> zeta^k), so the sum vanishes at all of them or at none: one
        evaluation per direction class decides the whole class. All classes
        are evaluated at once, side by side in limbs, exactly for any set of
        element indices: the class word of the set's kernel sum, expanded to
        element bits.
        """
        word = self.class_word(sum(map(self.cols.__getitem__, cand)), len(cand))
        return word.to_bytes(self.key_bytes, "little"), self.expand_word(word)


@lru_cache(maxsize=None)
def char_table(G: Group) -> CharTable:
    return CharTable(G)


def set_zero(S: Multiset) -> tuple[bytes, int]:
    """(memo key, zero mask) of the set S (not validated): one
    CharTable.zero_mask of S's element indices (Multiset.indices), computed
    once and kept on S for every per-set operation on it. The key is the
    class word in the form the spectral memo reads (spectra._memo)."""
    got = S._zero
    if got is None:
        got = char_table(S.group).zero_mask(S.indices)
        object.__setattr__(S, "_zero", got)
    return got


def set_zero_mask(S: Multiset) -> int:
    """The zero mask of the set S (not validated), and only the mask (set_zero)."""
    return set_zero(S)[1]


# ---------------------------------------------------------------------------
# public operations


class _ExponentRows(dict):
    """The exponent rows of one group, by element g, each built on first use:
    <x, g> mod M for every element index x, as bytes, or as an array of
    unsigned ints when M > 255. A row is built from the coordinates by the
    pairing <x, g> = sum_i (M / n_i) x_i g_i, never from a CharTable."""

    def __init__(self, G: Group):
        super().__init__()
        check_table_order(G)
        self.group = G

    def __missing__(self, g: Element) -> Sequence[int]:
        G = self.group
        M = G.exponent
        # x runs over the product of the coordinate ranges in index order
        terms = ([M // n * gi * j for j in range(n)] for gi, n in zip(g, G.moduli))
        exps = [t % M for t in map(sum, itertools.product(*terms))]
        row = self[g] = bytes(exps) if M <= 255 else array("L", exps)
        return row


@lru_cache(maxsize=None)
def exponent_rows(G: Group) -> _ExponentRows:
    """G's exponent rows; a group over MAX_TABLE_ORDER raises Overflow."""
    return _ExponentRows(G)


def char_sum_coeffs(G: Group, A: Multiset, gs: Iterable[Element]) -> Iterator[list[int]]:
    """For each g of gs, the phi(M) coefficients of sum_x A(x) zeta_M^{<x, g>}
    reduced mod Phi_M, exactly; the sum vanishes when all are 0.

    The one exact character sum besides the zero-mask kernel, and it reads
    no CharTable: the exponents <x, g> of A's support are read from g's
    exponent row (exponent_rows) at A's element indices (Multiset.indices),
    counted (list.count for sets; for multisets, multiplicities in the same
    sorted order added), and the count polynomial is reduced mod Phi_M.
    Inputs are not validated.
    """
    M = G.exponent
    rows = exponent_rows(G)
    mults = None if A.is_set else list(map(A.mult.__getitem__, A.support))
    for g in gs:
        exps = list(map(rows[g].__getitem__, A.indices))
        if mults is None:
            counts = list(map(exps.count, range(M)))
        else:
            counts = [0] * M
            for e, m in zip(exps, mults):
                counts[e] += m
        yield _reduce(M, counts)


def char_sum(G: Group, A: Multiset, g: Element) -> CyclotomicInt:
    """sum_x A(x) zeta_M^{<x, g>}, reduced mod Phi_M, exactly. Read from g's
    exponent row, so a group of order above MAX_TABLE_ORDER raises Overflow."""
    if A.group != G:
        raise GroupMismatch("multiset lives on a different group")
    G.check(g)
    (coeffs,) = char_sum_coeffs(G, A, (g,))
    return CyclotomicInt(G.exponent, tuple(coeffs))


@dataclass(frozen=True)
class ZeroSet:
    """The nonzero g with vanishing character sum; a union of directions."""

    group: Group
    elements: frozenset[Element]

    def __contains__(self, g: Element) -> bool:
        return g in self.elements

    def __iter__(self) -> Iterator[Element]:
        return iter(sorted(self.elements))

    def __len__(self) -> int:
        return len(self.elements)


def multiset_zero_mask(A: Multiset) -> int:
    """The zero mask of A: a bit per nonzero element index with vanishing
    character sum. A set reads set_zero_mask, a multiset takes one
    char_sum_coeffs evaluation per direction class (the sums at the
    generators of <g> are Galois conjugates, so they vanish together).
    """
    if A.is_set:
        return set_zero_mask(A)
    G = A.group
    classes = index_tables(G).direction_classes
    sums = char_sum_coeffs(G, A, [G.elements[r] for r, _ in classes])
    return sum(gens for (_, gens), coeffs in zip(classes, sums) if not any(coeffs))


def zero_set(G: Group, A: Multiset) -> ZeroSet:
    """All nonzero g with char_sum(A, g) = 0, read from multiset_zero_mask."""
    if A.group != G:
        raise GroupMismatch("multiset lives on a different group")
    mask = multiset_zero_mask(A)
    return ZeroSet(G, frozenset(G.coords_of(g) for g in range(1, G.order) if mask >> g & 1))


@dataclass(frozen=True)
class CubeDecomposition:
    """A(i, j) = row_coeffs[j] + col_coeffs[i] on Z_p x Z_q.

    row_coeffs[j] weights the full first-factor coset at second coordinate
    j; col_coeffs[i] weights the full second-factor coset at first
    coordinate i. Canonical form has min(row_coeffs) = 0.
    """

    p: int
    q: int
    row_coeffs: tuple[int, ...]
    col_coeffs: tuple[int, ...]

    def reconstruct(self, group: Group) -> Multiset:
        counts: dict[Element, int] = {}
        for i in range(self.p):
            for j in range(self.q):
                m = self.row_coeffs[j] + self.col_coeffs[i]
                if m:
                    counts[(i, j)] = m
        return Multiset(group, counts)


def cube_decompose(A: Multiset) -> Optional[CubeDecomposition]:
    """Write a multiset on Z_p x Z_q as full-row plus full-column weights.

    Returns the canonical nonnegative solution (min row weight 0) when one
    exists, None otherwise. Existence is equivalent to the vanishing of the
    order-pq character sum.
    """
    G = A.group
    if len(G.moduli) != 2:
        raise NotTwoDistinctPrimes(f"need two factors, got {G.moduli!r}")
    p, q = G.moduli
    if p == q or not (is_prime(p) and is_prime(q)):
        raise NotTwoDistinctPrimes(f"moduli {G.moduli!r} are not two distinct primes")

    def a(i: int, j: int) -> int:
        return A((i, j))

    t = min(a(0, j) for j in range(q))
    u = tuple(a(0, j) - t for j in range(q))
    v = tuple(a(i, 0) - a(0, 0) + t for i in range(p))
    if any(c < 0 for c in v):
        return None
    for i in range(p):
        for j in range(q):
            if a(i, j) != u[j] + v[i]:
                return None
    return CubeDecomposition(p=p, q=q, row_coeffs=u, col_coeffs=v)
