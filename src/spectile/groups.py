"""Arithmetic in finite abelian groups given as products of cyclic factors.

A group is a tuple of moduli (n_1, ..., n_k); elements are plain coordinate
tuples. The bilinear pairing <x, y> = sum_i (M/n_i) x_i y_i  (mod M), where M
is the group exponent, identifies the group with its dual, so spectra and
zero sets are reported as subsets of the group itself.

Elements double as mixed-radix indices 0..order-1 (row major, leftmost
coordinate most significant); index order equals lexicographic coordinate
order, which fixes every "canonical"/"least" choice in this package.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    GroupMismatch,
    InvalidArgument,
    InvalidModulus,
    NotADivisor,
    Overflow,
    integers,
)

Element = tuple[int, ...]

_INT64 = 2**63 - 1


@dataclass(frozen=True)
class Group:
    """Direct product Z_{n_1} x ... x Z_{n_k}, immutable and hashable.

    Construct through :func:`make_group` for public use; the constructor
    itself also admits modulus 1 so projection codomains (e.g. Z_1 for the
    zero direction) stay representable. Moduli that are not integers
    (operator.index refuses floats and strings) raise InvalidModulus.

    Groups with equal moduli are equal, as the dataclass defines it, but
    __eq__ tests identity first and __hash__ hashes the moduli tuple itself:
    every per-set check compares its sets' groups, and every per-group cache
    is keyed by the group. The hash is not cached, since it would land in
    __dict__, which a pickled group starts without. Up to MAX_TABLE_ORDER a
    group also keeps, once built, the index of every element
    (_element_index), through which Multiset validates its inputs.
    """

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", integers(self.moduli, "moduli", InvalidModulus))
        if not self.moduli or any(n < 1 for n in self.moduli):
            raise InvalidModulus(f"moduli must be positive, got {self.moduli!r}")
        order = 1
        for n in self.moduli:
            order *= n
            if order > _INT64:
                raise Overflow("group order exceeds 64-bit range")

    def __reduce__(self):
        # pickled as its moduli: the cached properties are rebuilt on use
        return Group, (self.moduli,)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @cached_property
    def exponent(self) -> int:
        return reduce(math.lcm, self.moduli, 1)

    @cached_property
    def identity(self) -> Element:
        return (0,) * len(self.moduli)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All elements in index (= lexicographic) order."""
        return tuple(itertools.product(*(range(n) for n in self.moduli)))

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    @cached_property
    def _element_index(self) -> Optional[dict[Element, int]]:
        """The index of every element, by element, built on first use for
        orders up to MAX_TABLE_ORDER; None above, where Multiset validates
        coordinate by coordinate (Group.contains)."""
        if self.order > MAX_TABLE_ORDER:
            return None
        return dict(zip(self.elements, range(self.order)))

    def _elements_at(self, indices: Iterable[int]) -> list[Element]:
        """The element of each index: read from elements up to
        MAX_TABLE_ORDER, computed (coords_of) above, where elements would
        hold the whole group."""
        at = self.elements.__getitem__ if self.order <= MAX_TABLE_ORDER else self.coords_of
        return list(map(at, indices))

    def contains(self, x: Element) -> bool:
        """True iff x is a tuple of plain ints, one in range(n_i) per factor.

        A bool coordinate is refused: bool is an int subclass (and JSON
        true/false load as bool), so (True, 0) would pass for (1, 0). check,
        the Multiset constructor and the set-document parser all refuse
        through this one test.
        """
        return (
            isinstance(x, tuple)
            and len(x) == len(self.moduli)
            and all(type(c) is int and 0 <= c < n for c, n in zip(x, self.moduli))
        )

    def check(self, x: Element) -> None:
        if not self.contains(x):
            raise GroupMismatch(f"{x!r} is not an element of {self!r}")

    @cached_property
    def _radix(self) -> tuple[int, ...]:
        """The index weight of each coordinate: the product of the later moduli."""
        return tuple(math.prod(self.moduli[i + 1 :]) for i in range(len(self.moduli)))

    def index_of(self, x: Element) -> int:
        return sum(map(operator.mul, x, self._radix))

    def coords_of(self, idx: int) -> Element:
        coords = []
        for n in reversed(self.moduli):
            idx, c = divmod(idx, n)
            coords.append(c)
        return tuple(reversed(coords))

    def add(self, x: Element, y: Element) -> Element:
        return tuple(map(operator.mod, map(operator.add, x, y), self.moduli))

    def sub(self, x: Element, y: Element) -> Element:
        return tuple(map(operator.mod, map(operator.sub, x, y), self.moduli))

    def neg(self, x: Element) -> Element:
        return tuple(map(operator.mod, map(operator.neg, x), self.moduli))

    def add_each(self, xs: Sequence[Element], ys: Sequence[Element]) -> Iterator[Element]:
        """x + y for each aligned pair of xs and ys."""
        # one coordinate column at a time, so every loop runs in C
        return zip(*[
            map(operator.mod, map(operator.add, xc, yc), itertools.repeat(n))
            for xc, yc, n in zip(zip(*xs), zip(*ys), self.moduli)
        ])

    def scale(self, k: int, x: Element) -> Element:
        return tuple((k * a) % n for a, n in zip(x, self.moduli))

    def __repr__(self) -> str:
        return f"Group{self.moduli!r}"


def make_group(moduli: Iterable[int]) -> Group:
    """Build a group from cyclic factor orders, each at least 2.

    Raises InvalidModulus for factors that are not integers (operator.index
    refuses floats and strings) or are below 2, and Overflow when the order
    would not fit in 64 bits.
    """
    G = Group(moduli)
    for n in G.moduli:
        if n < 2:
            raise InvalidModulus(f"modulus {n} < 2")
    return G


class Multiset:
    """Finite map from group elements to positive multiplicities.

    Sets are the 0/1 special case. Instances are immutable once built and
    hash/compare by (group, contents).
    """

    # indices: the sorted element indices of the support, the primary form of
    # a set: every constructor fills it, and the per-set checks, support,
    # is_set, equality and hashing read it. _mult: the element ->
    # multiplicity dict that mult returns; the constructor and from_elements
    # with repeats keep the counts they were given, and for any other set it
    # is None until mult is first read. _zero: the memo key and the zero mask
    # of one kernel sum (cyclotomic.set_zero); _classes:
    # spectra.is_spectral_pair. _hash, _zero and _classes are pure functions
    # of the object, so equality, hashing, copy and pickle ignore them. _fill
    # writes every slot of a new object
    __slots__ = ("group", "indices", "mass", "_mult", "_hash", "_zero", "_classes")

    def __init__(self, group: Group, mult: Mapping[Element, int]):
        items = dict(mult.items())
        values = items.values()
        idx = None
        if {*map(type, values)} <= _INT and min(values, default=1) >= 1:
            idx = _fast_indices(group, items)
        if idx is None:
            # the per-entry loop: it names the first bad entry, and it is the
            # whole check above MAX_TABLE_ORDER
            contains = group.contains
            for x, m in items.items():
                if type(m) is not int or m < 1:
                    raise InvalidArgument(f"multiplicity of {x!r} must be a positive int, got {m!r}")
                if not contains(x):
                    raise GroupMismatch(f"{x!r} is not an element of {group!r}")
            idx = list(map(group.index_of, items))
        _fill(self, group, tuple(sorted(idx)), sum(values), items)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Multiset is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return type(self), (self.group, self.mult)

    @classmethod
    def from_elements(cls, group: Group, elems: Iterable[Element]) -> "Multiset":
        """Count occurrences; repeated inputs become multiplicities."""
        xs, idx = _element_indices(group, elems)
        indices = tuple(sorted({*idx}))
        if len(indices) == len(idx):
            return cls._of(group, indices, len(idx))
        counts: dict[Element, int] = {}
        for x in xs:
            counts[x] = counts.get(x, 0) + 1
        return cls._of(group, indices, len(idx), counts)

    @classmethod
    def set_of(cls, group: Group, elems: Iterable[Element]) -> "Multiset":
        """A 0/1 multiset; duplicated inputs collapse to multiplicity 1."""
        indices = tuple(sorted({*_element_indices(group, elems)[1]}))
        return cls._of(group, indices, len(indices))

    @classmethod
    def of_indices(cls, group: Group, idx: Iterable[int]) -> "Multiset":
        """The 0/1 multiset of the elements with these indices; duplicated
        indices collapse. Only the range 0 <= i < |G| of each index is
        checked (GroupMismatch names the least index, if negative, else the
        greatest), and the given indices, deduplicated and sorted, are the
        set's indices: no element is built until mult or support is read.
        For sets built inside the package from element indices; public
        inputs go through the constructor.
        """
        indices = tuple(sorted({*idx}))
        # sorted, so only the ends can be out of range
        if indices and (indices[0] < 0 or indices[-1] >= group.order):
            bad = indices[0] if indices[0] < 0 else indices[-1]
            raise GroupMismatch(f"{bad!r} is not an element index of {group!r}")
        out = cls.__new__(cls)
        _fill(out, group, indices, len(indices))
        return out

    @classmethod
    def _of(cls, group: Group, indices: tuple[int, ...], mass: int, mult=None) -> "Multiset":
        """The multiset with these sorted element indices and this mass,
        already checked, without the constructor's checks; mult, the
        element counts, is required unless the mass counts the indices."""
        out = cls.__new__(cls)
        _fill(out, group, indices, mass, mult)
        return out

    @property
    def mult(self) -> dict[Element, int]:
        """The multiplicity of every element of the support; for a set
        without one, built from indices on the first read and kept."""
        got = self._mult
        if got is None:
            got = dict.fromkeys(self.group._elements_at(self.indices), 1)
            object.__setattr__(self, "_mult", got)
        return got

    @property
    def support(self) -> tuple[Element, ...]:
        # index order is lexicographic order, so this is sorted
        return tuple(self.group._elements_at(self.indices))

    @property
    def is_set(self) -> bool:
        # every multiplicity is at least 1, so the mass counts the support
        # exactly when each is 1
        return self.mass == len(self.indices)

    def __call__(self, x: Element) -> int:
        return self.mult.get(x, 0)

    def items(self):
        return self.mult.items()

    def translate(self, g: Element) -> "Multiset":
        self.group.check(g)
        return Multiset(self.group, {self.group.add(x, g): m for x, m in self.mult.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multiset)
            and self.group == other.group
            and self.indices == other.indices
            and self.mass == other.mass
            and (self.mass == len(self.indices) or self.mult == other.mult)
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.group.moduli, self.indices, self.mass))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_set:
            return f"Multiset.set_of({self.group!r}, {list(self.support)!r})"
        return f"Multiset({self.group!r}, {dict(sorted(self.mult.items()))!r})"


# the setter of each slot, bound once: a Multiset is immutable, so _fill
# writes its slots through these rather than through __setattr__
_set_group, _set_indices, _set_mass, _set_mult, _set_hash, _set_zero, _set_classes = (
    Multiset.__dict__[name].__set__ for name in Multiset.__slots__
)


def _fill(A: Multiset, group: Group, indices: tuple[int, ...], mass: int, mult=None) -> None:
    """Fill the slots of a new Multiset; the per-object caches start empty."""
    _set_group(A, group)
    _set_indices(A, indices)
    _set_mass(A, mass)
    _set_mult(A, mult)
    _set_hash(A, None)
    _set_zero(A, None)
    _set_classes(A, None)


_INT, _TUPLE = {int}, {tuple}


def _fast_indices(group: Group, xs: Iterable[Element]) -> Optional[list[int]]:
    """The element index of each of xs, by one type pass over all their
    coordinates (only exact ints pass, so a bool or a float, equal and
    hash-equal to an int, is refused) and one lookup per element in the
    group's element map. None when the map is not built (above
    MAX_TABLE_ORDER) or any x fails; the per-element loop then decides, and
    names the first bad element."""
    index = group._element_index
    if index is None:
        return None
    try:
        if {*map(type, itertools.chain.from_iterable(xs))} <= _INT:
            return list(map(index.__getitem__, xs))
    except (TypeError, KeyError):  # a non-iterable, or not an element
        pass
    return None


def _element_indices(group: Group, elems: Iterable[Element]) -> tuple[list[Element], list[int]]:
    """(the elements of elems as tuples, the element index of each): the
    validation of set_of and from_elements. elems is read once. When every
    x is a tuple, _fast_indices checks them all; otherwise, or when it
    fails, the per-element loop converts and checks each, so a bad element
    raises what that loop alone raises, at the same element."""
    elems = list(elems)
    if {*map(type, elems)} <= _TUPLE:
        idx = _fast_indices(group, elems)
        if idx is not None:
            return elems, idx
    # each element checked before from_elements counts it: (0, False) ==
    # (0, 0), so a dict would merge a bool coordinate into a valid element
    contains, xs = group.contains, []
    for x in elems:
        x = tuple(x)
        if not contains(x):
            raise GroupMismatch(f"{x!r} is not an element of {group!r}")
        xs.append(x)
    return xs, list(map(group.index_of, xs))


@dataclass(frozen=True, order=True)
class Direction:
    """Canonical representative of a cyclic-generator class [v].

    rep is the lexicographically least generator of <v>; order = |<v>|.
    """

    rep: Element
    order: int


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as its sorted element tuple; validated on construction."""

    group: Group
    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(tuple(x) for x in self.elements))
        object.__setattr__(self, "elements", elems)
        member = set(elems)
        G = self.group
        if G.identity not in member:
            raise InvalidArgument("subgroup must contain the identity")
        for x in elems:
            G.check(x)
            if G.neg(x) not in member:
                raise InvalidArgument(f"not closed under negation at {x!r}")
        for x in elems:
            # x + H, one coordinate column at a time
            if not member.issuperset(G.add_each([x] * len(elems), elems)):
                y = next(y for y in elems if G.add(x, y) not in member)
                raise InvalidArgument(f"not closed under addition at {x!r}+{y!r}")
        if G.order % len(elems):
            raise InvalidArgument("subgroup order must divide the group order")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Element) -> bool:
        return x in self._members

    @cached_property
    def _members(self) -> frozenset[Element]:
        return frozenset(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def as_set(self) -> Multiset:
        """The subgroup as a set, built on the first call (Multiset is immutable)."""
        return self._set

    @cached_property
    def _set(self) -> Multiset:
        return Multiset.set_of(self.group, self.elements)


# ---------------------------------------------------------------------------
# element-level operations


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def dot(G: Group, x: Element, y: Element) -> int:
    """The duality pairing sum_i (M/n_i) x_i y_i mod M."""
    G.check(x)
    G.check(y)
    M = G.exponent
    total = 0
    for xi, yi, n in zip(x, y, G.moduli):
        total += (M // n) * xi * yi
    return total % M


def element_order(G: Group, x: Element) -> int:
    """Least n >= 1 with n*x = 0: lcm_i n_i / gcd(n_i, x_i)."""
    G.check(x)
    return reduce(math.lcm, (n // math.gcd(n, c) for c, n in zip(x, G.moduli)), 1)


def cyclic_subgroup(G: Group, x: Element) -> tuple[Element, ...]:
    """Elements of <x> in the order 0, x, 2x, ..."""
    G.check(x)
    out = [G.identity]
    cur = x
    while cur != G.identity:
        out.append(cur)
        cur = G.add(cur, x)
    return tuple(out)


def direction_rep(G: Group, x: Element) -> Direction:
    """Canonical direction of x: the least generator of <x>."""
    elems = cyclic_subgroup(G, x)
    d = len(elems)
    gens = [elems[k] for k in range(1, d) if math.gcd(k, d) == 1]
    rep = min(gens) if gens else G.identity
    return Direction(rep=rep, order=d)


def annihilator(G: Group, S: Multiset) -> Subgroup:
    """All g with <s, g> = 0 mod M for every s in the support of S."""
    if S.group != G:
        raise GroupMismatch("multiset lives on a different group")
    M = G.exponent
    support = S.support
    members = [g for g in G.elements if all(dot(G, s, g) % M == 0 for s in support)]
    return Subgroup(G, tuple(members))


@lru_cache(maxsize=None)
def _all_subgroups(G: Group) -> tuple[Subgroup, ...]:
    """Every subgroup, via closure of cyclic subgroups under pairwise join.

    A subgroup is keyed by its bitmask over element indices and carries the
    list of its element indices (index_tables). The join of H with <g> is
    built one coset at a time: H + kg for k = 1, ..., d - 1, where dg is the
    first multiple in H, so it costs |H + <g>| sums, not |H| |<g>|. A later
    cyclic subgroup with a generator in a coset H + kg, k prime to d, has
    the same join with H and is skipped. Each distinct mask becomes one
    Subgroup, which checks its closure again.
    """
    add = index_tables(G).add_rows
    bit = [1 << i for i in range(G.order)]
    cyclic: dict[int, list[int]] = {}  # mask -> 0, g, 2g, ...
    for g in range(G.order):
        elems = [0]
        x = g
        while x:
            elems.append(x)
            x = add[x][g]
        cyclic.setdefault(sum(map(bit.__getitem__, elems)), elems)
    subs = dict(cyclic)
    queue = list(cyclic.items())
    while queue:
        h_mask, h = queue.pop()
        joined = h_mask  # the cosets that generate a join already formed
        for c in cyclic.values():
            if joined & bit[c[-1]]:
                continue
            j, cosets = list(h), []
            for x in c[1:]:
                if h_mask & bit[x]:
                    break
                coset = list(map(add[x].__getitem__, h))
                j += coset
                cosets.append(sum(map(bit.__getitem__, coset)))
            d = len(cosets) + 1
            joined |= sum(m for k, m in enumerate(cosets, 1) if math.gcd(k, d) == 1)
            j_mask = h_mask + sum(cosets)
            if j_mask not in subs:
                subs[j_mask] = j
                queue.append((j_mask, j))
    members = sorted(map(sorted, subs.values()), key=lambda idx: (len(idx), idx))
    return tuple(Subgroup(G, tuple(map(G.elements.__getitem__, idx))) for idx in members)


def subgroups_of_order(G: Group, m: int) -> tuple[Subgroup, ...]:
    """All subgroups of order m, canonically sorted, no duplicates.

    The subgroup lattice is built on index tables, so a group of order above
    MAX_TABLE_ORDER raises Overflow, before anything is built.
    """
    if m < 1 or G.order % m:
        raise NotADivisor(f"{m} does not divide |G| = {G.order}")
    return tuple(H for H in _all_subgroups(G) if H.order == m)


@lru_cache(maxsize=None)
def coset_id_table(H: Subgroup) -> tuple[int, ...]:
    """Coset id of every group element (by element index), ids 0..|G:H|-1.

    Ids are assigned in increasing order of the least element of each coset,
    so the table is canonical. The cosets are read from the addition rows of
    index_tables(G), so a group of order above MAX_TABLE_ORDER raises
    Overflow.
    """
    G = H.group
    add = index_tables(G).add_rows
    table = [-1] * G.order
    next_id = 0
    for i in range(G.order):
        if table[i] == -1:
            for j in map(add[i].__getitem__, H.as_set().indices):
                table[j] = next_id
            next_id += 1
    return tuple(table)


# The largest group order the per-group tables admit. IndexTables holds
# |G|^2 + |G| element indices (add_rows, |G|^2 references to |G| shared
# ints, and neg; add_bit_cols adds |G|^2 references to |G| shared
# single-bit ints, about |G|^2 / 8 bytes of them, on the first exact cover)
# and the character table M phi(M) coefficients (M <= |G|); the largest
# group the tests and the benchmark decide on is Z_3^2 x Z_7^2, of order 441.
MAX_TABLE_ORDER = 2048

# The most bytes the packed batch tables of one stem-walk depth may hold
# (CharTable.batch_depth): four L-byte ints per slot, one slot per
# combination of the depth's trailing indices, 4 L C(|G|, depth + 1) bytes
# in all. Z_2^2 x Z_3^2 batches pairs in 1.1 MB; a group whose pair tables
# pass the cap walks single-column batches, and past that one candidate at
# a time.
MAX_BATCH_TABLE_BYTES = 1 << 23


def check_table_order(G: Group) -> None:
    """Raise Overflow, before anything is built, if G is too large for tables."""
    if G.order > MAX_TABLE_ORDER:
        raise Overflow(
            f"|G| = {G.order} exceeds {MAX_TABLE_ORDER}, the largest order tables are built for"
        )


class IndexTables:
    """Element-index tables shared by every index-level decision on one group.

    The sweep and the public per-set operations decide on element indices
    through these tables; build one per group with :func:`index_tables`.
    They hold no subgroup state: each subgroup's annihilator is read from
    the zero-mask kernel (tiling.subgroup_annihilators).
    """

    def __init__(self, G: Group):
        check_table_order(G)
        self.group = G
        self.n = G.order
        # mixed-radix index arithmetic: index(x + y) sums ((x_i + y_i) mod n_i)
        # * stride_i over the coordinates, and y runs over the product of the
        # coordinate ranges in index order
        strides = G._radix
        # rows share one list's |G| index ints; sum makes a new int above 256
        index = list(range(self.n)).__getitem__
        self.add_rows = [
            list(map(index, map(sum, itertools.product(*(
                [(xi + j) % n * st for j in range(n)]
                for xi, n, st in zip(x, G.moduli, strides)
            )))))
            for x in G.elements
        ]
        # neg[x] = index(-x): the one table besides the addition rows, so a
        # difference x - y is read as add_rows[x][neg[y]]
        self.neg = [sum(-xi % n * st for xi, n, st in zip(x, G.moduli, strides)) for x in G.elements]
        self._forced: dict[int, int] = {}

    @cached_property
    def direction_classes(self) -> list[tuple[int, int]]:
        """(representative, generator mask) of every direction class.

        A class is the set of generators of one nonzero cyclic subgroup;
        its representative is its least element index (the index of
        direction_rep) and its mask has a bit per generator. Class ids are
        positions in this list, in increasing order of representative.
        """
        add = self.add_rows
        covered = 0
        out = []
        for g in range(1, self.n):
            if covered >> g & 1:
                continue
            multiples = [g]  # g, 2g, ... up to the last nonzero multiple
            while (m := add[multiples[-1]][g]) != 0:
                multiples.append(m)
            d = len(multiples) + 1
            gens = sum(1 << m for k, m in enumerate(multiples, 1) if math.gcd(k, d) == 1)
            covered |= gens
            out.append((g, gens))
        return out

    @cached_property
    def class_primes(self) -> list[int]:
        """class_primes[c] = p when direction class c has prime-power order
        p^a, else 0. The order is counted along the addition row of the
        representative, once per group."""
        add = self.add_rows
        out = []
        for rep, _ in self.direction_classes:
            d, x = 1, rep
            while x:
                x = add[x][rep]
                d += 1
            p = next(p for p in range(2, d + 1) if d % p == 0)
            while d % p == 0:
                d //= p
            out.append(p if d == 1 else 0)
        return out

    def forced_mask(self, t: int) -> int:
        """The union of the generator masks of the direction classes of
        prime-power order p^a with p not dividing t.

        If S + T = G with |T| = t, then at every g != 0 one of the character
        sums of S and T vanishes; at g of order p^a the sum over T is a sum
        of t p^a-th roots of unity, which vanishes only when p divides t
        (Lam and Leung, On vanishing sums of roots of unity, 2000). So the
        zero mask of a set with a complement of t elements covers this mask,
        and a set whose mask misses a bit of it is no tile. Kept per t: the
        tiling searches ask only for t = |G| / |S|, a divisor of |G|.
        """
        mask = self._forced.get(t)
        if mask is None:
            mask = self._forced[t] = sum(
                gens for (_, gens), p in zip(self.direction_classes, self.class_primes) if p and t % p
            )
        return mask

    @cached_property
    def direction_of(self) -> list[int]:
        """direction_of[i] = class id of element i's direction; -1 for 0."""
        out = [-1] * self.n
        for c, (_, gens) in enumerate(self.direction_classes):
            for g in range(1, self.n):
                if gens >> g & 1:
                    out[g] = c
        return out

    # Exact-cover option bits, built on the first cover decision: sweeps
    # that never reach the cover (the case-5 probe) do not pay for them.
    @cached_property
    def add_bit_cols(self) -> list[list[int]]:
        """add_bit_cols[s][g] = 1 << index(g + s).

        The |G|^2 entries share the |G| ints of one list of bits, so the
        table holds |G|^2 references, not |G|^2 ints of up to |G| bits."""
        bits = [1 << i for i in range(self.n)]
        return [list(map(bits.__getitem__, row)) for row in self.add_rows]  # add is symmetric

    @cached_property
    def class_generators(self) -> tuple[tuple[int, ...], ...]:
        """The distinct non-identity permutations of class ids that the
        automorphisms of automorphism_generators induce. An automorphism
        maps the generators of a cyclic subgroup onto those of its image, so
        class c goes to the class of the image of its representative; only
        the representatives are mapped, and no |G|-sized table is built per
        automorphism."""
        G = self.group
        direction_of = self.direction_of
        reps = [G.coords_of(r) for r, _ in self.direction_classes]
        perms = dict.fromkeys(
            tuple(direction_of[G.index_of(automorphism_image(G, A, x))] for x in reps)
            for A in automorphism_generators(G)
        )
        perms.pop(tuple(range(len(reps))), None)
        return tuple(perms)


@lru_cache(maxsize=None)
def index_tables(G: Group) -> IndexTables:
    return IndexTables(G)


def _largest_order_unit(n: int) -> int:
    """The least unit mod n of the largest multiplicative order: a
    primitive root when n is prime."""
    best, best_order = 1, 1
    for u in range(2, n):
        if math.gcd(u, n) == 1:
            order, x = 1, u
            while x != 1:
                x = x * u % n
                order += 1
            if order > best_order:
                best, best_order = u, order
    return best


def automorphism_generators(G: Group) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Automorphisms of G, as integer matrices A sending x to
    (sum_j A[i][j] x_j mod n_i)_i; the identity is left out.

    A run is the coordinates of one modulus n, in order. Each run gives the
    scaling of its first coordinate by the least unit of largest order mod
    n (a primitive root when n is prime); a run of r >= 2 coordinates also
    gives the r-cycle of its coordinates and the transvection adding its
    second coordinate to its first, which with the scaling generate
    GL_r(Z_n) for prime n. Each ordered pair of runs, with first
    coordinates i and j, gives the transvection x_i += (n_i / gcd(n_i, n_j))
    x_j unless the gcd is 1, which makes it the identity. Each map is a
    homomorphism, since n_i divides A[i][j] n_j, and invertible: a
    permutation, a unit scaling, or a transvection, which subtracting
    undoes. They need not generate all of Aut(G): class_generators is sound
    for any set of automorphisms, and fewer only generate a smaller group.
    They do generate it for prime moduli, each at most twice, the groups
    automorphism_index_perms closes them on.
    """
    d = len(G.moduli)
    runs: dict[int, list[int]] = {}
    for i, n in enumerate(G.moduli):
        runs.setdefault(n, []).append(i)

    def matrix(entries: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
        """The identity matrix with entries replaced."""
        return tuple(
            tuple(entries.get((i, j), int(i == j)) for j in range(d)) for i in range(d)
        )

    out = []
    for n, run in runs.items():
        u = _largest_order_unit(n)
        if u != 1:
            out.append(matrix({(run[0], run[0]): u}))
        if len(run) > 1:
            cycle = {(i, i): 0 for i in run}
            cycle.update({(i, run[t - 1]): 1 for t, i in enumerate(run)})
            out.append(matrix(cycle))
            out.append(matrix({(run[0], run[1]): 1}))
    for (n, run), (m, other) in itertools.permutations(runs.items(), 2):
        g = math.gcd(n, m)
        if g > 1:
            out.append(matrix({(run[0], other[0]): n // g}))
    return tuple(out)


def automorphism_image(G: Group, A: Sequence[Sequence[int]], x: Element) -> Element:
    """The image of x under the automorphism with matrix A
    (automorphism_generators)."""
    return tuple(sum(map(operator.mul, row, x)) % n for row, n in zip(A, G.moduli))


@lru_cache(maxsize=None)
def automorphism_index_perms(G: Group) -> tuple[tuple[int, ...], ...]:
    """All automorphisms of G as element-index permutations, sorted, so the
    identity comes first.

    Built for prime moduli only, each prime at most twice, else
    InvalidArgument; a squarefree modulus can be given as its primes (Z_2 x
    Z_6 as 2,2,3). Aut(G) is then one GL_1 or GL_2 per prime, which
    automorphism_generators generates: each generator is mapped onto every
    element once, and the set is closed breadth first by composing index
    tuples. Raises Overflow, before any generator is mapped, when the
    |Aut(G)| permutations would hold more than MAX_TABLE_ORDER ** 2 entries.
    """
    by_prime: dict[int, int] = {}
    for n in G.moduli:
        by_prime[n] = by_prime.get(n, 0) + 1
    if not all(is_prime(p) and rank <= 2 for p, rank in by_prime.items()):
        raise InvalidArgument(
            f"moduli {list(G.moduli)}: automorphisms are built for prime moduli only, each "
            "prime at most twice (a squarefree modulus can be given as its primes: "
            "Z_2 x Z_6 as 2,2,3)"
        )
    aut_order = 1
    for p, rank in by_prime.items():
        # |GL_1(p)| = p - 1 and |GL_2(p)| = (p^2 - 1)(p^2 - p)
        aut_order *= p - 1 if rank == 1 else (p * p - 1) * (p * p - p)
    if aut_order * G.order > MAX_TABLE_ORDER**2:
        raise Overflow(
            f"|Aut(G)| |G| = {aut_order} * {G.order} exceeds {MAX_TABLE_ORDER**2}, "
            "the largest automorphism table built"
        )
    gens = [
        tuple(G.index_of(automorphism_image(G, A, x)) for x in G.elements)
        for A in automorphism_generators(G)
    ]
    perms = [tuple(range(G.order))]
    seen = set(perms)
    for perm in perms:
        for gen in gens:
            image = tuple(map(perm.__getitem__, gen))
            if image not in seen:
                seen.add(image)
                perms.append(image)
    return tuple(sorted(perms))


def sylow_projection(G: Group, A: Multiset, r: int) -> Multiset:
    """Project a multiset onto the Sylow r-part, preserving total mass.

    The target group keeps one coordinate per factor whose order is
    divisible by r, reduced to its r-power part.
    """
    if A.group != G:
        raise GroupMismatch("multiset lives on a different group")
    if r < 2 or G.order % r:
        raise NotADivisor(f"{r} does not divide |G| = {G.order}")
    powers = []
    positions = []
    for i, n in enumerate(G.moduli):
        e = 1
        while n % (e * r) == 0:
            e *= r
        if e > 1:
            powers.append(e)
            positions.append(i)
    target = Group(tuple(powers))
    counts: dict[Element, int] = {}
    for x, m in A.items():
        y = tuple(x[i] % e for i, e in zip(positions, powers))
        counts[y] = counts.get(y, 0) + m
    return Multiset(target, counts)


def determined_directions(S: Multiset) -> frozenset[Direction]:
    """Directions of the nonzero differences of the support of S."""
    G = S.group
    pts = S.support
    seen_elems: set[Element] = set()
    out: set[Direction] = set()
    for i, a in enumerate(pts):
        for b in pts[:i]:
            for d in (G.sub(a, b), G.sub(b, a)):
                if d not in seen_elems:
                    seen_elems.add(d)
                    out.add(direction_rep(G, d))
    return frozenset(out)

