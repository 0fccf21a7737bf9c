"""Structure detectors for groups of shape Z_p^2 x Z_q^2.

The main tiling/spectral equivalence proof on these groups splits on the
gcd of the set size with the group order and leans on the fiber ("leaf")
structure of a set over the q-square factor. This module implements those
detectors: gcd classification, leaf decomposition, the constant-mod-q
Sylow projection shape, the aligned-leaf condition along a direction, the
two-factor constancy law, and the coset-collision trichotomy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .cyclotomic import multiset_zero_mask
from .errors import (
    InvalidArgument,
    InvalidDirection,
    NotPQShape,
    TooSmall,
    WrongShape,
)
from .groups import (
    Direction,
    Element,
    Group,
    IndexTables,
    Multiset,
    direction_rep,
    index_tables,
    is_prime,
    sylow_projection,
)
from .tiling import ComplementMethod, ComplementWitness, is_tiling_pair


@dataclass(frozen=True)
class PQShape:
    """Orientation data for a group with moduli {p, p, q, q}, p < q primes."""

    group: Group
    p: int
    q: int
    p_positions: tuple[int, int]
    q_positions: tuple[int, int]

    @cached_property
    def p_group(self) -> Group:
        return Group((self.p, self.p))

    @cached_property
    def q_group(self) -> Group:
        return Group((self.q, self.q))

    def split(self, x: Element) -> tuple[Element, Element]:
        """x -> (a, b) with a in Z_p^2, b in Z_q^2."""
        return (
            tuple(x[i] for i in self.p_positions),
            tuple(x[i] for i in self.q_positions),
        )

    def join(self, a: Element, b: Element) -> Element:
        out = [0] * 4
        for i, c in zip(self.p_positions, a):
            out[i] = c
        for i, c in zip(self.q_positions, b):
            out[i] = c
        return tuple(out)


def pq_shape(G: Group) -> PQShape:
    """Identify a Z_p^2 x Z_q^2 group and fix the p < q orientation."""
    if len(G.moduli) != 4:
        raise NotPQShape(f"need four cyclic factors, got {G.moduli!r}")
    primes = sorted(set(G.moduli))
    if len(primes) != 2 or not all(is_prime(r) for r in primes):
        raise NotPQShape(f"moduli {G.moduli!r} are not two distinct primes")
    p, q = primes
    p_pos = tuple(i for i, n in enumerate(G.moduli) if n == p)
    q_pos = tuple(i for i, n in enumerate(G.moduli) if n == q)
    if len(p_pos) != 2 or len(q_pos) != 2:
        raise NotPQShape(f"moduli {G.moduli!r} must contain each prime twice")
    return PQShape(group=G, p=p, q=q, p_positions=p_pos, q_positions=q_pos)


def divisibility_class(G: Group, S: Multiset) -> int:
    """gcd(|S|, |G|), the case classifier for the structure analysis."""
    return math.gcd(S.mass, G.order)


class CaseKind(str, enum.Enum):
    SQUARE_TIMES_PRIME = "square-times-prime"  # gcd = r^2 s
    PRIME_SQUARE = "prime-square"  # gcd = r^2
    TRIVIAL = "trivial"  # gcd = 1
    PRIME = "prime"  # gcd = r
    COPRIME_PRODUCT = "coprime-product"  # gcd = pq


@dataclass(frozen=True)
class CaseTag:
    """Which divisibility case a set falls in, with the prime orientation.

    square_prime is the prime whose square divides the gcd (when one does);
    linear_prime the prime appearing to the first power.
    """

    kind: CaseKind
    n: int
    square_prime: Optional[int] = None
    linear_prime: Optional[int] = None


def classify_case(shape: PQShape, S: Multiset) -> CaseTag:
    """Classify gcd(|S|, |G|) into the five structure cases."""
    if S.group != shape.group:
        raise NotPQShape("set lives on a different group")
    n = divisibility_class(shape.group, S)
    p, q = shape.p, shape.q
    if n == 1:
        return CaseTag(CaseKind.TRIVIAL, n)
    if n == p or n == q:
        return CaseTag(CaseKind.PRIME, n, linear_prime=n)
    if n == p * q:
        return CaseTag(CaseKind.COPRIME_PRODUCT, n)
    if n == p * p:
        return CaseTag(CaseKind.PRIME_SQUARE, n, square_prime=p)
    if n == q * q:
        return CaseTag(CaseKind.PRIME_SQUARE, n, square_prime=q)
    if n == p * p * q:
        return CaseTag(CaseKind.SQUARE_TIMES_PRIME, n, square_prime=p, linear_prime=q)
    if n == p * q * q:
        return CaseTag(CaseKind.SQUARE_TIMES_PRIME, n, square_prime=q, linear_prime=p)
    raise InvalidArgument(
        f"gcd {n} equals the group order; only proper set sizes are classified"
    )


@dataclass(frozen=True)
class LeafDecomposition:
    """The fibers K_a = (S intersect (a + Z_q^2)) - a, for every a in Z_p^2."""

    shape: PQShape
    leaves: dict[Element, frozenset[Element]]

    def mass(self) -> int:
        return sum(len(K) for K in self.leaves.values())

    def reassemble(self) -> Multiset:
        shape = self.shape
        elems = [
            shape.join(a, b) for a, K in self.leaves.items() for b in K
        ]
        return Multiset.set_of(shape.group, elems)


def leaf_decomposition(shape: PQShape, S: Multiset) -> LeafDecomposition:
    """Split a set into its fibers over the p-square coordinates."""
    if S.group != shape.group:
        raise NotPQShape("set lives on a different group")
    if not S.is_set:
        raise InvalidArgument("leaf decomposition expects a set")
    buckets: dict[Element, set[Element]] = {a: set() for a in shape.p_group.elements}
    for x in S.mult:
        a, b = shape.split(x)
        buckets[a].add(b)
    return LeafDecomposition(
        shape=shape, leaves={a: frozenset(K) for a, K in buckets.items()}
    )


@dataclass(frozen=True)
class LeafConstancy:
    """S_p = c * (all of Z_p^2) + q * D with c the pointwise minimum."""

    c: int
    d: Multiset


def leaf_constancy(shape: PQShape, S: Multiset) -> Optional[LeafConstancy]:
    """Decompose the Sylow p-projection as constant plus q times a multiset.

    Returns None when (S_p - min) is not pointwise divisible by q; the
    returned c is the canonical (unique) choice, the pointwise minimum.
    """
    if S.group != shape.group:
        raise NotPQShape("set lives on a different group")
    sp = sylow_projection(shape.group, S, shape.p)
    values = {a: 0 for a in shape.p_group.elements}
    for a, m in sp.items():
        values[a] = m
    c = min(values.values())
    q = shape.q
    residues = {a: v - c for a, v in values.items()}
    if any(r % q for r in residues.values()):
        return None
    d_counts = {a: r // q for a, r in residues.items() if r}
    return LeafConstancy(c=c, d=Multiset(shape.p_group, d_counts))


class LeafTables:
    """Element-index tables of one shape for the leaf-level decisions.

    A leaf is held as a bitmask over the indices of Z_q^2, and a set's
    leaves as a list of masks indexed by the p-part index in Z_p^2. Build
    one per shape with :func:`leaf_tables`.
    """

    def __init__(self, shape: PQShape):
        G = shape.group
        pg, qg = shape.p_group, shape.q_group
        add = index_tables(G).add_rows
        parts = [shape.split(x) for x in G.elements]
        self.q = shape.q
        self.p_part = [pg.index_of(a) for a, _ in parts]
        self.q_part = [qg.index_of(b) for _, b in parts]
        self.q_bit = [1 << b for b in self.q_part]
        # element indices of (a, 0) for every a in Z_p^2 and of (0, b) for every b in Z_q^2
        self.p_embed = [G.index_of(shape.join(a, qg.identity)) for a in pg.elements]
        self.q_embed = [G.index_of(shape.join(pg.identity, b)) for b in qg.elements]
        # elem[i][j] = index of (a_i, b_j); row 0 is q_embed, column 0 p_embed
        self.elem = [[add[gu][gv] for gv in self.q_embed] for gu in self.p_embed]
        # q_dir[b][b'] = direction class id in Z_q^2 of b - b' = b + (-b')
        # (-1 when b = b'), one of q_dir_count ids
        pt, qt = index_tables(pg), index_tables(qg)
        self.q_dir = [[qt.direction_of[row[nb]] for nb in qt.neg] for row in qt.add_rows]
        self.q_dir_count = len(qt.direction_classes)
        # the p lines b + <u> of Z_p^2 for each line <u> through 0, by class
        # id, and the pairs (a, a') of distinct points on one of those lines
        self.p = shape.p
        self.p_lines = _line_cosets(pt)
        self.p_pairs = [
            [(a, a2) for line in lines for i, a in enumerate(line) for a2 in line[i + 1 :]]
            for lines in self.p_lines
        ]

    @cached_property
    def pair_cosets(self) -> list[list[list[int]]]:
        """pair_cosets[c][c'][s]: the coset of <(u, v)> = <u> x <v> holding
        element s, for u on line class c of Z_p^2 and v on line class c' of
        Z_q^2: the pair of the cosets of s's p-part and q-part, one id < pq."""
        q_lines = _line_cosets(index_tables(Group((self.q, self.q))))
        p_ids, q_ids = (
            [{t: j for j, coset in enumerate(lines) for t in coset} for lines in by_class]
            for by_class in (self.p_lines, q_lines)
        )
        return [
            [[pid[a] * self.q + qid[b] for a, b in zip(self.p_part, self.q_part)] for qid in q_ids]
            for pid in p_ids
        ]

    def leaves(self, cand: Iterable[int]) -> list[int]:
        """Leaf masks of a set of element indices, in one pass."""
        out = [0] * len(self.p_embed)
        p_part, q_bit = self.p_part, self.q_bit
        for s in cand:
            out[p_part[s]] |= q_bit[s]
        return out


def _line_cosets(tables: IndexTables) -> list[list[tuple[int, ...]]]:
    """By direction class id, the sorted cosets b + <u> of the line <u>, as sorted indices."""
    out = []
    for _, gens in tables.direction_classes:
        line = [0] + [a for a in range(tables.n) if gens >> a & 1]
        out.append(sorted({tuple(sorted(row[t] for t in line)) for row in tables.add_rows}))
    return out


@lru_cache(maxsize=None)
def leaf_tables(shape: PQShape) -> LeafTables:
    return LeafTables(shape)


def aligned_leaves(lines: list[tuple[int, ...]], leaves: list[int]) -> bool:
    """On every line, all nonempty leaf masks are equal."""
    return all(len({leaves[a] for a in line} - {0}) <= 1 for line in lines)


def assumption_a_holds(shape: PQShape, S: Multiset, u: Element) -> bool:
    """Aligned leaves along u: on each line b + <u>, nonempty fibers agree."""
    if S.group != shape.group:
        raise NotPQShape("set lives on a different group")
    if not S.is_set:
        raise InvalidArgument("leaf decomposition expects a set")
    pg = shape.p_group
    if not pg.contains(u):
        raise InvalidDirection(f"{u!r} is not an element of the p-square factor")
    if u == pg.identity:
        raise InvalidDirection("direction must be nonzero")
    lt = leaf_tables(shape)
    leaves = lt.leaves(S.indices)
    line_class = index_tables(pg).direction_of[pg.index_of(u)]
    return aligned_leaves(lt.p_lines[line_class], leaves)


def prop1_validate(T: Multiset) -> tuple[bool, bool]:
    """Check the two-factor constancy law on a multiset over Z_p x Z_q^2.

    hypothesis: the character sum of T vanishes at every (x, y) with both
    the Z_p part x and the Z_q^2 part y nonzero. conclusion: the fiber
    functions g_i(z) = T(i + z) differ by constants. Both truth values are
    returned so vacuous cases stay visible. Both are read by element index:
    the hypothesis from T's zero mask, the conclusion from T's counts.
    """
    G = T.group
    if len(G.moduli) != 3:
        raise WrongShape(f"need three cyclic factors, got {G.moduli!r}")
    p, q = (next((n for n in G.moduli if G.moduli.count(n) == c), None) for c in (1, 2))
    if p is None or q is None:
        raise WrongShape(f"moduli {G.moduli!r} are not of shape (p, q, q)")
    if not (is_prime(p) and is_prime(q)):
        raise WrongShape(f"moduli {G.moduli!r} are not distinct primes (p, q, q)")
    p_pos = G.moduli.index(p)
    sp, s0, s1 = (G._radix[k] for k in (p_pos, *(k for k in range(3) if k != p_pos)))
    # fibers[i][z] = the element index of (i, z), z in Z_q^2 by index (0 first)
    fibers = [[i * sp + a * s0 + b * s1 for a in range(q) for b in range(q)] for i in range(p)]
    mixed = sum(1 << g for row in fibers[1:] for g in row[1:])
    hypothesis = not mixed & ~multiset_zero_mask(T)

    mult = [0] * G.order
    for g, x in zip(T.indices, T.support):
        mult[g] = T.mult[x]
    base = [mult[g] for g in fibers[0]]
    conclusion = all(len({mult[g] - b for g, b in zip(row, base)}) == 1 for row in fibers[1:])
    return hypothesis, conclusion


class TrichotomyWitnessKind(str, enum.Enum):
    P_ONLY = "p-direction"  # difference (a', 0), a' ~ a
    Q_ONLY = "q-direction"  # difference (0, b'), b' ~ b
    MIXED = "mixed-direction"  # difference (a', b') with both parts nonzero


@dataclass(frozen=True)
class TrichotomyResult:
    """Either a size-pq tiling certificate, or a direction witness per pair."""

    tile: Optional[ComplementWitness]
    witnesses: Optional[dict[tuple[Element, Element], tuple[TrichotomyWitnessKind, Direction]]]


def direction_trichotomy(shape: PQShape, A: Multiset) -> TrichotomyResult:
    """For |A| >= pq: certify a pq-size tiling, or witness a determined
    direction in <(a, b)> for every pair of nonzero a, b.

    Each <(a, b)> has index pq; if some such subgroup sees every coset at
    most once then |A| = pq and that subgroup is a tiling complement.
    Otherwise a coset collision yields a difference in <(a, b)> \\ {0},
    classified by which parts vanish.
    """
    if A.group != shape.group:
        raise NotPQShape("set lives on a different group")
    if not A.is_set:
        raise InvalidArgument("trichotomy expects a set")
    p, q = shape.p, shape.q
    if A.mass < p * q:
        raise TooSmall(f"|A| = {A.mass} < pq = {p * q}")
    G = shape.group
    pg, qg = shape.p_group, shape.q_group
    pt, qt = index_tables(pg), index_tables(qg)
    cosets = leaf_tables(shape).pair_cosets
    pts = A.support
    witnesses: dict[tuple[Element, Element], tuple[TrichotomyWitnessKind, Direction]] = {}
    for ai, a in enumerate(pg.elements[1:], 1):
        for bi, b in enumerate(qg.elements[1:], 1):
            # (a, b) has order pq, so <(a, b)> = <a> x <b> is the subgroup of index pq
            ids = cosets[pt.direction_of[ai]][qt.direction_of[bi]]
            seen: dict[int, Element] = {}
            for i, x in zip(A.indices, pts):
                y = seen.setdefault(ids[i], x)
                if y != x:
                    break
            else:
                # every coset holds at most one point, so |A| = pq and
                # <(a, b)>, the coset of 0, is a tiling complement
                t = Multiset.of_indices(G, [i for i, c in enumerate(ids) if c == ids[0]])
                witness = ComplementWitness(t=t, method=ComplementMethod.SUBGROUP)
                if not is_tiling_pair(A, t):  # pragma: no cover
                    raise InvalidArgument("internal error: transversal failed verification")
                return TrichotomyResult(tile=witness, witnesses=None)
            d = G.sub(x, y)
            da, db = shape.split(d)
            if db == qg.identity:
                kind = TrichotomyWitnessKind.P_ONLY
            elif da == pg.identity:
                kind = TrichotomyWitnessKind.Q_ONLY
            else:
                kind = TrichotomyWitnessKind.MIXED
            witnesses[(a, b)] = (kind, direction_rep(G, d))
    return TrichotomyResult(tile=None, witnesses=witnesses)
