"""Spectral-pair verification and spectrum search.

A spectrum for a set S is a Lambda with |Lambda| = |S| whose nonzero
differences all lie in the zero set of S. Searching for one is a clique
problem on the Cayley graph of the zero set; the search here is a
deterministic branch-and-bound with a greedy-coloring bound and an explicit
node budget, so a missing spectrum is only ever reported after exhaustion.

spectrum_search is the one spectrum search: it works on element indices and
a zero mask, and both find_spectrum and the verification sweeps call it.
is_spectral_pair is the independent check every returned witness passes: it
never reads the zero mask (set_zero_mask, Multiset._zero) or a CharTable.
It finds the direction classes of L - L on the IndexTables addition rows,
each difference a - b read as a + (-b) from L's element indices
(Multiset.indices, the one index form of a set) and their negatives
(IndexTables.neg), and evaluates the exact character sum of S once per
class (cyclotomic.char_sum_coeffs, from exponent rows built from
coordinates, at S's indices). Both are computed once per object: a
Multiset keeps its class verdicts as S and its difference classes as L
(_classes). The searches read a set's zero mask from set_zero_mask, which
returns only the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Union

from .cyclotomic import char_sum_coeffs, set_zero_mask
from .errors import (
    DEFAULT_BUDGET,
    UNDECIDED,
    EmptyInput,
    GroupMismatch,
    Undecided,
    InvalidArgument,
)
from .groups import IndexTables, Multiset, Subgroup, coset_id_table, index_tables


@dataclass(frozen=True)
class SpectrumWitness:
    """A verified spectrum: 0 in lam, |lam| = |S|, lam - lam in Z(S) u {0}."""

    lam: Multiset
    checked_pairs: int


def _classes(A: Multiset) -> list:
    """A's per-object cache of is_spectral_pair, built on first use:
    [verdicts, differences]. verdicts maps each direction class evaluated so
    far on A as the first argument to whether A's character sum vanishes
    there; differences is the frozenset of direction classes of A - A once A
    has been the second argument, else None. Both are functions of A alone,
    so an equal Multiset computes its own and copies and pickles start
    empty."""
    got = A._classes
    if got is None:
        got = [{}, None]
        object.__setattr__(A, "_classes", got)
    return got


def is_spectral_pair(S: Multiset, L: Multiset) -> bool:
    """True iff |S| = |L|, L is a set and every nonzero difference of L kills S-hat.

    The sums at the generators of <d> are Galois conjugates of the sum at d,
    so L is a spectrum of S exactly when S's character sum vanishes on every
    direction class of L - L. Each class of a set's differences is found once
    per L, as a + (-b) on the addition rows with L's indices negated once,
    and each class's verdict is evaluated once per S
    (char_sum_coeffs at the class representative), so checking one witness
    again, or one S against several L, costs only what is new.
    """
    if S.group != L.group:
        raise GroupMismatch("S and L live on different groups")
    if S.mass != L.mass or not L.is_set:
        return False
    if L.mass < 2:
        return True  # no nonzero difference
    G = S.group
    tables = index_tables(G)
    cached = _classes(L)
    classes = cached[1]
    if classes is None:
        add, direction_of = tables.add_rows, tables.direction_of
        # a - b = a + (-b); -d shares d's class, so half the differences suffice
        negs = list(map(tables.neg.__getitem__, L.indices))
        found = set()
        for i, a in enumerate(L.indices, 1):
            found.update(map(direction_of.__getitem__, map(add[a].__getitem__, negs[i:])))
        classes = cached[1] = frozenset(found)
    verdicts = _classes(S)[0]
    if False in map(verdicts.get, classes):
        return False
    todo = [c for c in classes if c not in verdicts]
    reps = [G.elements[tables.direction_classes[c][0]] for c in todo]
    for c, coeffs in zip(todo, char_sum_coeffs(G, S, reps)):
        verdicts[c] = vanishes = not any(coeffs)
        if not vanishes:
            return False
    return True


class _Found(Exception):
    def __init__(self, clique: list[int]):
        self.clique = clique


class _OutOfBudget(Exception):
    pass


def _greedy_color_count(P: int, adj: list[int]) -> int:
    """Number of greedy color classes of the vertex mask P (clique bound)."""
    count = 0
    while P:
        count += 1
        Q = P
        while Q:
            lb = Q & -Q
            v = lb.bit_length() - 1
            Q ^= lb
            P ^= lb
            Q &= ~adj[v]
    return count


class CliqueSearch:
    """Deterministic fixed-order clique decision with node budget."""

    def __init__(self, adj: list[int], budget: int):
        self.adj = adj
        self.budget = budget
        self.nodes = 0

    def find(self, target: int) -> Union[list[int], None, Undecided]:
        """A clique of exactly `target` vertices, or None, or UNDECIDED.

        Vertices are explored in index order, so the first clique found is
        the lexicographically least in the prepared vertex order.
        """
        if target == 0:
            return []
        full = (1 << len(self.adj)) - 1
        try:
            self._expand([], full, target)
        except _Found as hit:
            return hit.clique
        except _OutOfBudget:
            return UNDECIDED
        return None

    def _expand(self, R: list[int], P: int, target: int) -> None:
        need = target - len(R)
        if P.bit_count() < need:
            return
        if _greedy_color_count(P, self.adj) < need:
            return
        Q = P
        while Q:
            if Q.bit_count() < need:
                return
            lb = Q & -Q
            v = lb.bit_length() - 1
            Q ^= lb
            self.nodes += 1
            if self.nodes > self.budget:
                raise _OutOfBudget
            if need == 1:
                raise _Found(R + [v])
            self._expand(R + [v], Q & self.adj[v], target)


def spectrum_search(
    tables: IndexTables, zmask: int, k: int, budget: int
) -> tuple[Union[list[int], None, Undecided], int]:
    """A 0-containing k-set of element indices with every nonzero difference
    in zmask, by clique search; returned with the search nodes spent.

    zmask is a zero mask (CharTable.zero_mask). Vertices are ordered by
    degree descending, then by index (= lexicographic order). The search is
    deterministic, so a budget decides it exactly when the full search
    needs at most that many nodes. The set is None when exhaustive search
    proves there is none, UNDECIDED when the budget ran out first.
    """
    if k == 1:
        return [0], 0
    verts = []
    m = zmask
    while m:
        lb = m & -m
        verts.append(lb.bit_length() - 1)
        m ^= lb
    if len(verts) < k - 1:
        return None, 0
    # the neighbours of v are the w with v - w = v + (-w) in the zero set;
    # bit 0 of a zero mask is never set, so v is not its own neighbour
    in_z = set(verts).__contains__
    add = tables.add_rows
    negs = list(map(tables.neg.__getitem__, verts))
    nbrs = {v: list(compress(verts, map(in_z, map(add[v].__getitem__, negs)))) for v in verts}
    ordered = sorted(verts, key=lambda v: (-len(nbrs[v]), v))
    bit_of = {v: 1 << i for i, v in enumerate(ordered)}
    adj = [sum(map(bit_of.__getitem__, nbrs[v])) for v in ordered]
    search = CliqueSearch(adj, budget)
    clique = search.find(k - 1)
    if clique is None or clique is UNDECIDED:
        return clique, search.nodes
    return [0] + [ordered[i] for i in clique], search.nodes


def find_spectrum(
    S: Multiset, budget: int = DEFAULT_BUDGET
) -> Union[SpectrumWitness, None, Undecided]:
    """Search for a spectrum containing 0, by clique search over the zero set.

    Returns a verified witness, or None when exhaustive search proves no
    spectrum exists, or UNDECIDED when the node budget ran out first.
    """
    if S.mass == 0:
        raise EmptyInput("cannot search a spectrum for the empty set")
    if not S.is_set:
        raise InvalidArgument("spectrum search expects a set (0/1 multiset)")
    G = S.group
    lam_idx, _nodes = spectrum_search(index_tables(G), set_zero_mask(S), S.mass, budget)
    if lam_idx is None or lam_idx is UNDECIDED:
        return lam_idx
    lam = Multiset.of_indices(G, lam_idx)
    # re-verify the certificate instead of trusting the search
    if not is_spectral_pair(S, lam):  # pragma: no cover - search guarantees this
        raise InvalidArgument("internal error: clique witness failed verification")
    return SpectrumWitness(lam=lam, checked_pairs=S.mass * (S.mass - 1) // 2)


def equidistributed(A: Multiset, H: Subgroup) -> bool:
    """True iff the H-coset sums of A are all equal."""
    G = A.group
    if H.group != G:
        raise GroupMismatch("subgroup lives on a different group")
    ids = coset_id_table(H)
    sums = [0] * (G.order // H.order)
    for i, x in zip(A.indices, A.support):
        sums[ids[i]] += A.mult[x]
    return len(set(sums)) <= 1
