"""Spectral-pair verification and spectrum search.

A spectrum for a set S is a Lambda with |Lambda| = |S| whose nonzero
differences all lie in the zero set of S. Searching for one is a clique
problem on the Cayley graph of the zero set; the search here is a
deterministic branch-and-bound with a greedy-coloring bound and an explicit
node budget, so a missing spectrum is only ever reported after exhaustion.

One memo, one search: spectrum_search is the one spectrum search, on
element indices and a zero mask, and _spectral_verdict the one spectral
decision, which reads and fills the memo of its group, size and budget
(_memo), keyed by class word. A word whose zero mask covers H^perp minus 0
for a subgroup H of order |G| / k (tiling.subgroup_transversal) has the
spectrum H^perp and is decided without a search; every other word is
searched. find_spectrum, the verification sweeps and the case-5 probe all
decide through it, so a class word is decided once per size, budget and
process.
is_spectral_pair is the independent check every returned witness passes,
whichever set's search or subgroup test found it: it never reads the zero mask
(set_zero_mask, Multiset._zero) or a CharTable.
It finds the direction classes of L - L on the IndexTables addition rows,
each difference a - b read as a + (-b) from L's element indices
(Multiset.indices, the one index form of a set) and their negatives
(IndexTables.neg), and evaluates the exact character sum of S once per
class (cyclotomic.char_sum_coeffs, from exponent rows built from
coordinates, at S's indices). Both are computed once per object and kept
as bitmasks over class ids: a Multiset keeps the classes it was evaluated
at and those where its sum vanishes as S, and its difference classes as L
(_classes), so a pair is refused by one AND when L meets a class known not
to vanish. The memo keeps a word's spectrum as one Multiset, H^perp (kept
by tiling.subgroup_annihilators) or the set built when the word's search
result is stored, so every find_spectrum of the word returns that object
and its difference classes are found once per word.
find_spectrum reads a set's memo key and zero mask from set_zero, one
kernel sum kept on the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Optional, Union

from .cyclotomic import char_sum_coeffs, set_zero
from .errors import (
    DEFAULT_BUDGET,
    UNDECIDED,
    EmptyInput,
    GroupMismatch,
    Undecided,
    InvalidArgument,
    check_budget,
)
from .groups import Group, IndexTables, Multiset, Subgroup, coset_id_table, index_tables
from .tiling import subgroup_transversal


@dataclass(frozen=True)
class SpectrumWitness:
    """A verified spectrum: 0 in lam, |lam| = |S|, lam - lam in Z(S) u {0}."""

    lam: Multiset
    checked_pairs: int


def _classes(A: Multiset) -> list:
    """A's per-object cache of is_spectral_pair, built on first use:
    [evaluated, differences, vanishing], each a bitmask over direction class
    ids. evaluated has the classes A's character sum has been evaluated at
    as the first argument, and vanishing those of them where it vanishes;
    differences has the direction classes of A - A once A has been the
    second argument, else None. All are functions of A alone, so an equal
    Multiset computes its own and copies and pickles start empty."""
    got = A._classes
    if got is None:
        got = [0, None, 0]
        object.__setattr__(A, "_classes", got)
    return got


def is_spectral_pair(S: Multiset, L: Multiset) -> bool:
    """True iff |S| = |L|, L is a set and every nonzero difference of L kills S-hat.

    The sums at the generators of <d> are Galois conjugates of the sum at d,
    so L is a spectrum of S exactly when S's character sum vanishes on every
    direction class of L - L. The classes of a set's differences are found
    once per L, as a + (-b) on the addition rows with L's indices negated
    once, and kept as one bitmask; each class's verdict is evaluated once
    per S (char_sum_coeffs at the class representative) and kept in S's
    evaluated and vanishing masks (_classes). A pair that meets a class
    known not to vanish is refused by one AND, and only the classes of L
    that S has not evaluated are evaluated, so checking one witness again,
    or one S against several L, costs only what is new.
    """
    if S.group != L.group:
        raise GroupMismatch("S and L live on different groups")
    if S.mass != L.mass or not L.is_set:
        return False
    if L.mass < 2:
        return True  # no nonzero difference
    G = S.group
    tables = index_tables(G)
    of_L = _classes(L)
    classes = of_L[1]
    if classes is None:
        add, direction_of = tables.add_rows, tables.direction_of
        # a - b = a + (-b); -d shares d's class, so half the differences suffice
        negs = list(map(tables.neg.__getitem__, L.indices))
        found = set()
        for i, a in enumerate(L.indices, 1):
            found.update(map(direction_of.__getitem__, map(add[a].__getitem__, negs[i:])))
        classes = of_L[1] = sum(map((1).__lshift__, found))
    of_S = _classes(S)
    evaluated, vanishing = of_S[0], of_S[2]
    if classes & (evaluated ^ vanishing):  # a class known not to vanish
        return False
    todo = classes & ~evaluated
    if not todo:
        return True
    ids = []
    while todo:
        low = todo & -todo
        ids.append(low.bit_length() - 1)
        todo ^= low
    reps = [G.elements[tables.direction_classes[c][0]] for c in ids]
    for c, coeffs in zip(ids, char_sum_coeffs(G, S, reps)):
        bit = 1 << c
        of_S[0] |= bit
        if any(coeffs):
            return False
        of_S[2] |= bit
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


# The tile outcome in a memo entry's middle slot. TILE_UNSET marks an entry
# whose tiling no sweep has decided yet (find_spectrum and the case-5 probe
# decide none).
NOT_A_TILE, SUBGROUP_TILE, COVER_TILE, TILE_UNSET = range(4)

# A settled entry is a bare bool: both verdicts, decided and equal, and a
# subgroup tile (True) or no tile (False); a settled True's spectrum is the
# H^perp of its first subgroup complement, read from the zero mask when
# asked. Every other entry is a (spectral verdict, tile outcome, spectrum)
# tuple, the spectrum being H^perp for a subgroup transversal, else the set
# of the clique the search found, one Multiset per word that every
# find_spectrum of the word returns and checks, or None when there is none.
MemoEntry = Union[bool, tuple[bool, int, Optional[Multiset]]]


@lru_cache(maxsize=None)
def _memo(G: Group, k: int, budget: int) -> dict[bytes, MemoEntry]:
    """Verdicts at budget on the k-sets of G, keyed by class word alone, in
    the memo-key form of CharTable.key, which a packed batch gives every
    candidate and set_zero every set: a settled bool or one flat (spectral
    verdict, tile outcome, spectrum) per word, the spectrum a Multiset
    (MemoEntry). A byte-string key is hashed and compared as it is; only
    CharTable.expand, off the settled path, and CharTable.orbit read the
    word back.

    The one memo: the sweeps (harness.verify_fuglede), the case-5 probe and
    every per-set find_spectrum fetch it where they decide, and keep at most
    one entry per class word realised, decided once; a pool's worker keeps
    its own across its jobs. Every entry is exact at its budget (a
    subgroup transversal is decided at every budget, and a search that runs
    out stores nothing), so no verdict depends on history.

    Both properties of a k-set are functions of its zero mask Z(S), which
    its class word expands to: spectrality is the clique search on Z(S); S
    tiles iff some 0-containing |G|/k-set T has Z(S) | Z(T) covering G
    minus 0 (the Fourier tiling criterion); and S is a transversal of a
    subgroup H iff Z(S) covers H^perp minus 0, so the kind of tile is a
    function of Z(S) as well, and so is the spectrum H^perp a transversal
    is given in place of a search.

    Every verdict is also invariant under the automorphisms of G, which
    permute the direction classes and so the words. An automorphism psi is
    an isomorphism from Cay(G, Z) onto Cay(G, psi(Z)), so it keeps the
    clique verdict; psi(Z(S)) is the zero set of psi'(S) for the
    automorphism psi' adjoint to psi^-1 under the pairing, so the words
    realised at each size, the partners of the tiling criterion and the
    annihilators H^perp are each mapped onto themselves. A stem walk
    therefore settles a word's whole orbit at once (CharTable.orbit).
    """
    return {}


def _spectral_verdict(
    memo: dict[bytes, MemoEntry], tables: IndexTables, key: bytes, zmask: int, k: int, budget: int
) -> tuple[Union[bool, Undecided], Optional[Multiset]]:
    """The spectral verdict of the k-sets whose class word has the memo key
    key and whose zero mask is zmask, on the memo of budget (_memo), with
    its spectrum when it is True; else None.

    A set that is a transversal of a subgroup H has the spectrum H^perp,
    since its zero mask covers H^perp minus 0 (tiling.subgroup_transversal).
    So a settled True, a subgroup tile, gets the H^perp of the first such H
    in canonical order (the set subgroup_annihilators keeps), and a miss
    stores (True, TILE_UNSET, H^perp) when such an H exists. That test
    spends no search nodes, so it decides at every budget. Any other miss
    runs the clique search (is there a 0-containing k-set with differences
    in zmask?) and stores its verdict and, as one Multiset, its clique,
    with TILE_UNSET, unless the search ran out of budget."""
    entry = memo.get(key)
    if entry is None:
        found = None if tables.n % k else subgroup_transversal(tables, zmask, k)
        if found is not None:
            entry = memo[key] = (True, TILE_UNSET, found[2])
        else:
            clique = spectrum_search(tables, zmask, k, budget)[0]
            if clique is UNDECIDED:
                return UNDECIDED, None
            lam = None if clique is None else Multiset.of_indices(tables.group, clique)
            entry = memo[key] = (clique is not None, TILE_UNSET, lam)
    if entry is True:
        return True, subgroup_transversal(tables, zmask, k)[2]
    return (entry, None) if entry is False else (entry[0], entry[2])


def find_spectrum(
    S: Multiset, budget: int = DEFAULT_BUDGET
) -> Union[SpectrumWitness, None, Undecided]:
    """A spectrum containing 0: H^perp when S is a transversal of a subgroup
    H, else by clique search over the zero set.

    Returns a verified witness, or None when exhaustive search proves no
    spectrum exists, or UNDECIDED when the node budget ran out first.

    The spectrum is a function of S's class word and size, so the decision
    is _spectral_verdict under S's memo key (set_zero), on the memo of S's
    group, size and budget (_memo). For a transversal, and for a word a
    sweep settled True (a subgroup tile), the witness is the H^perp of the
    first subgroup H in canonical order that S is a transversal of, the
    set tile_to_spectrum returns, found at no search nodes and so at every
    budget. Any other word gets the set spectrum_search finds on S's own
    zero mask at this budget, searched once per word and stored. A spectrum
    is one Multiset per word, so every set of the word gets the same lam
    object, whose difference classes is_spectral_pair finds once. Every
    returned witness is checked against S by is_spectral_pair, whichever
    set's search or subgroup found it.
    """
    if S.mass == 0:
        raise EmptyInput("cannot search a spectrum for the empty set")
    if not S.is_set:
        raise InvalidArgument("spectrum search expects a set (0/1 multiset)")
    budget = check_budget(budget)
    G, k = S.group, S.mass
    tables = index_tables(G)
    key, zmask = set_zero(S)
    verdict, lam = _spectral_verdict(_memo(G, k, budget), tables, key, zmask, k, budget)
    if verdict is UNDECIDED:
        return UNDECIDED
    if not verdict:
        return None
    # re-verify the certificate instead of trusting the search or the memo
    if not is_spectral_pair(S, lam):
        raise InvalidArgument("internal error: spectrum witness failed verification")
    return SpectrumWitness(lam=lam, checked_pairs=k * (k - 1) // 2)


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
