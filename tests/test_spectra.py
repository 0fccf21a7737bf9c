import itertools
import random
from functools import lru_cache

import pytest

from spectile import (
    UNDECIDED,
    EmptyInput,
    GroupMismatch,
    InvalidArgument,
    Multiset,
    NotASpectralPair,
    SpectrumWitness,
    VerificationPlan,
    annihilator,
    char_sum,
    cyclic_subgroup,
    determined_directions,
    direction_rep,
    element_order,
    equidistributed,
    find_spectrum,
    is_spectral_pair,
    make_group,
    spectral_to_complement,
    subgroups_of_order,
    verify_fuglede,
    zero_set,
)
from spectile import spectra
from spectile.cyclotomic import char_table, set_zero, set_zero_mask
from spectile.errors import DEFAULT_BUDGET
from spectile.groups import index_tables
from spectile.spectra import CliqueSearch, spectrum_search


def test_is_spectral_pair_examples(z6):
    G6 = Multiset.set_of(z6, z6.elements)
    assert is_spectral_pair(G6, G6)
    point = Multiset.set_of(z6, [(1, 2)])
    zero = Multiset.set_of(z6, [(0, 0)])
    assert is_spectral_pair(point, zero)
    S = Multiset.set_of(z6, [(0, 0), (1, 0)])
    L = Multiset.set_of(z6, [(0, 0), (1, 1)])
    assert is_spectral_pair(S, L)
    assert not is_spectral_pair(S, Multiset.set_of(z6, [(0, 0), (0, 1)]))
    with pytest.raises(GroupMismatch):
        is_spectral_pair(S, Multiset.set_of(make_group([6]), [(0,)]))


def test_is_spectral_pair_rejects_a_multiset_spectrum(z36, shape36):
    S = Multiset.set_of(z36, [(0, 0, 0, 0), (0, 0, 1, 0)])
    lam = Multiset(z36, {(0, 0, 0, 0): 2})
    assert find_spectrum(S) is None
    assert not is_spectral_pair(S, lam)
    with pytest.raises(NotASpectralPair):
        spectral_to_complement(shape36, S, lam)


def test_find_spectrum_examples(z6):
    single = Multiset.set_of(z6, [(1, 2)])
    wit = find_spectrum(single)
    assert wit.lam.support == ((0, 0),)

    S = Multiset.set_of(z6, [(0, 0), (1, 0)])
    wit = find_spectrum(S)
    assert wit.lam.support == ((0, 0), (1, 0))  # deterministic first witness
    assert wit.checked_pairs == 1

    S3 = Multiset.set_of(z6, [(0, 0), (0, 1), (1, 0)])
    assert find_spectrum(S3) is None

    with pytest.raises(EmptyInput):
        find_spectrum(Multiset(z6, {}))


def test_is_spectral_examples(z6):
    assert isinstance(find_spectrum(Multiset.set_of(z6, [(1, 1)])), SpectrumWitness)
    assert isinstance(find_spectrum(Multiset.set_of(z6, [(0, 0), (1, 0)])), SpectrumWitness)
    assert find_spectrum(Multiset.set_of(z6, [(0, 0), (0, 1), (1, 0)])) is None


def test_budget_exhaustion_is_explicit(z36):
    S = Multiset.set_of(z36, [z36.coords_of(i) for i in range(0, 36, 3)])
    assert find_spectrum(S, budget=1) is UNDECIDED


def test_spectrum_witness_verifies(z36):
    rng = random.Random(12)
    found = 0
    for _ in range(300):
        pts = rng.sample(range(1, 36), 5)
        S = Multiset.set_of(z36, [z36.coords_of(i) for i in [0] + pts])
        wit = find_spectrum(S)
        if wit is None or wit is UNDECIDED:
            continue
        found += 1
        assert wit.lam.mass == S.mass
        assert (0, 0, 0, 0) in wit.lam.mult
        assert is_spectral_pair(S, wit.lam)
        assert is_spectral_pair(wit.lam, S)  # symmetry of the relation
    assert found > 0


def test_equidistributed_examples(z6):
    const = Multiset(z6, {x: 2 for x in z6.elements})
    for m in (1, 2, 3, 6):
        for H in subgroups_of_order(z6, m):
            assert equidistributed(const, H)
    A = Multiset.set_of(z6, [(0, 0), (1, 0)])
    H3 = subgroups_of_order(z6, 3)[0]
    assert equidistributed(A, H3)
    B = Multiset.set_of(z6, [(0, 0), (0, 1)])
    H2 = subgroups_of_order(z6, 2)[0]
    assert not equidistributed(B, H2)


def test_equidistribution_vanishing_equivalence(z36):
    # constant coset sums over the annihilator of H <=> vanishing on H \ {0}
    rng = random.Random(31)
    all_subs = [H for m in (1, 2, 3, 4, 6, 9, 12, 18, 36) for H in subgroups_of_order(z36, m)]
    perps = {H: annihilator(z36, H.as_set()) for H in all_subs}
    for _ in range(40):
        mult = {
            z36.coords_of(i): rng.randint(1, 3)
            for i in rng.sample(range(36), rng.randint(1, 20))
        }
        A = Multiset(z36, mult)
        for H in all_subs:
            lhs = equidistributed(A, perps[H])
            rhs = all(
                char_sum(z36, A, h).is_zero for h in H.elements if h != z36.identity
            )
            assert lhs == rhs


def test_translation_invariance(z36):
    rng = random.Random(8)
    for _ in range(50):
        S = Multiset.set_of(
            z36, [z36.coords_of(i) for i in rng.sample(range(36), rng.randint(1, 6))]
        )
        L = Multiset.set_of(
            z36, [z36.coords_of(i) for i in rng.sample(range(36), S.mass)]
        )
        base = is_spectral_pair(S, L)
        g = z36.coords_of(rng.randrange(36))
        h = z36.coords_of(rng.randrange(36))
        assert is_spectral_pair(S.translate(g), L) == base
        assert is_spectral_pair(S, L.translate(h)) == base


def test_subgroup_direction_coverage_forces_divisibility(z36):
    # for spectral S: if S determines every direction of H then |H| divides |S|
    rng = random.Random(77)
    all_subs = [H for m in (2, 3, 4, 6, 9) for H in subgroups_of_order(z36, m)]
    checked = 0
    for _ in range(400):
        pts = [0] + rng.sample(range(1, 36), rng.randint(1, 8))
        S = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        wit = find_spectrum(S)
        if wit is None:
            continue
        dirs = determined_directions(S)
        for H in all_subs:
            h_dirs = {
                direction_rep(z36, x) for x in H.elements if x != z36.identity
            }
            if h_dirs <= dirs:
                checked += 1
                assert S.mass % H.order == 0
    assert checked > 0


def test_prime_difference_forces_equidistribution(z36):
    # for a spectral pair (S, L) and prime-order a in L - L, S is
    # equidistributed among the cosets of the annihilator of <a>
    rng = random.Random(99)
    checked = 0
    for _ in range(300):
        pts = [0] + rng.sample(range(1, 36), rng.randint(1, 7))
        S = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        wit = find_spectrum(S)
        if wit is None:
            continue
        lam_pts = wit.lam.support
        for a in lam_pts:
            for b in lam_pts:
                if a == b:
                    continue
                d = z36.sub(a, b)
                if element_order(z36, d) in (2, 3):
                    line = Multiset.set_of(z36, cyclic_subgroup(z36, d))
                    perp = annihilator(z36, line)
                    assert equidistributed(S, perp)
                    checked += 1
    assert checked > 0


def test_zero_set_found_spectra_consistent(z6):
    # a found spectrum's differences land in the zero set by construction
    S = Multiset.set_of(z6, [(0, 0), (1, 2)])
    wit = find_spectrum(S)
    zs = zero_set(z6, S)
    pts = wit.lam.support
    for a in pts:
        for b in pts:
            if a != b:
                assert z6.sub(a, b) in zs


@lru_cache(maxsize=None)
def _differences(G):
    """diff[x][y] = index(x - y), from coordinates."""
    return [[G.index_of(G.sub(x, y)) for y in G.elements] for x in G.elements]


def _quadratic_spectrum_search(tables, zmask, k, budget):
    """spectrum_search with its graph built pair by pair, as it once was:
    the reference for the neighbour lists it builds now."""
    if k == 1:
        return [0], 0
    verts = [g for g in range(tables.n) if zmask >> g & 1]
    if len(verts) < k - 1:
        return None, 0
    diff = _differences(tables.group)
    deg = [sum(1 for w in verts if w != v and zmask >> diff[v][w] & 1) for v in verts]
    order = sorted(range(len(verts)), key=lambda i: (-deg[i], verts[i]))
    ordered = [verts[i] for i in order]
    pos = {v: i for i, v in enumerate(ordered)}
    adj = [0] * len(ordered)
    for v in ordered:
        for w in ordered:
            if w != v and zmask >> diff[v][w] & 1:
                adj[pos[v]] |= 1 << pos[w]
    search = CliqueSearch(adj, budget)
    clique = search.find(k - 1)
    if clique is None or clique is UNDECIDED:
        return clique, search.nodes
    return [0] + [ordered[i] for i in clique], search.nodes


@pytest.mark.parametrize("moduli", [(2, 2, 3, 3), (3, 3, 3, 3, 3)], ids=["Z2^2xZ3^2", "Z3^5"])
def test_spectrum_search_matches_the_quadratic_graph_construction(moduli):
    # the same clique and node count on the zero masks of 200 random sets,
    # and on 200 random unions of direction classes, whose graphs are
    # larger; spectral or not, at budgets that some searches exhaust
    G = make_group(moduli)
    tables, kernel = index_tables(G), char_table(G)
    class_bits = sum(kernel.word_bits)
    rng = random.Random(3)
    outcomes = set()
    for _ in range(200):
        k = rng.choice([2, 3, 4, 6, 9, 12])
        cand = (0,) + tuple(sorted(rng.sample(range(1, G.order), k - 1)))
        key = kernel.key(sum(map(kernel.cols.__getitem__, cand)), k)
        union = class_bits & rng.getrandbits(class_bits.bit_length())
        for zmask, budget in (
            (kernel.expand(key), DEFAULT_BUDGET),
            (kernel.expand(key), 20),
            (kernel.expand(union.to_bytes(kernel.key_bytes, "little")), 50),
        ):
            got = spectrum_search(tables, zmask, k, budget)
            assert got == _quadratic_spectrum_search(tables, zmask, k, budget), (cand, zmask)
            outcomes.add("undecided" if got[0] is UNDECIDED else got[0] is not None)
    assert outcomes == {"undecided", True, False}


# --- the shared spectral memo ------------------------------------------------
#
# find_spectrum decides through the memo the sweeps and the probe fill
# (spectra._memo), keyed by class word within one dict per group, size and
# budget. Whatever the memo holds, it must give what a search on the set's
# own zero mask gives at the same budget.

# (moduli, sizes or None for every size, short: whether budget 3 leaves a set
# undecided)
MEMO_ORACLE_CASES = [((8,), None, True), ((2, 2, 3), None, True), ((2, 2, 3, 3), (2, 3, 4), False)]


def _zero_containing_sets(G, sizes):
    for k in sizes:
        for rest in itertools.combinations(range(1, G.order), k - 1):
            yield Multiset.of_indices(G, (0,) + rest)


def _assert_per_set_entries(memo, G, sizes):
    """Each entry of memo(G, k, DEFAULT_BUDGET) is a realised word of size k
    with the (verdict, TILE_UNSET, spectrum) that per-set calls store, the
    spectrum being the set of the clique a search on the word's zero mask
    finds, and every word is there."""
    words = {k: {} for k in sizes}
    for S in _zero_containing_sets(G, sizes):
        key, zmask = set_zero(S)
        words[S.mass][key] = zmask
    tables = index_tables(G)
    for k in sizes:
        assert set(memo(G, k, DEFAULT_BUDGET)) == set(words[k]), k
        for key, (verdict, tile, lam) in memo(G, k, DEFAULT_BUDGET).items():
            assert tile == spectra.TILE_UNSET and (lam is not None) is verdict
            clique = spectrum_search(tables, words[k][key], k, DEFAULT_BUDGET)[0]
            if verdict:
                assert lam.indices == tuple(sorted(clique)), key


def _memo_left_by(G, sizes, state, monkeypatch):
    """Point the spectral decision at a fresh memo, left as state says:
    cold; after an exhaustive sweep, whose settled words are bare bools
    with no clique; after a budget-3 sweep, which fills the budget-3 memos
    with unsettled entries alone and leaves the default-budget ones empty;
    or after per-set calls at the default budget, which fill it with the
    realised words alone."""
    memo = lru_cache(maxsize=None)(lambda G, k, budget: {})
    monkeypatch.setattr(spectra, "_memo", memo)
    if state == "per-set calls":
        for S in _zero_containing_sets(G, sizes):
            find_spectrum(S)
        _assert_per_set_entries(memo, G, sizes)
    elif state != "cold":
        budget = DEFAULT_BUDGET if state == "exhaustive sweep" else 3
        verify_fuglede(VerificationPlan(group=G, sizes=sizes, budget=budget))
        entries = [entry for k in sizes for entry in memo(G, k, budget).values()]
        if state == "exhaustive sweep":
            assert True in entries
        else:
            assert entries and bool not in map(type, entries)
            assert not any(memo(G, k, DEFAULT_BUDGET) for k in sizes)
    return memo


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 3])
@pytest.mark.parametrize("state", ["cold", "exhaustive sweep", "budget-3 sweep", "per-set calls"])
@pytest.mark.parametrize("moduli, sizes, short", MEMO_ORACLE_CASES, ids=str)
def test_find_spectrum_on_the_memo_is_the_search_on_the_set(
    moduli, sizes, short, state, budget, monkeypatch
):
    G = make_group(moduli)
    sizes = sizes or tuple(range(1, G.order + 1))
    memo = _memo_left_by(G, sizes, state, monkeypatch)
    tables = index_tables(G)
    seen = dict.fromkeys(("witness", "none", "undecided"), 0)
    for S in _zero_containing_sets(G, sizes):
        got = find_spectrum(S, budget)
        own = spectrum_search(tables, set_zero_mask(S), S.mass, budget)[0]
        if own is UNDECIDED or own is None:
            assert got is own, S
            seen["undecided" if own is UNDECIDED else "none"] += 1
        else:
            assert got.lam.indices == tuple(sorted(own)), S
            assert is_spectral_pair(S, got.lam)
            seen["witness"] += 1
    assert seen["witness"] and seen["none"]
    assert bool(seen["undecided"]) is (short and budget == 3)
    if state == "cold":
        # per-set calls at the default budget add one entry per realised
        # word and size; at budget 3 they fill the budget-3 memos alone
        if budget == DEFAULT_BUDGET:
            _assert_per_set_entries(memo, G, sizes)
        else:
            assert not any(memo(G, k, DEFAULT_BUDGET) for k in sizes)


def test_sets_of_one_word_share_one_checked_spectrum(z36, monkeypatch):
    # the memo keeps a word's spectrum as one Multiset: every set of the
    # word gets that object, searched once, and is_spectral_pair finds its
    # difference classes once (direction_of is read only then), while it
    # still checks the witness against each set
    # (test_a_wrong_clique_in_the_memo_is_refused)
    memo = lru_cache(maxsize=None)(lambda G, k, budget: {})
    monkeypatch.setattr(spectra, "_memo", memo)
    searched = []
    search = spectra.spectrum_search
    monkeypatch.setattr(
        spectra, "spectrum_search", lambda *args: searched.append(args[1:]) or search(*args)
    )
    reads = []

    class Reads(list):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    tables = index_tables(z36)
    monkeypatch.setattr(tables, "direction_of", Reads(tables.direction_of))
    S = Multiset.set_of(z36, [(a, 0, 0, c) for a in range(2) for c in range(3)])
    twins = [S.translate((0, 1, 0, 0)), S.translate((1, 1, 2, 1)), Multiset.set_of(z36, S.support)]
    assert len({S, *twins}) == 3 and {set_zero(A)[0] for A in twins} == {set_zero(S)[0]}
    first = find_spectrum(S)
    assert len(searched) == 1 and len(reads) == 6 * 5 // 2
    assert memo(z36, 6, DEFAULT_BUDGET)[set_zero(S)[0]][2] is first.lam
    for A in twins:
        got = find_spectrum(A)
        assert got.lam is first.lam and is_spectral_pair(A, got.lam)
    assert len(searched) == 1 and len(reads) == 6 * 5 // 2


def test_a_wrong_clique_in_the_memo_is_refused(z36, monkeypatch):
    memo = lru_cache(maxsize=None)(lambda G, k, budget: {})
    monkeypatch.setattr(spectra, "_memo", memo)
    # a subgroup tile of size 6, spectral, and its annihilator
    S = Multiset.set_of(z36, [(a, 0, 0, c) for a in range(2) for c in range(3)])
    right = find_spectrum(S)
    key = set_zero(S)[0]
    verdict, tile, lam = memo(z36, 6, DEFAULT_BUDGET)[key]
    assert verdict and tile == spectra.TILE_UNSET and right.lam is lam
    # another 0-containing 6-set that is not a spectrum of S
    wrong = Multiset.of_indices(z36, [0, 1, 2, 3, 4, 5])
    assert not is_spectral_pair(S, wrong)
    memo(z36, 6, DEFAULT_BUDGET)[key] = (True, tile, wrong)
    twin = Multiset.set_of(z36, S.support)
    with pytest.raises(InvalidArgument, match="failed verification"):
        find_spectrum(twin)
