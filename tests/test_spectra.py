import random
from functools import lru_cache

import pytest

from spectile import (
    UNDECIDED,
    EmptyInput,
    GroupMismatch,
    Multiset,
    NotASpectralPair,
    SpectrumWitness,
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
    zero_set,
)
from spectile.cyclotomic import char_table
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
