import collections
import collections.abc
import itertools
import random
import re

import pytest

from spectile import (
    annihilator,
    UNDECIDED,
    ComplementMethod,
    EmptyInput,
    GroupMismatch,
    InvalidArgument,
    Multiset,
    NotADivisor,
    VerificationPlan,
    char_sum,
    enumerate_tiles,
    find_complement,
    find_tiling_complement,
    is_spectral_pair,
    is_tiling_pair,
    make_group,
    subgroups_of_order,
    tiles_by_subgroup,
    verify_fuglede,
)
from spectile.cyclotomic import _reduce, char_table, set_zero_mask
from spectile.errors import DEFAULT_BUDGET
from spectile.groups import Subgroup, coset_id_table, index_tables
from spectile.tiling import (
    SeededDraws,
    _sample_plan,
    candidate_draws,
    cover_complement,
    subgroup_transversal,
    tiling_complement,
)


def test_is_tiling_pair_examples(z6):
    G6 = Multiset.set_of(z6, z6.elements)
    zero = Multiset.set_of(z6, [(0, 0)])
    assert is_tiling_pair(G6, zero)
    assert is_tiling_pair(zero, G6)
    S = Multiset.set_of(z6, [(0, 0), (1, 0)])
    T = Multiset.set_of(z6, [(0, 0), (0, 1), (0, 2)])
    assert is_tiling_pair(S, T)
    assert is_tiling_pair(T, S)  # symmetry
    assert not is_tiling_pair(S, Multiset.set_of(z6, [(0, 0), (0, 1), (1, 0)]))
    with pytest.raises(GroupMismatch):
        is_tiling_pair(S, Multiset.set_of(make_group([6]), [(0,)]))


def _tiles_by_counting(S, T):
    """Brute force: S + T, counted with multiplicity, hits every element once."""
    G = S.group
    sums = collections.Counter()
    for s, m in S.items():
        for t, n in T.items():
            sums[G.add(s, t)] += m * n
    return sums == collections.Counter(G.elements)


def test_is_tiling_pair_matches_a_counter_oracle(z6, z36):
    zero = (0, 0)
    half = Multiset.set_of(z6, [zero, (0, 1), (0, 2)])
    cases = [
        # |S| |T| = |G| but (0, 1) + (0, 1) = (0, 0) + (0, 2)
        (Multiset.set_of(z6, [zero, (0, 1)]), half, False),
        # sizes 2 and 2 on a group of order 6; sums distinct
        (Multiset.set_of(z6, [zero, (1, 0)]), Multiset.set_of(z6, [zero, (0, 1)]), False),
        # a multiset of mass 2 with a mass-3 complement of its support
        (Multiset(z6, {zero: 2}), half, False),
        (Multiset.set_of(z6, [zero, (1, 0)]), half, True),
    ]
    for S, T, tiles in cases:
        assert _tiles_by_counting(S, T) == tiles
        assert is_tiling_pair(S, T) == tiles
    # every pair of subsets of Z_2 x Z_3
    subsets = [
        Multiset.set_of(z6, c)
        for k in range(z6.order + 1)
        for c in itertools.combinations(z6.elements, k)
    ]
    verdicts = collections.Counter()
    for S in subsets:
        for T in subsets:
            verdicts[is_tiling_pair(S, T)] += 1
            assert is_tiling_pair(S, T) == _tiles_by_counting(S, T), (S, T)
    assert verdicts[True] and verdicts[False]
    # seeded pairs on Z_2^2 x Z_3^2 with |S| |T| = |G|: a random transversal
    # of a subgroup H against H (tiles) and against random sets (mostly not)
    rng = random.Random(11)
    for k in (2, 3, 4, 6, 9, 12, 18):
        for H in subgroups_of_order(z36, z36.order // k):
            cosets = {}
            for i, c in enumerate(coset_id_table(H)):
                cosets.setdefault(c, []).append(i)
            S = Multiset.of_indices(z36, [rng.choice(ids) for ids in cosets.values()])
            T = Multiset.set_of(z36, rng.sample(z36.elements, H.order))
            for other in (H.as_set(), T):
                assert is_tiling_pair(S, other) == _tiles_by_counting(S, other)
            assert is_tiling_pair(S, H.as_set())


def test_find_complement_examples(z6):
    G6 = Multiset.set_of(z6, z6.elements)
    wit = find_complement(G6)
    assert wit.t.support == ((0, 0),)

    S = Multiset.set_of(z6, [(0, 0), (1, 0)])
    wit = find_complement(S)
    assert wit.t.support == ((0, 0), (0, 1), (0, 2))
    assert (0, 0) in wit.t.mult
    assert is_tiling_pair(S, wit.t)

    S3 = Multiset.set_of(z6, [(0, 0), (0, 1), (1, 0)])
    assert find_complement(S3) is None

    # size not dividing the order: immediately no complement
    S4 = Multiset.set_of(z6, [(0, 0), (0, 1), (0, 2), (1, 0)])
    assert find_complement(S4) is None

    with pytest.raises(EmptyInput):
        find_complement(Multiset(z6, {}))


def test_find_complement_budget(z36):
    # a genuine tile: the search cannot finish in one node
    S = Multiset.set_of(z36, [(0, 0, b1, b2) for b1 in range(3) for b2 in range(3)])
    assert find_complement(S, budget=1) is UNDECIDED
    wit = find_complement(S)
    assert wit is not None and wit is not UNDECIDED


# --- the prime-power certificate ---------------------------------------------


@pytest.mark.parametrize("N, p", [(2, 2), (3, 3), (4, 2), (5, 5), (8, 2), (9, 3)])
def test_roots_of_unity_of_prime_power_order_vanish_only_in_multiples_of_p(N, p):
    # the step behind IndexTables.forced_mask, by brute force: some multiset
    # of t N-th roots of unity, N = p^a, sums to zero iff p divides t. The
    # sum of zeta^j over the multiset is zero iff its polynomial in zeta
    # reduces to 0 modulo Phi_N
    for t in range(1, 9):
        vanishes = any(
            not any(_reduce(N, [exps.count(j) for j in range(N)]))
            for exps in itertools.combinations_with_replacement(range(N), t)
        )
        assert vanishes == (t % p == 0), (N, t)


def _certified_sets_have_no_complement(G, k, cands) -> int:
    """Run an unbudgeted exact cover on each candidate k-set that the
    certificate refutes (its zero mask misses a bit of forced_mask(|G| / k)),
    assert that it finds no complement, and return how many there were."""
    tables = index_tables(G)
    zero_mask = char_table(G).zero_mask
    forced = tables.forced_mask(G.order // k)
    certified = [cand for cand in cands if forced & ~zero_mask(cand)[1]]
    for cand in certified:
        assert cover_complement(tables, cand, 10**18)[0] is None, (G, cand)
    return len(certified)


@pytest.mark.parametrize(
    "moduli",
    [(8,), (9,), (12,), (16,), (18,), (2, 6), (2, 8), (2, 2, 3), (3, 3), (4, 4), (2, 2, 2, 2)],
    ids=str,
)
def test_the_prime_power_certificate_refutes_no_tile(moduli):
    # every 0-containing set at every size dividing |G|. In a p-group every
    # size leaves |G| / k a power of p, so nothing is forced below k = |G|,
    # where the set is G and its mask is full: the certificate fires only
    # when two primes divide |G|
    G = make_group(moduli)
    certified = sum(
        _certified_sets_have_no_complement(
            G, k, [(0,) + rest for rest in itertools.combinations(range(1, G.order), k - 1)]
        )
        for k in range(1, G.order + 1)
        if G.order % k == 0
    )
    primes = {p for p in range(2, G.order + 1) if G.order % p == 0 and all(p % q for q in range(2, p))}
    assert (certified > 0) == (len(primes) > 1), certified


def test_the_prime_power_certificate_refutes_no_tile_of_z2_squared_z3_squared(z36):
    # every 0-containing set of sizes 2 to 6 (5 does not divide 36), and
    # 2 000 seeded draws at each of sizes 9, 12 and 18
    certified = {
        k: _certified_sets_have_no_complement(
            z36, k, [(0,) + rest for rest in itertools.combinations(range(1, 36), k - 1)]
        )
        for k in (2, 3, 4, 6)
    }
    rng = random.Random(33)
    for k in (9, 12, 18):
        draws = [(0,) + tuple(sorted(rng.sample(range(1, 36), k - 1))) for _ in range(2000)]
        certified[k] = _certified_sets_have_no_complement(z36, k, draws)
    # at sizes 2, 3 and 6 both primes divide |G| / k, so nothing is forced
    assert [k for k, n in certified.items() if n] == [4, 9, 12, 18], certified


def test_tiles_by_subgroup_examples(z6):
    G6 = Multiset.set_of(z6, z6.elements)
    assert tiles_by_subgroup(G6).elements == ((0, 0),)
    S = Multiset.set_of(z6, [(0, 0), (1, 1), (0, 2)])
    H = tiles_by_subgroup(S)
    assert H.elements == ((0, 0), (1, 0))
    assert is_tiling_pair(S, H.as_set())
    S3 = Multiset.set_of(z6, [(0, 0), (0, 1), (1, 0)])
    assert tiles_by_subgroup(S3) is None
    with pytest.raises(NotADivisor):
        tiles_by_subgroup(Multiset.set_of(z6, [(0, 0), (0, 1), (0, 2), (1, 0)]))


def test_enumerate_tiles_examples(z6):
    whole = list(enumerate_tiles(z6, 6))
    assert len(whole) == 1 and whole[0][0].mass == 6

    tiles2 = list(enumerate_tiles(z6, 2))
    assert [sorted(t.mult) for t, _ in tiles2] == [
        [(0, 0), (1, 0)],
        [(0, 0), (1, 1)],
        [(0, 0), (1, 2)],
    ]
    for t, wit in tiles2:
        assert is_tiling_pair(t, wit.t)
        assert (0, 0) in wit.t.mult

    assert list(enumerate_tiles(z6, 4)) == []


def test_enumerate_tiles_sampling_deterministic(z36):
    a = [
        sorted(t.mult)
        for t, _ in enumerate_tiles(z36, 6, seed=5, count=3000)
    ]
    b = [
        sorted(t.mult)
        for t, _ in enumerate_tiles(z36, 6, seed=5, count=3000)
    ]
    assert a == b and len(a) > 0


def test_enumerate_tiles_sample_yields_the_distinct_tiles_of_a_sampled_sweep(z36):
    # both draw from one candidate stream; the sweep keeps repeats, and the
    # oracle decides each draw on its own
    sizes = (4, 6, 9)
    plan = VerificationPlan(group=z36, sizes=sizes, seed=5, count_per_size=500)
    report = verify_fuglede(plan)
    for k in sizes:
        tally = report.per_size[k]
        assert not tally.undecided
        rng = random.Random(f"5:{k}")
        drawn = [
            tuple(z36.elements[i] for i in [0] + sorted(rng.sample(range(1, 36), k - 1)))
            for _ in range(500)
        ]
        tiling = [pts for pts in drawn if find_tiling_complement(Multiset.set_of(z36, pts))]
        tiles = [
            tuple(sorted(S.mult))
            for S, _ in enumerate_tiles(z36, k, seed=5, count=500)
        ]
        assert tiles == list(dict.fromkeys(tiling)) and tiles, k
        assert len(tiling) == tally.tiles


def test_enumerate_tiles_yields_exactly_the_sets_with_a_tiling_complement():
    # Z_8, Z_2 x Z_4 and Z_12 have exact-cover tiles; at every size, over
    # every 0-containing set and over 60 draws at seed 3, the tiles come in
    # lexicographic or first-draw order with the witness the set gets alone
    methods = set()
    for moduli in ([8], [2, 4], [12]):
        G = make_group(moduli)
        for k in range(1, G.order + 1):
            rng = random.Random(f"3:{k}")
            runs = (
                (None, None, itertools.combinations(range(1, G.order), k - 1)),
                (3, 60, [rng.sample(range(1, G.order), k - 1) for _ in range(60)]),
            )
            for seed, count, parts in runs:
                sets = dict.fromkeys(tuple(sorted(rest)) for rest in parts)
                expected = []
                for rest in sets:
                    S = Multiset.set_of(G, [G.elements[i] for i in (0,) + rest])
                    witness = find_tiling_complement(S)
                    if witness is not None:
                        expected.append((S, witness))
                        methods.add(witness.method)
                got = list(enumerate_tiles(G, k, seed=seed, count=count))
                assert got == expected, (moduli, k, seed)
    assert methods == set(ComplementMethod)


def test_enumerate_tiles_below_the_default_budget_decides_each_set():
    # at size 4 of Z_2^3 x Z_3 no class is forced (IndexTables.forced_mask(6)
    # is 0), and {0, e_4, e_3, e_2} shares its class word with
    # {0, e_4, e_3, e_2 + 2 e_4}, which it precedes; at budget 1 its cover
    # finds no tile while that of the other runs out, so a word's outcome
    # answers no other set below DEFAULT_BUDGET
    G = make_group([2, 2, 2, 3])
    first, later = (
        Multiset.set_of(G, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, last)])
        for last in (0, 2)
    )
    assert index_tables(G).forced_mask(6) == 0
    assert set_zero_mask(first) == set_zero_mask(later)
    assert find_complement(first, budget=1) is None
    assert find_complement(later, budget=1) is UNDECIDED
    with pytest.raises(InvalidArgument, match=re.escape(repr(list(later.support)))):
        list(enumerate_tiles(G, 4, budget=1))


def test_enumerate_tiles_over_the_candidate_cap_is_refused(z36, monkeypatch):
    import spectile.tiling

    # refused before a table is built or a candidate drawn
    monkeypatch.setattr(spectile.tiling, "index_tables", None)
    monkeypatch.setattr(spectile.tiling, "candidate_draws", None)
    monkeypatch.setattr(SeededDraws, "sums", None)
    # C(35, 17) 0-containing 18-sets
    with pytest.raises(InvalidArgument, match="4537567650 candidates"):
        next(enumerate_tiles(z36, 18))
    with pytest.raises(InvalidArgument, match="100000001 candidates"):
        next(enumerate_tiles(z36, 6, seed=1, count=10**8 + 1))


def test_enumerate_tiles_refuses_a_seedless_or_nonpositive_count(z6):
    # a count makes the enumeration sampled; it used to yield nothing at 0
    with pytest.raises(InvalidArgument, match="seed"):
        next(enumerate_tiles(z6, 2, count=5))
    for count in (0, -3):
        with pytest.raises(InvalidArgument, match="at least 1"):
            next(enumerate_tiles(z6, 2, seed=1, count=count))
    # a seed without a count scans every set
    assert len(list(enumerate_tiles(z6, 2, seed=1))) == 3


def _coset_transversal_oracle(G, cand):
    """The first subgroup of order |G| / |cand| whose cosets cand hits once
    each, with cosets keyed by their least element."""
    for H in subgroups_of_order(G, G.order // len(cand)):
        keys = {min(G.add(G.coords_of(i), h) for h in H.elements) for i in cand}
        if len(keys) == len(cand):
            return H
    return None


@pytest.mark.parametrize(
    "moduli, draws",
    [((8,), None), ((2, 6), None), ((2, 2, 3), None), ((4, 6), 1000), ((2, 2, 3, 3), 1000)],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_subgroup_transversal_on_the_zero_mask_matches_coset_collisions(moduli, draws):
    # every 0-containing set of each size dividing |G|, or seeded draws of it
    G = make_group(moduli)
    tables = index_tables(G)
    zero_mask = char_table(G).zero_mask
    rng = random.Random(7)
    found = {True: 0, False: 0}
    for k in (k for k in range(1, G.order + 1) if G.order % k == 0):
        if draws is None:
            cands = [(0,) + rest for rest in itertools.combinations(range(1, G.order), k - 1)]
        else:
            cands = [(0,) + tuple(sorted(rng.sample(range(1, G.order), k - 1))) for _ in range(draws)]
        for cand in cands:
            entry = subgroup_transversal(tables, zero_mask(cand)[1], k)
            H = None if entry is None else entry[0]
            assert H == _coset_transversal_oracle(G, cand), cand
            if H is not None:  # the entry holds H^perp minus 0 as a mask
                perp = annihilator(G, H.as_set()).elements
                assert entry[1] == sum(1 << G.index_of(x) for x in perp) ^ 1
            found[H is not None] += 1
    assert found[True] and found[False]


def _zero_masks(G, m):
    """R_m: the zero masks of every 0-containing m-set of G."""
    zero_mask = char_table(G).zero_mask
    return {zero_mask((0,) + rest)[1] for rest in itertools.combinations(range(1, G.order), m - 1)}


def _seeded_tiling_candidates(G, k, draws, rng):
    """draws random 0-containing k-sets, then a random 0-containing
    transversal of each subgroup of order |G|/k."""
    cands = [(0,) + tuple(sorted(rng.sample(range(1, G.order), k - 1))) for _ in range(draws)]
    for H in subgroups_of_order(G, G.order // k):
        cosets = {}
        for i, c in enumerate(coset_id_table(H)):
            cosets.setdefault(c, []).append(i)
        cands.append(tuple(sorted(0 if 0 in ids else rng.choice(ids) for ids in cosets.values())))
    return cands


@pytest.mark.parametrize(
    "moduli, sizes, draws, kinds",
    [
        ((8,), None, None, {None, "subgroup", "exact-cover"}),
        ((2, 6), None, None, {None, "subgroup"}),
        ((2, 2, 3, 3), (6,), None, {None, "subgroup"}),
        ((2, 2, 3, 3), (9, 12, 18), 300, {None, "subgroup"}),
    ],
    ids=["8", "2,6", "2,2,3,3-exhaustive-6", "2,2,3,3-seeded-9,12,18"],
)
def test_tiling_is_the_fourier_criterion_on_zero_masks(moduli, sizes, draws, kinds):
    # S tiles G iff some 0-containing |G|/|S|-set T has Z(S) | Z(T)
    # covering G minus 0; so the verdict of tiling_complement, and whether
    # its complement is a subgroup, are functions of (Z(S), |S|)
    G = make_group(moduli)
    tables = index_tables(G)
    zero_mask = char_table(G).zero_mask
    nonzero = (1 << G.order) - 2
    rng = random.Random(8)
    seen = set()
    for k in sizes or range(1, G.order + 1):
        if draws is None:
            cands = [(0,) + rest for rest in itertools.combinations(range(1, G.order), k - 1)]
        else:
            cands = _seeded_tiling_candidates(G, k, draws, rng)
        kind_by_mask = {}
        for cand in cands:
            zmask = zero_mask(cand)[1]
            out = tiling_complement(tables, k, zmask, lambda: cand, DEFAULT_BUDGET)
            assert out is not UNDECIDED
            kind = None if out is None else "subgroup" if isinstance(out, Subgroup) else "exact-cover"
            assert kind_by_mask.setdefault(zmask, kind) == kind, (k, cand)
        realisable = _zero_masks(G, G.order // k) if G.order % k == 0 else set()
        for zmask, kind in kind_by_mask.items():
            need = nonzero & ~zmask
            assert (kind is not None) == any(not need & ~z for z in realisable), (k, zmask)
        seen.update(kind_by_mask.values())
    assert seen == kinds


def test_fourier_complementarity(z36):
    # (S, T) tiles <=> sizes multiply to |G| and every nonzero character
    # dies on S or on T; check agreement of both implementations
    rng = random.Random(6)
    cases = 0
    for _ in range(60):
        k = rng.choice([2, 3, 4, 6])
        S = Multiset.set_of(
            z36, [z36.coords_of(i) for i in [0] + rng.sample(range(1, 36), k - 1)]
        )
        T = Multiset.set_of(
            z36,
            [z36.coords_of(i) for i in [0] + rng.sample(range(1, 36), 36 // k - 1)],
        )
        direct = is_tiling_pair(S, T)
        fourier = S.mass * T.mass == 36 and all(
            char_sum(z36, S, g).is_zero or char_sum(z36, T, g).is_zero
            for g in z36.elements
            if g != z36.identity
        )
        assert direct == fourier
        cases += 1
    # include genuine tiles so the equivalence is not vacuously checked
    S = Multiset.set_of(z36, [(0, 0, 0, 0), (1, 0, 0, 0)])
    for H in subgroups_of_order(z36, 18):
        T = H.as_set()
        direct = is_tiling_pair(S, T)
        fourier = all(
            char_sum(z36, S, g).is_zero or char_sum(z36, T, g).is_zero
            for g in z36.elements
            if g != z36.identity
        )
        assert direct == fourier
    assert cases == 60


def test_translation_invariance(z36):
    rng = random.Random(13)
    for _ in range(40):
        k = rng.choice([2, 3, 4, 6])
        S = Multiset.set_of(
            z36, [z36.coords_of(i) for i in rng.sample(range(36), k)]
        )
        T = Multiset.set_of(
            z36, [z36.coords_of(i) for i in rng.sample(range(36), 36 // k)]
        )
        base = is_tiling_pair(S, T)
        g = z36.coords_of(rng.randrange(36))
        h = z36.coords_of(rng.randrange(36))
        assert is_tiling_pair(S.translate(g), T.translate(h)) == base


def test_subgroup_transversals_are_spectral(z36):
    # a transversal A of a subgroup B tiles by B, and the dual-side
    # complement (the annihilator of B) is a spectrum for A
    rng = random.Random(21)
    subgroups = [
        B for m in (2, 3, 4, 6, 9, 12, 18) for B in subgroups_of_order(z36, m)
    ]
    assert subgroups
    for B in subgroups:
        P = annihilator(z36, B.as_set())
        assert P.order * B.order == 36
        for _ in range(5):
            # one random point from each B-coset
            reps = {}
            for x in z36.elements:
                key = min(z36.add(x, b) for b in B.elements)
                reps.setdefault(key, []).append(x)
            A = Multiset.set_of(z36, [rng.choice(pts) for pts in reps.values()])
            assert is_tiling_pair(A, B.as_set())
            assert is_spectral_pair(A, P.as_set())


# Both branches of random.Random.sample (the pool below its setsize rule, the
# set above it, with populations on either side of setsize 21 and, for k = 6,
# 85), for populations read from top bytes (below 256) and from whole outputs.
SAMPLE_SHAPES = [
    (n, k)
    for n in (1, 9, 21, 22, 25, 35, 85, 86, 224, 255, 256, 1224)
    for k in (0, 1, 5, 6, n)
    if k <= n
]
SAMPLE_SEEDS = (0, 1, 2, "20260809:9", "7:12")


def _drawn(draws, items, k, count, total, cap):
    """The sums of draws.sums(items, k, count, total, cap), block after block."""
    return [t for sums, _ in draws.sums(items, k, count, total, cap) for t in sums]


def _samples(draws, population, k, count, cap):
    """count samples of k from population as lists in draw order: summed onto
    () from 1-tuples, the items of a sample add up to the sample itself."""
    singles = [(item,) for item in population]
    return list(map(list, _drawn(draws, singles, k, count, (), cap)))


@pytest.mark.parametrize("block", [SeededDraws.BLOCK, 3])
def test_seeded_draws_are_those_of_random_sample(monkeypatch, block):
    # a 3-output block runs out inside one sample; sums draws three samples
    # of the same stream in blocks of 2, each as its sum onto -1 of distinct
    # powers of 2, and draws each again, out of order, while its block is held
    monkeypatch.setattr(SeededDraws, "BLOCK", block)
    for seed in SAMPLE_SEEDS:
        draws, rng = SeededDraws(seed), random.Random(seed)
        for n, k in SAMPLE_SHAPES:
            for population in (range(n), range(1, n + 1), [f"x{i}" for i in range(n)]):
                drawn = _samples(draws, population, k, 1, 1)
                assert drawn == [rng.sample(population, k)], (seed, n, k)
            bits = [1 << i for i in range(n)]
            sizes = []
            for sums, again in draws.sums(bits, k, 3, -1, 2):
                sizes.append(len(sums))
                expected = [rng.sample(bits, k) for _ in sums]
                assert sums == [sum(sample, -1) for sample in expected], (seed, n, k)
                for i in [*reversed(range(len(sums))), 0]:
                    assert again(i) == tuple(expected[i]), (seed, n, k, i)
            assert sizes == [2, 1]


@pytest.mark.parametrize("k", [5, 23, 400])
def test_seeded_draws_from_whole_outputs_are_those_of_random_sample(k):
    # 1 224 elements read whole 32-bit outputs, shifted inline: 5 and 23 of
    # them take the set branch, 400 the pool branch; 30 samples of 400 run
    # past one block of outputs, in one block of samples or in many, and
    # samples drawn again out of order may lie past a fetch
    population = range(1, 1225)
    assert _sample_plan(len(population), k)[0] is (k == 400)
    for seed in SAMPLE_SEEDS:
        rng = random.Random(seed)
        expected = [rng.sample(population, k) for _ in range(30)]
        assert _samples(SeededDraws(seed), population, k, 30, 30) == expected
        assert _samples(SeededDraws(seed), population, k, 30, 1) == expected
        blocks = SeededDraws(seed).sums(population, k, 30, 0, 7)
        for b, (sums, again) in enumerate(blocks):
            held = expected[7 * b : 7 * b + 7]
            assert sums == list(map(sum, held)), (seed, b)
            for i in (len(held) - 1, 0, len(held) // 2):
                assert again(i) == tuple(held[i]), (seed, b, i)


def test_seeded_draws_follow_the_probes_alternating_populations(monkeypatch):
    # case5_nonexistence_probe draws 6 of 9 leaves, then 5 of 25 points (the
    # set branch) or 7 of 49 (the pool branch) per leaf, as one set of
    # fibers each; a 7-output block runs out inside a set of fibers
    for block in (SeededDraws.BLOCK, 7):
        monkeypatch.setattr(SeededDraws, "BLOCK", block)
        for q, n in ((5, 25), (7, 49)):
            assert _sample_plan(n, q)[0] is (n == 49)
            # the entries are distinct powers of 2, so a total names its points
            rows = [[1 << (n * a + b) for b in range(n)] for a in range(9)]
            for seed in SAMPLE_SEEDS:
                rng = random.Random(seed)
                drawn = list(SeededDraws(seed).fibers(rows, 6, q, 40))
                expected = [_fibers_of_random_sample(rng, rows, 6, q) for _ in range(40)]
                assert drawn == expected, (block, seed, n)


def _fibers_of_random_sample(rng, rows, k, q):
    """(masks, total) of one set of fibers, from rng's sample calls."""
    masks, total = [0] * len(rows), 0
    for a in rng.sample(range(len(rows)), k):
        for b in rng.sample(range(len(rows[a])), q):
            masks[a] |= 1 << b
            total += rows[a][b]
    return masks, total


@pytest.mark.parametrize(
    "rows_n, k, points_n, q",
    [
        (25, 5, 9, 3),  # rows by the set branch
        (300, 2, 3, 3),  # rows from whole outputs
        (2, 1, 300, 6),  # points from whole outputs, set branch
        (3, 2, 256, 100),  # points from whole outputs, pool branch
        (4, 0, 5, 2),
        (4, 2, 5, 0),
    ],
)
def test_seeded_fibers_take_every_branch_of_random_sample(monkeypatch, rows_n, k, points_n, q):
    # a 3-output block runs out inside most sets
    monkeypatch.setattr(SeededDraws, "BLOCK", 3)
    rows = [[(a + 1) * 1000 + b for b in range(points_n)] for a in range(rows_n)]
    for seed in SAMPLE_SEEDS:
        rng = random.Random(seed)
        drawn = list(SeededDraws(seed).fibers(rows, k, q, 12))
        assert drawn == [_fibers_of_random_sample(rng, rows, k, q) for _ in range(12)]


def test_seeded_fibers_refuse_ragged_rows_and_oversized_samples():
    for rows, k, q in (([[1, 2], [3]], 1, 1), ([[1, 2]], 2, 1), ([[1, 2]], 1, 3)):
        with pytest.raises(ValueError):
            next(SeededDraws(0).fibers(rows, k, q, 1))


def test_seeded_draws_refuse_what_random_sample_refuses():
    for k in (-1, 4):
        with pytest.raises(ValueError):
            next(SeededDraws(0).sums(range(3), k, 1, 0, 1))
    # the bound of every draw plan, checked here without a list of 2**32 items
    with pytest.raises(ValueError, match="fewer than 2"):
        _sample_plan(2**32, 1)


def test_seeded_draws_refuse_a_population_shorter_than_its_len():
    # Broken's len is 30, but iterating it yields nothing: sums samples the
    # items it iterates, so a sample of 5 (the set branch of 30) or of 30
    # (the pool branch) is refused as oversized, not drawn forever
    class Broken(collections.abc.Sequence):
        def __len__(self):
            return 30

        def __getitem__(self, i):
            raise IndexError(i)

    for k in (5, 30):
        assert _sample_plan(30, k)[0] is (k == 30)
        with pytest.raises(ValueError, match="Sample larger than population"):
            next(SeededDraws(0).sums(Broken(), k, 1, 0, 1))


def test_candidate_draws_yield_nonzero_parts_in_draw_order():
    # the nonzero part of each sampled candidate, unsorted, as enumerate_tiles
    # draws it: sums of 1-tuples of range(1, |G|) onto (), in one block of
    # samples or in several
    singles = [(i,) for i in range(1, 36)]
    for k in (1, 2, 6, 9, 12, 18, 36):
        for s in (0, 5, 20260809):
            rng = random.Random(f"{s}:{k}")
            expected = [tuple(rng.sample(range(1, 36), k - 1)) for _ in range(200)]
            for cap in (200, 64):
                assert _drawn(candidate_draws(s, k), singles, k - 1, 200, (), cap) == expected


@pytest.mark.parametrize(
    "items",
    [
        char_table(make_group([2, 2, 3, 3])).cols,
        char_table(make_group([3, 3, 3, 3, 3])).cols,
        # 300 items: draws read whole 32-bit outputs, not their top bytes
        [f"item {i}" for i in range(300)],
    ],
    ids=["Z2^2xZ3^2-cols", "Z3^5-cols", "300-items"],
)
def test_candidate_sets_of_any_items_pick_the_elements_of_the_index_stream(items):
    # which elements a stream picks depends on len(items) alone, so the
    # sweep's stream of kernel columns is the index stream, item for item:
    # as their sums, and as the parts drawn again from them
    n = len(items)
    by_index_singles = [(i,) for i in range(1, n)]
    singles = [(item,) for item in items[1:]]
    for k in range(1, 19):
        for s in (0, 7, 20260809):
            by_index = _drawn(candidate_draws(s, k), by_index_singles, k - 1, 40, (), 40)
            parts = [tuple(items[i] for i in part) for part in by_index]
            assert _drawn(candidate_draws(s, k), singles, k - 1, 40, (), 40) == parts, (k, s)
            if isinstance(items[0], int):
                sums, again = next(candidate_draws(s, k).sums(items[1:], k - 1, 40, 7, 40))
                assert sums == [sum(part, 7) for part in parts], (k, s)
                assert [again(i) for i in reversed(range(40))] == parts[::-1], (k, s)
