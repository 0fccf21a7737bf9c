"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest -v -s tests/test_acceptance.py`. The heavy sweeps (criterion
7) are computed once in module-scoped fixtures and shared by criteria 8-9.
All randomness is seeded; all arithmetic is exact.
"""

import functools
import itertools
import math
import random
import time
from collections import Counter

import pytest

from spectile import (
    UNDECIDED,
    Multiset,
    SpectrumConstruction,
    VerificationPlan,
    annihilator,
    automorphism_index_perms,
    case5_nonexistence_probe,
    char_sum,
    cube_decompose,
    cyclotomic_poly,
    direction_trichotomy,
    enumerate_tiles,
    equidistributed,
    find_complement,
    find_spectrum,
    is_spectral_pair,
    is_tiling_pair,
    make_group,
    pq_shape,
    prop1_validate,
    subgroups_of_order,
    tile_to_spectrum,
    tiles_by_subgroup,
    verify_fuglede,
    zero_set,
)

SEED = 20260809


def _spectral(S: Multiset) -> bool:
    out = find_spectrum(S)
    assert out is not UNDECIDED, S
    return out is not None


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures (criterion 7 sweeps, reused by 8 and 9)


@pytest.fixture(scope="module")
def z36():
    return make_group([2, 2, 3, 3])


@pytest.fixture(scope="module")
def shape36(z36):
    return pq_shape(z36)


@pytest.fixture(scope="module")
def sweep7_exhaustive(z36):
    plan = VerificationPlan(group=z36, sizes=(2, 3, 4, 6))
    return verify_fuglede(plan)


@pytest.fixture(scope="module")
def sweep7_sampled(z36):
    plan = VerificationPlan(
        group=z36,
        sizes=(9, 12, 18),
        seed=SEED,
        count_per_size=100_000,
    )
    return verify_fuglede(plan)


# ---------------------------------------------------------------------------
# criterion 1: cyclotomic backbone


def _oracle_divide(num: list[int], den: list[int]) -> list[int]:
    # plain-list exact long division by a monic divisor; independent of the
    # package's division loop
    assert den[-1] == 1
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for k in range(dn + 1):
                num[i - dn + k] -= c * den[k]
    assert all(c == 0 for c in num[:dn]), "inexact division"
    return out


@functools.lru_cache(maxsize=None)
def _oracle_phi(n: int) -> tuple[int, ...]:
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _oracle_divide(poly, list(_oracle_phi(d)))
    return tuple(poly)


def _multiply(a: list[int], b: tuple[int, ...]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_criterion_01_cyclotomic_backbone():
    start = time.perf_counter()
    for n in range(1, 201):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _multiply(product, cyclotomic_poly(d))
        assert product == [-1] + [0] * (n - 1) + [1], n
        assert cyclotomic_poly(n) == _oracle_phi(n), n
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 5.0, f"phi products and division oracle, n<=200, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: cube rule, exhaustive multiplicities <= 2 on Z_2 x Z_3


def test_criterion_02_cube_rule():
    start = time.perf_counter()
    G = make_group([2, 3])
    order6 = [g for g in G.elements if g[0] != 0 and g[1] != 0]
    assert len(order6) == 2
    count_some = 0
    for mults in itertools.product((0, 1, 2), repeat=6):
        A = Multiset(G, {x: m for x, m in zip(G.elements, mults) if m})
        d = cube_decompose(A)
        vanishing = [char_sum(G, A, g).is_zero for g in order6]
        assert vanishing[0] == vanishing[1]  # direction closure
        assert (d is not None) == vanishing[0]
        if d is not None:
            count_some += 1
            assert d.reconstruct(G) == A
            assert min(d.row_coeffs) == 0
    elapsed = time.perf_counter() - start
    _report(
        2,
        elapsed < 5.0,
        f"3^6 = 729 multisets, decompose <=> order-6 vanishing, {count_some} decomposable, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: equidistribution <=> vanishing, all subgroups of Z_2^2 x Z_3^2


def test_criterion_03_equidistribution(z36):
    start = time.perf_counter()
    subgroups = [
        H
        for m in (1, 2, 3, 4, 6, 9, 12, 18, 36)
        for H in subgroups_of_order(z36, m)
    ]
    assert len(subgroups) == 30
    perps = {H: annihilator(z36, H.as_set()) for H in subgroups}
    rng = random.Random(SEED)
    nontrivial = 0
    for _ in range(1000):
        support = rng.sample(range(36), rng.randint(1, 36))
        A = Multiset(z36, {z36.coords_of(i): rng.randint(1, 3) for i in support})
        for H in subgroups:
            lhs = equidistributed(A, perps[H])
            rhs = all(
                char_sum(z36, A, h).is_zero
                for h in H.elements
                if h != z36.identity
            )
            assert lhs == rhs, (sorted(A.items()), H.elements)
            if lhs and H.order > 1:
                nontrivial += 1
    elapsed = time.perf_counter() - start
    _report(
        3,
        elapsed < 30.0,
        f"1000 multisets x 30 subgroups, {nontrivial} nontrivial equidistributions, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: zero-set closure under units and negation, orders 36 and 100


def test_criterion_04_zero_set_closures():
    start = time.perf_counter()
    total_nonempty = 0
    for moduli in ([6, 6], [10, 10]):
        G = make_group(moduli)
        n = G.order
        units = [k for k in range(1, n) if math.gcd(k, n) == 1]
        rng = random.Random(SEED + n)
        for _ in range(500):
            pts = rng.sample(range(n), rng.randint(1, n // 2))
            A = Multiset.set_of(G, [G.coords_of(i) for i in pts])
            zs = zero_set(G, A)
            if len(zs):
                total_nonempty += 1
            for g in zs.elements:
                assert G.neg(g) in zs.elements
                for k in units:
                    assert G.scale(k, g) in zs.elements
    elapsed = time.perf_counter() - start
    _report(
        4,
        elapsed < 60.0,
        f"1000 sets on orders 36 and 100, {total_nonempty} nonempty zero sets, zero closure violations, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: Z_6 sanity - spectral family equals tile family


def test_criterion_05_z6_families():
    start = time.perf_counter()
    G = make_group([2, 3])
    spectral_family = set()
    tile_family = set()
    examined = 0
    for r in range(0, 7):
        for combo in itertools.combinations(G.elements, r):
            examined += 1
            if not combo:
                continue  # the empty set is neither spectral nor a tile
            S = Multiset.set_of(G, combo)
            sp = _spectral(S)
            ti = G.order % S.mass == 0 and (
                tiles_by_subgroup(S) is not None or find_complement(S) is not None
            )
            assert sp == ti, combo
            if sp:
                spectral_family.add(frozenset(combo))
            if ti:
                tile_family.add(frozenset(combo))
    assert examined == 64
    assert spectral_family == tile_family
    elapsed = time.perf_counter() - start
    _report(
        5,
        elapsed < 1.0,
        f"all 64 subsets of Z_6, families equal ({len(tile_family)} members), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: exhaustive Fuglede equivalence on Z_2^2 x Z_3 (order 12)


def test_criterion_06_order12_exhaustive():
    start = time.perf_counter()
    G = make_group([2, 2, 3])
    plan = VerificationPlan(group=G, sizes=tuple(range(1, 13)))
    report = verify_fuglede(plan)
    examined = sum(t.examined for t in report.per_size.values())
    assert examined == 2**11
    assert report.mismatch_count == 0
    assert report.undecided_count == 0
    elapsed = time.perf_counter() - start
    _report(6, elapsed < 60.0, f"2^11 subsets of Z_2^2 x Z_3, zero mismatches, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 7: the main theorem at desk scale


def test_criterion_07_main_theorem(sweep7_exhaustive, sweep7_sampled):
    rep_ex, rep_s = sweep7_exhaustive, sweep7_sampled
    for k, expected in ((2, 35), (3, 595), (4, 6545), (6, 324632)):
        assert rep_ex.per_size[k].examined == expected
    assert rep_ex.mismatch_count == 0 and rep_ex.undecided_count == 0
    for k in (9, 12, 18):
        assert rep_s.per_size[k].examined == 100_000
    assert rep_s.mismatch_count == 0 and rep_s.undecided_count == 0
    elapsed = rep_ex.elapsed + rep_s.elapsed
    spectral_total = sum(t.spectral for t in rep_ex.per_size.values())
    tile_total = sum(t.tiles for t in rep_ex.per_size.values())
    assert spectral_total == tile_total
    _report(
        7,
        elapsed < 900.0,
        f"exhaustive sizes 2,3,4,6 (331807 sets) + 3x10^5 sampled sizes 9,12,18: "
        f"zero mismatches, zero undecided, single worker, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: every discovered tile admits a subgroup complement


def test_criterion_08_subgroup_tiling(sweep7_exhaustive, sweep7_sampled):
    # the sweeps' own subgroup-tiling blocks: a tile found only by exact
    # cover would be listed as a violation
    tiles = 0
    for report in (sweep7_exhaustive, sweep7_sampled):
        for k, block in report.subgroup_tiling_dict()["per_size"].items():
            assert not block["violations"] and not block["undecided"], k
            tiles += block["tiles"]
    assert tiles > 70_000
    _report(8, True, f"{tiles} tiles swept, all with subgroup complements")


# ---------------------------------------------------------------------------
# criterion 9: constructive tile -> spectrum witnesses with matching tags


EXPECTED_TAGS = {
    2: {SpectrumConstruction.PRIME_CYCLE},
    3: {SpectrumConstruction.PRIME_CYCLE},
    4: {SpectrumConstruction.SYLOW_DUAL},
    9: {SpectrumConstruction.SYLOW_DUAL},
    6: {SpectrumConstruction.COPRIME_CYCLE},
    12: {SpectrumConstruction.MIXED_SUBGROUP, SpectrumConstruction.SEARCH_FALLBACK},
    18: {SpectrumConstruction.MIXED_SUBGROUP, SpectrumConstruction.SEARCH_FALLBACK},
}


def test_criterion_09_constructive_spectra(z36, shape36, sweep7_exhaustive):
    # the tiles and complements of enumerate_tiles: every tile of sizes 2, 3,
    # 4 and 6, as many as the sweep counts, and the distinct tiles among
    # 10^5 draws of sizes 9, 12 and 18
    start = time.perf_counter()
    tags = Counter()
    rng = random.Random(SEED)
    reverified = 0
    runs = [(k, None, None) for k in (2, 3, 4, 6)] + [(k, SEED, 100_000) for k in (9, 12, 18)]
    for k, seed, count in runs:
        found = 0
        for S, wit in enumerate_tiles(z36, k, seed=seed, count=count):
            out = tile_to_spectrum(shape36, S, wit.t)
            assert out.tag in EXPECTED_TAGS[k], (k, out.tag, S.support)
            assert out.witness.lam.mass == k
            tags[(k, out.tag.value)] += 1
            found += 1
            if rng.random() < 0.02:
                assert is_spectral_pair(S, out.witness.lam)
                reverified += 1
        if count is None:
            assert found == sweep7_exhaustive.per_size[k].tiles, k
    fallback = sum(v for (k, tag), v in tags.items() if tag == "search-fallback")
    total = sum(tags.values())
    elapsed = time.perf_counter() - start
    _report(
        9,
        True,
        f"{total} tiles -> verified spectra; tags {dict(sorted(tags.items()))}; "
        f"fallback frequency {fallback}/{total}; {reverified} independently re-verified; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: conditional structure propositions


def test_criterion_10_structure_propositions(z36, shape36):
    start = time.perf_counter()
    # constancy law: exhaustive 0/1 multisets of mass <= 8 on Z_2 x Z_3^2
    G = make_group([2, 3, 3])
    elems = G.elements
    hyp_true = 0
    examined = 0
    for r in range(0, 9):
        for combo in itertools.combinations(range(18), r):
            examined += 1
            T = Multiset.set_of(G, [elems[i] for i in combo])
            hyp, concl = prop1_validate(T)
            if hyp:
                hyp_true += 1
                assert concl, combo
    assert examined == 106_762
    assert hyp_true > 0

    # coset-collision trichotomy never fails to produce an outcome
    rng = random.Random(SEED)
    for _ in range(10_000):
        k = rng.randint(6, 36)
        A = Multiset.set_of(
            z36, [z36.coords_of(i) for i in rng.sample(range(36), k)]
        )
        out = direction_trichotomy(shape36, A)
        assert (out.tile is None) != (out.witnesses is None)
        if out.witnesses is not None:
            assert len(out.witnesses) == 24
    elapsed = time.perf_counter() - start
    _report(
        10,
        elapsed < 600.0,
        f"constancy law: {examined} multisets, {hyp_true} hypothesis hits, no violations; "
        f"trichotomy: 10^4 samples, always decided; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 11: nonexistence probe in the hard size range on Z_3^2 x Z_5^2


def test_criterion_11_case5_probe():
    start = time.perf_counter()
    shape = pq_shape(make_group([3, 3, 5, 5]))
    report = case5_nonexistence_probe(shape, (30,), seed=SEED, count_per_size=10_000)
    assert report.examined == 10_000
    assert not report.spectral_hits
    assert not report.undecided  # zero budget exhaustions
    assert report.refuted == 10_000
    assert sum(report.obstructions.values()) == 10_000
    elapsed = time.perf_counter() - start
    _report(
        11,
        elapsed < 1800.0,
        f"10^4 structured size-30 candidates, none spectral, obstructions "
        f"{dict(sorted(report.obstructions.items()))}, aligned-leaf hits {report.aligned_leaf_hits}, "
        f"(sampled evidence, not exhaustive); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 12: invariance suites


def _random_set(G, rng, size):
    return Multiset.set_of(G, [G.coords_of(i) for i in rng.sample(range(G.order), size)])


def test_criterion_12_invariances(z36):
    start = time.perf_counter()
    rng = random.Random(SEED)
    n = z36.order

    # translation invariance of both pair relations
    for _ in range(1000):
        k = rng.choice([2, 3, 4, 6])
        S = _random_set(z36, rng, k)
        L = _random_set(z36, rng, k)
        g = z36.coords_of(rng.randrange(n))
        h = z36.coords_of(rng.randrange(n))
        base = is_spectral_pair(S, L)
        assert is_spectral_pair(S.translate(g), L) == base
        assert is_spectral_pair(S, L.translate(h)) == base
        T = _random_set(z36, rng, n // k)
        baset = is_tiling_pair(S, T)
        assert is_tiling_pair(S.translate(g), T.translate(h)) == baset

    # symmetry of the spectral-pair relation (random and genuine pairs)
    genuine = 0
    for _ in range(1000):
        k = rng.choice([2, 3, 4, 6])
        S = _random_set(z36, rng, k)
        L = _random_set(z36, rng, k)
        assert is_spectral_pair(S, L) == is_spectral_pair(L, S)
        wit = find_spectrum(S)
        if wit is not None and wit is not UNDECIDED:
            genuine += 1
            assert is_spectral_pair(S, wit.lam) and is_spectral_pair(wit.lam, S)
    assert genuine > 0

    # symmetry of the tiling-pair relation
    genuine_t = 0
    for _ in range(1000):
        k = rng.choice([2, 3, 4, 6])
        S = _random_set(z36, rng, k)
        T = _random_set(z36, rng, n // k)
        assert is_tiling_pair(S, T) == is_tiling_pair(T, S)
        H = tiles_by_subgroup(S)
        if H is not None:
            genuine_t += 1
            assert is_tiling_pair(S, H.as_set()) and is_tiling_pair(H.as_set(), S)
    assert genuine_t > 0

    # automorphism invariance of both verdicts
    perms = automorphism_index_perms(z36)
    for _ in range(1000):
        k = rng.choice([2, 3, 4, 6, 9])
        pts = rng.sample(range(n), k)
        S = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        perm = perms[rng.randrange(len(perms))]
        Sf = Multiset.set_of(z36, [z36.coords_of(perm[i]) for i in pts])
        assert _spectral(S) == _spectral(Sf)
        ts = z36.order % k == 0 and (
            tiles_by_subgroup(S) is not None or find_complement(S) is not None
        )
        tf = z36.order % k == 0 and (
            tiles_by_subgroup(Sf) is not None or find_complement(Sf) is not None
        )
        assert ts == tf
    elapsed = time.perf_counter() - start
    _report(
        12,
        elapsed < 60.0,
        f"4 suites x 1000 seeded cases (translation, both symmetries, automorphisms), "
        f"zero violations; {elapsed:.1f}s",
    )
