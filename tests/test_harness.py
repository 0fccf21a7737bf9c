import cmath
import contextlib
import dataclasses
import inspect
import itertools
import json
import math
import os
import random
import subprocess
import sys
from functools import lru_cache

import networkx as nx
import pytest

from spectile import (
    ComplementConstruction,
    ComplementMethod,
    InvalidArgument,
    Multiset,
    SpectrumConstruction,
    VerificationPlan,
    annihilator,
    automorphism_index_perms,
    case5_nonexistence_probe,
    enumerate_tiles,
    find_complement,
    find_spectrum,
    find_tiling_complement,
    is_spectral_pair,
    is_tiling_pair,
    make_group,
    pq_shape,
    probe_sizes,
    spectral_to_complement,
    subgroups_of_order,
    tile_to_spectrum,
    tiles_by_subgroup,
    verify_fuglede,
)
from spectile import cyclotomic, groups, harness, spectra, tiling
from spectile.cli import EXIT_USAGE, main
from spectile.cyclotomic import char_sum, char_table, set_zero_mask
from spectile.errors import DEFAULT_BUDGET, UNDECIDED, Overflow
from spectile.groups import (
    Subgroup,
    cyclic_subgroup,
    determined_directions,
    direction_rep,
    index_tables,
)
from spectile.harness import (
    _aligned_along_some_direction,
    _classify_obstruction,
    _direction_gap_ok,
    _leaf_elements,
    _sweep_chunk,
)
from spectile.spectra import TILE_UNSET, _memo, spectrum_search
from spectile.structure import (
    aligned_leaves,
    assumption_a_holds,
    leaf_constancy,
    leaf_decomposition,
    leaf_tables,
)
from spectile.tiling import SeededDraws, cover_complement, tiling_complement


def _fresh_memo(m, memo=None):
    """Put one fresh memo function (memo, else a cached empty dict per group
    and size) in place of _memo wherever the spectral decision reads it: in
    harness, for the sweeps and the probe, and in spectra, for find_spectrum."""
    memo = memo or lru_cache(maxsize=None)(lambda G, k: {})
    m.setattr(harness, "_memo", memo)
    m.setattr(spectra, "_memo", memo)
    return memo


@contextlib.contextmanager
def _own_memo():
    """find_spectrum on a fresh memo of its own, so a per-set oracle reads
    nothing that a sweep or an earlier test stored."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectra, "_memo", lru_cache(maxsize=None)(lambda G, k: {}))
        yield


def test_verify_fuglede_z6(z6):
    plan = VerificationPlan(group=z6, sizes=tuple(range(1, 7)))
    report = verify_fuglede(plan)
    assert report.ok
    # 0-containing subsets of each size: C(5, k-1)
    assert [report.per_size[k].examined for k in range(1, 7)] == [1, 5, 10, 10, 5, 1]
    for tally in report.per_size.values():
        assert tally.spectral == tally.tiles
        assert tally.examined == tally.both_yes + tally.both_no


def test_verify_fuglede_tally_invariant(z12):
    plan = VerificationPlan(group=z12, sizes=tuple(range(1, 13)))
    report = verify_fuglede(plan)
    assert report.ok
    assert sum(t.examined for t in report.per_size.values()) == 2**11
    # spectral sets only occur at sizes dividing the group order
    for k, tally in report.per_size.items():
        if 12 % k:
            assert tally.spectral == 0 and tally.tiles == 0
    d = report.to_dict()
    assert d["ok"] is True and d["group"] == [2, 2, 3]


def test_parallel_sweep_matches_serial(z12):
    sizes = (2, 3, 4, 6)
    serial = verify_fuglede(VerificationPlan(group=z12, sizes=sizes))
    parallel = verify_fuglede(VerificationPlan(group=z12, sizes=sizes, workers=2))
    ds, dp = serial.to_dict(), parallel.to_dict()
    ds.pop("elapsed_seconds")
    dp.pop("elapsed_seconds")
    assert ds == dp


def test_parallel_sweep_starts_at_most_one_process_per_cpu(monkeypatch):
    # a recording in-process pool stands in for the fork context, so no
    # process starts: 10^5 workers on two CPUs ask for a pool of 2; on four
    # CPUs a sampled plan asks for one worker per size, as a size is one
    # job, so a 3-size plan asks for 3 and a 1-size plan for none
    import multiprocessing

    asked = []

    class RecordingPool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        imap = staticmethod(map)

    class Context:
        Pool = RecordingPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    G = make_group([2, 6])
    sizes = tuple(range(1, 13))
    serial = verify_fuglede(VerificationPlan(group=G, sizes=sizes)).to_dict()
    pooled = verify_fuglede(VerificationPlan(group=G, sizes=sizes, workers=10**5)).to_dict()
    assert asked == [2]
    serial.pop("elapsed_seconds")
    pooled.pop("elapsed_seconds")
    assert pooled == serial
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    for sizes, expected in (((2, 3, 4), [3]), ((6,), [])):
        asked.clear()
        plan = dict(group=G, sizes=sizes, seed=2, count_per_size=50)
        serial = verify_fuglede(VerificationPlan(**plan)).to_dict()
        pooled = verify_fuglede(VerificationPlan(**plan, workers=10**5)).to_dict()
        assert asked == expected, sizes
        serial.pop("elapsed_seconds")
        pooled.pop("elapsed_seconds")
        assert pooled == serial


def test_a_streamed_pool_takes_its_largest_size_first(monkeypatch):
    # a recording in-process pool stands in for the fork context: a sampled
    # plan submits its sizes by k, largest first; the report is the serial one
    import multiprocessing

    submitted = []

    class RecordingPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, jobs):
            jobs = list(jobs)
            submitted.append([k for _, k, _ in jobs])
            return map(func, jobs)

    class Context:
        Pool = RecordingPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    G = make_group([2, 2, 3])
    plan = dict(group=G, sizes=(2, 6, 3), seed=2, count_per_size=50)
    serial = verify_fuglede(VerificationPlan(**plan)).to_dict()
    pooled = verify_fuglede(VerificationPlan(**plan, workers=2)).to_dict()
    assert submitted == [[6, 3, 2]]
    serial.pop("elapsed_seconds")
    pooled.pop("elapsed_seconds")
    assert pooled == serial


def test_a_pooled_sampled_sweep_draws_nothing_in_the_parent(z36, monkeypatch):
    # each size is one job, which a forked worker draws and sweeps itself:
    # the parent process calls neither draw loop, and the report is the
    # serial one
    plan = dict(group=z36, sizes=(2, 6, 9), seed=11, count_per_size=300)
    serial = verify_fuglede(VerificationPlan(**plan)).to_dict()
    parent = os.getpid()
    for name in ("sums", "fibers"):
        draw = getattr(SeededDraws, name)

        def guarded(self, *args, draw=draw, name=name):
            if os.getpid() == parent:
                raise AssertionError(f"SeededDraws.{name} ran in the parent process")
            return draw(self, *args)

        monkeypatch.setattr(SeededDraws, name, guarded)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)  # a real pool of two
    pooled = verify_fuglede(VerificationPlan(**plan, workers=2)).to_dict()
    serial.pop("elapsed_seconds")
    pooled.pop("elapsed_seconds")
    assert pooled == serial


def _per_set_tally(G, k, budget, parts=None, tile_sets=None):
    """The tally of the 0-containing k-sets of G, one set at a time through
    the public per-set API: find_spectrum, on a memo of its own (_own_memo),
    and find_tiling_complement with an exact-cover complement counted as a
    violation. parts, when given, are the sets' nonzero element indices in
    any order (sampled draws); else every 0-containing k-set is tallied, in
    lexicographic order.
    tile_sets, when given, gets the points of each tile, in tally order."""
    out = dict(
        size=k, examined=0, spectral=0, tiles=0, both_yes=0, both_no=0, mismatches=[],
        undecided=[], tiles_any=0, violations=[], tile_undecided=[],
    )
    if parts is None:
        parts = itertools.combinations(range(1, G.order), k - 1)
    for rest in parts:
        pts = tuple(map(G.elements.__getitem__, [0] + sorted(rest)))
        S = Multiset.set_of(G, pts)
        with _own_memo():
            spectrum = find_spectrum(S, budget)
        complement = find_tiling_complement(S, budget)
        sp = spectrum if spectrum is UNDECIDED else spectrum is not None
        ti = complement if complement is UNDECIDED else complement is not None
        coords = [list(x) for x in pts]
        out["examined"] += 1
        if ti is UNDECIDED:
            out["tile_undecided"].append({"set": coords})
        elif ti:
            out["tiles_any"] += 1
            if complement.method is ComplementMethod.EXACT_COVER:
                out["violations"].append({"set": coords})
        if sp is UNDECIDED or ti is UNDECIDED:
            out["undecided"].append(
                {
                    "set": coords,
                    "spectral": "undecided" if sp is UNDECIDED else sp,
                    "tile": "undecided" if ti is UNDECIDED else ti,
                }
            )
            continue
        out["spectral"] += sp
        out["tiles"] += ti
        if ti and tile_sets is not None:
            tile_sets.append(pts)
        if sp == ti:
            out["both_yes" if sp else "both_no"] += 1
        else:
            out["mismatches"].append(
                {
                    "set": coords,
                    "spectral": sp,
                    "tile": ti,
                    "spectrum": [list(x) for x in spectrum.lam.support] if sp else None,
                    "complement": [list(x) for x in complement.t.support] if ti else None,
                }
            )
    return out


# Z_8, Z_2 x Z_4 and Z_12 have exact-cover tiles (violations); the kernels of
# Z_5 and Z_7 have phi = 4 and 6 limbs per class, so more than one fold. At
# budget 2 on Z_12 the cover decides some sets of a zero mask and not others,
# so a budget below DEFAULT_BUDGET must decide each set's tiling on its own.
# A pooled case sweeps with two workers and jobs of stems that hold 7
# candidates on average, so each size is split into jobs whose tallies merge
# in job order. listed names a tally list that some size must fill, or
# "tile_sets": enumerate_tiles, the tile lister, yields the per-set tally's
# distinct tiles in tally order.
@pytest.mark.parametrize(
    "moduli, budget, pooled, listed",
    [
        ((8,), DEFAULT_BUDGET, False, "violations"),
        ((2, 4), DEFAULT_BUDGET, False, "violations"),
        ((12,), DEFAULT_BUDGET, False, "violations"),
        ((5,), DEFAULT_BUDGET, False, None),
        ((7,), DEFAULT_BUDGET, False, None),
        ((12,), 3, False, "undecided"),
        ((12,), 2, False, "undecided"),
        ((8,), DEFAULT_BUDGET, True, "violations"),
        ((12,), 2, True, "undecided"),
        ((2, 4), DEFAULT_BUDGET, True, "tile_sets"),
    ],
    ids=str,
)
def test_sweep_tally_matches_a_per_set_tally(moduli, budget, pooled, listed, monkeypatch):
    # every size, from k = 1 (an empty stem) to k = |G|; every count and
    # every listed set, in enumeration order
    G = make_group(moduli)
    sizes = tuple(range(1, G.order + 1))
    monkeypatch.setattr(harness, "_CHUNK", 7)
    report = verify_fuglede(
        VerificationPlan(group=G, sizes=sizes, budget=budget, workers=2 if pooled else 1)
    )
    for k in sizes:
        tile_sets = []
        expected = _per_set_tally(G, k, budget, tile_sets=tile_sets)
        assert dataclasses.asdict(report.per_size[k]) == expected, k
        if listed == "tile_sets":
            _assert_enumerate_tiles_lists(G, k, tile_sets, budget)
    _assert_listed(report, listed)


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
@pytest.mark.parametrize("cap", ["zero", "single columns"])
def test_stem_walks_under_the_table_cap_match_a_per_set_tally(cap, pooled, monkeypatch):
    # a cap of 0 walks every size one candidate per stem; a cap that holds
    # the single-column tables but not the pair tables walks single-column
    # batches; either way every tally is the per-set one, serial and with
    # two workers and 7-candidate jobs
    G = make_group((12,))
    table = char_table(G)
    n = G.order
    singles = 4 * table.key_bytes * math.comb(n, 2)
    monkeypatch.setattr(cyclotomic, "MAX_BATCH_TABLE_BYTES", 0 if cap == "zero" else singles)
    monkeypatch.setattr(harness, "_CHUNK", 7)
    sizes = tuple(range(1, n + 1))
    deepest = 0 if cap == "zero" else 1
    assert [table.batch_depth(k) for k in sizes] == [min(deepest, k - 1) for k in sizes]
    report = verify_fuglede(VerificationPlan(group=G, sizes=sizes, workers=2 if pooled else 1))
    for k in sizes:
        assert dataclasses.asdict(report.per_size[k]) == _per_set_tally(G, k, DEFAULT_BUDGET), k
    assert report.violation_count > 0


@pytest.mark.parametrize("cap", ["zero", "single columns"])
def test_enumerate_tiles_under_the_table_cap_lists_the_sets_that_tile(cap, monkeypatch):
    # enumerate_tiles walks the sweep's stems: one candidate per stem under
    # a cap of 0, single-column batches under a cap that holds only those
    # tables; at every size it lists exactly the sets that
    # find_tiling_complement tiles, in lexicographic order
    G = make_group((12,))
    table = char_table(G)
    n = G.order
    singles = 4 * table.key_bytes * math.comb(n, 2)
    monkeypatch.setattr(cyclotomic, "MAX_BATCH_TABLE_BYTES", 0 if cap == "zero" else singles)
    sizes = tuple(range(1, n + 1))
    deepest = 0 if cap == "zero" else 1
    assert [table.batch_depth(k) for k in sizes] == [min(deepest, k - 1) for k in sizes]
    listed = 0
    for k in sizes:
        tiles = []
        for rest in itertools.combinations(range(1, n), k - 1):
            S = Multiset.of_indices(G, (0,) + rest)
            if find_tiling_complement(S) is not None:
                tiles.append(S.support)
        got = [S.support for S, _ in enumerate_tiles(G, k)]
        assert got == tiles == sorted(tiles), k
        listed += len(got)
    assert listed > 0


def test_exhaustive_sweeps_walk_heads_without_streaming_candidates(monkeypatch):
    # an exhaustive plan walks stems and never streams its candidates,
    # canonicalized or not, serial or pooled; with jobs of 3 candidates on
    # average every size from 4 to 10 of Z_12 splits into several jobs. A
    # sampled plan still streams its draws.
    G = make_group((12,))
    sizes = tuple(range(1, G.order + 1))
    streamed = []
    exhaustive = [True]  # cleared once the exhaustive plans have run
    produce = harness._draw_blocks

    def guarded(G, k, *args):
        if exhaustive:
            raise AssertionError(f"size {k} of an exhaustive plan streamed its candidates")
        streamed.append(k)
        return produce(G, k, *args)

    monkeypatch.setattr(harness, "_draw_blocks", guarded)
    monkeypatch.setattr(harness, "_CHUNK", 3)
    for workers in (1, 2):
        report = verify_fuglede(VerificationPlan(group=G, sizes=sizes, workers=workers))
        for k in sizes:
            assert dataclasses.asdict(report.per_size[k]) == _per_set_tally(G, k, DEFAULT_BUDGET), k
        canonical = dict(group=make_group((2, 2, 3)), sizes=(3, 4), canonicalize=True)
        assert verify_fuglede(VerificationPlan(**canonical, workers=workers)).ok
    exhaustive.clear()
    verify_fuglede(VerificationPlan(group=G, sizes=(3,), seed=1, count_per_size=5))
    assert streamed == [3]


def _assert_enumerate_tiles_lists(G, k, tile_sets, budget, seed=None, count=None):
    got = [tuple(sorted(S.mult)) for S, _ in enumerate_tiles(G, k, seed, count, budget)]
    assert got == list(dict.fromkeys(tile_sets)), k


def _assert_listed(report, listed):
    if listed == "tile_sets":
        assert any(t.tiles for t in report.per_size.values())
    else:
        assert listed is None or any(getattr(t, listed) for t in report.per_size.values())


# The sizes of a sampled per-set case, every size unless listed: Z_2^2 x Z_3^2
# draws sizes 2 to 6 by random.sample's set branch, Z_3^5 has spectral
# non-tiles at size 6, and Z_2^2 x Z_3 x Z_5^2, of 300 elements, draws from
# whole 32-bit outputs.
_SAMPLED_SIZES = {(2, 2, 3, 3): range(2, 7), (3,) * 5: (6,), (2, 2, 3, 5, 5): range(2, 5)}


@pytest.mark.parametrize(
    "moduli, budget, pooled, listed",
    [
        ((12,), 2, False, "undecided"),
        ((2, 4), DEFAULT_BUDGET, True, "violations"),
        ((2, 4), DEFAULT_BUDGET, True, "tile_sets"),
        ((2, 2, 3, 3), DEFAULT_BUDGET, False, None),
        ((3,) * 5, DEFAULT_BUDGET, False, "mismatches"),
        ((2, 2, 3, 5, 5), DEFAULT_BUDGET, False, None),
    ],
    ids=str,
)
def test_sampled_sweep_tally_matches_a_per_set_tally(moduli, budget, pooled, listed, monkeypatch):
    # the sweep sorts a draw into its set only off the settled-word path; the
    # per-set tally sorts every draw of random.Random(f"{seed}:{k}").sample,
    # which arrive unsorted and repeat; a pooled case sweeps each size's 60
    # draws as one job in a forked worker. Each plan runs twice, with
    # fetches of 3 and of 7 outputs, and every sweep decodes its draws 7 at
    # a time, so a fetch lands inside a sample and a block spans fetches;
    # the second run starts from the memo the first left
    G = make_group(moduli)
    sizes = tuple(_SAMPLED_SIZES.get(moduli, range(1, G.order + 1)))
    monkeypatch.setattr(tiling, "_DECODE_BLOCK", 7)
    plan = VerificationPlan(
        group=G, sizes=sizes, seed=3, count_per_size=60,
        budget=budget, workers=2 if pooled else 1,
    )
    reports = []
    for block in (3, 7):
        monkeypatch.setattr(SeededDraws, "BLOCK", block)
        reports.append(verify_fuglede(plan))
    for k in sizes:
        rng = random.Random(f"3:{k}")
        draws = [rng.sample(range(1, G.order), k - 1) for _ in range(60)]
        tile_sets = []
        expected = _per_set_tally(G, k, budget, draws, tile_sets)
        for report in reports:
            assert dataclasses.asdict(report.per_size[k]) == expected, k
        if listed == "tile_sets":
            _assert_enumerate_tiles_lists(G, k, tile_sets, budget, 3, 60)
    for report in reports:
        _assert_listed(report, listed)


def test_sampled_sweep_with_repeated_draws_is_the_same_in_two_workers(z36):
    # 5000 draws of size 2 from 35 sets repeat; each size is one job, so one
    # worker draws all 5000, in two 4096-draw decode blocks, on one memo
    plan = dict(group=z36, sizes=(2, 3, 6), seed=11, count_per_size=5000)
    serial = verify_fuglede(VerificationPlan(**plan))
    parallel = verify_fuglede(VerificationPlan(**plan, workers=2))
    assert serial.per_size[2].examined == 5000
    assert serial.per_size == parallel.per_size


def test_verify_fuglede_sample_deterministic(z36):
    plan = VerificationPlan(
        group=z36, sizes=(6,), seed=123, count_per_size=500
    )
    r1 = verify_fuglede(plan)
    r2 = verify_fuglede(plan)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert d1 == d2
    assert r1.per_size[6].examined == 500


def test_plan_rejects_repeated_sizes(z6):
    with pytest.raises(InvalidArgument, match="repeat"):
        VerificationPlan(group=z6, sizes=(2, 2))
    with pytest.raises(InvalidArgument, match="repeat"):
        VerificationPlan(group=z6, sizes=(2, 3, 2), seed=1, count_per_size=5)


def test_plan_refuses_exhaustive_plans_over_the_cap(z36):
    # every size of Z_2^2 x Z_3^2: sum_k C(35, k - 1) = 2^35 candidates
    for canonicalize in (False, True):
        with pytest.raises(InvalidArgument, match="34359738368 candidates"):
            VerificationPlan(group=z36, sizes=range(1, 37), canonicalize=canonicalize)
    # C(35, 9) + C(35, 10) = 254186856
    with pytest.raises(InvalidArgument, match="254186856 candidates"):
        VerificationPlan(group=z36, sizes=(10, 11))
    # C(35, 8) = 23535820 fits, and so do small samples of every size
    VerificationPlan(group=z36, sizes=(9,))
    VerificationPlan(group=z36, sizes=range(1, 37), seed=1, count_per_size=10)


def test_sampled_plans_and_probes_over_the_cap_are_refused(z36, monkeypatch):
    import spectile.harness as harness

    # refused before a table is built or a candidate drawn
    monkeypatch.setattr(harness, "index_tables", None)
    monkeypatch.setattr(harness, "candidate_draws", None)
    monkeypatch.setattr(SeededDraws, "sums", None)
    monkeypatch.setattr(SeededDraws, "fibers", None)
    with pytest.raises(InvalidArgument, match="3000000000000 candidates"):
        VerificationPlan(group=z36, sizes=(9, 12, 18), seed=1, count_per_size=10**12)
    VerificationPlan(group=z36, sizes=(9, 12, 18), seed=1, count_per_size=10**7)
    shape = pq_shape(make_group([3, 3, 5, 5]))
    with pytest.raises(InvalidArgument, match="1000000000000 candidates"):
        case5_nonexistence_probe(shape, (30,), seed=0, count_per_size=10**12)
    with pytest.raises(InvalidArgument, match="100000001 candidates"):
        case5_nonexistence_probe(shape, (30,), seed=0, count_per_size=10**8 + 1)


def test_verification_plan_validation(z6):
    with pytest.raises(InvalidArgument):
        VerificationPlan(group=z6, sizes=())
    with pytest.raises(InvalidArgument):
        VerificationPlan(group=z6, sizes=(7,))
    # a count makes a sampled plan, which needs a seed and a count of at least 1
    with pytest.raises(InvalidArgument, match="seed"):
        VerificationPlan(group=z6, sizes=(2,), count_per_size=5)
    for count in (0, -1):
        with pytest.raises(InvalidArgument, match="at least 1"):
            VerificationPlan(group=z6, sizes=(2,), seed=1, count_per_size=count)
    # a seed without a count leaves the plan exhaustive
    plan = VerificationPlan(group=z6, sizes=(2,), seed=1)
    assert plan.mode == "exhaustive"
    assert VerificationPlan(group=z6, sizes=(2,), seed=1, count_per_size=1).mode == "sample"
    # canonicalize filters the exhaustive enumeration; a sample ignored it
    with pytest.raises(InvalidArgument, match="canonicalize"):
        VerificationPlan(
            group=z6, sizes=(2,), seed=1, count_per_size=5, canonicalize=True
        )


def test_plan_refuses_non_integral_sizes(z6):
    # not truncated: 2.9 is not size 2
    for sizes in ((2.9,), (2, "3")):
        with pytest.raises(InvalidArgument, match="integers"):
            VerificationPlan(group=z6, sizes=sizes)
    assert VerificationPlan(group=z6, sizes=range(1, 3)).sizes == (1, 2)


def _zero_set_float(moduli, elems):
    """Nonzero g whose character sum over elems vanishes, in floating point.

    On the groups below the exponent is 2, 3 or 6, so a nonzero character
    sum is a nonzero Eisenstein integer, of absolute value at least 1: the
    rounding cannot turn a verdict.
    """
    M = 6
    zero = (0,) * len(moduli)
    out = set()
    for g in itertools.product(*(range(n) for n in moduli)):
        total = sum(
            cmath.exp(2j * cmath.pi * sum(M // n * a * b for a, b, n in zip(x, g, moduli)) / M)
            for x in elems
        )
        if g != zero and abs(total) < 0.5:
            out.add(g)
    return out


def _spectral_by_networkx(moduli, elems):
    """Some clique of len(elems) - 1 vertices in the Cayley graph of the zero set.

    With 0 added, such a clique is a spectrum: every nonzero difference of
    its points lies in the zero set.
    """
    zs = _zero_set_float(moduli, elems)
    graph = nx.Graph()
    graph.add_nodes_from(zs)
    graph.add_edges_from(
        (a, b)
        for a, b in itertools.combinations(zs, 2)
        if tuple((x - y) % n for x, y, n in zip(a, b, moduli)) in zs
    )
    clique = max((len(c) for c in nx.find_cliques(graph)), default=0)
    return clique >= len(elems) - 1


@pytest.mark.parametrize("moduli, samples", [((2, 3), None), ((2, 2, 3), None), ((2, 2, 3, 3), 150)])
def test_spectral_decisions_agree_with_networkx_cliques(moduli, samples):
    G = make_group(moduli)
    n = G.order
    if samples is None:
        cands = [
            (0,) + rest for k in range(1, n + 1) for rest in itertools.combinations(range(1, n), k - 1)
        ]
    else:
        rng = random.Random(2)
        cands = [
            tuple(sorted([0] + rng.sample(range(1, n), rng.choice([2, 3, 4, 5, 6, 9, 12, 18]) - 1)))
            for _ in range(samples)
        ]
    kernel = char_table(G)
    verdicts = set()
    for cand in cands:
        elems = [G.coords_of(i) for i in cand]
        expected = _spectral_by_networkx(moduli, elems)
        verdicts.add(expected)
        assert (find_spectrum(Multiset.set_of(G, elems)) is not None) == expected, cand
        # cand as a block of one candidate: its memo key and nonzero part
        key = kernel.key(sum(map(kernel.cols.__getitem__, cand)), len(cand))
        block = ([key], [cand[1:]].__getitem__)
        tally = _sweep_chunk(G, len(cand), [block], DEFAULT_BUDGET)
        assert tally.spectral == expected, cand
    assert verdicts == {True, False}


def _tiles_brute_force(moduli, S):
    """True iff S + T partitions G for some 0-containing T with |S| |T| = |G|."""
    elems = list(itertools.product(*(range(n) for n in moduli)))
    n = len(elems)
    if n % len(S):
        return False
    for rest in itertools.combinations(elems[1:], n // len(S) - 1):
        sums = {
            tuple((a + b) % m for a, b, m in zip(s, t, moduli))
            for s in S
            for t in (elems[0],) + rest
        }
        if len(sums) == n:
            return True
    return False


# Z_8 has tiles that are no subgroup transversal ({0, 2}, tiled by
# {0, 1, 4, 5}); on Z_2 x Z_6 every tile is one
@pytest.mark.parametrize(
    "moduli, methods_seen",
    [((8,), {None, "subgroup", "exact-cover"}), ((2, 6), {None, "subgroup"})],
)
def test_tiling_complement_agrees_with_brute_force(moduli, methods_seen):
    G = make_group(moduli)
    tables = index_tables(G)
    zero_mask = char_table(G).zero_mask
    methods = set()
    for k in range(1, G.order + 1):
        if G.order % k:
            continue
        for rest in itertools.combinations(range(1, G.order), k - 1):
            cand = (0,) + rest
            elems = [G.coords_of(i) for i in cand]
            expected = _tiles_brute_force(moduli, elems)
            cover, _nodes = cover_complement(tables, cand, DEFAULT_BUDGET)
            assert (cover is not None) == expected, cand
            assert (find_complement(Multiset.set_of(G, elems)) is not None) == expected, cand
            out = tiling_complement(tables, cand, zero_mask(cand)[1], DEFAULT_BUDGET)
            assert (out is not None) == expected, cand
            if out is None:
                methods.add(None)
            else:
                methods.add("subgroup" if isinstance(out, Subgroup) else "exact-cover")
    assert methods == methods_seen


def test_subgroup_tiling_counts_tiles_whose_spectral_verdict_is_undecided():
    # a budget of 2 nodes leaves the cover undecided at size 2 and the
    # clique search undecided on tiles at size 4
    z8 = make_group([8])
    report = verify_fuglede(VerificationPlan(group=z8, sizes=(2, 4), budget=2))
    view = report.subgroup_tiling_dict()
    assert view["ok"] is False and not report.subgroup_tiling_ok
    assert {e["tile"] for e in report.per_size[2].undecided} == {"undecided"}
    assert {e["tile"] for e in report.per_size[4].undecided} == {True}
    for k, tally in report.per_size.items():
        undecided = tally.undecided
        sub = view["per_size"][str(k)]
        assert sub["undecided"] == [
            {"set": e["set"]} for e in undecided if e["tile"] == "undecided"
        ]
        assert sub["tiles"] == tally.tiles + sum(e["tile"] is True for e in undecided)


def test_budget_bound_report_does_not_depend_on_earlier_sweeps(capsys, subprocess_env):
    argv = ["verify", "--group", "8", "--sizes", "2,4", "--budget", "2"]
    fresh = subprocess.run(
        [sys.executable, "-m", "spectile.cli", *argv],
        capture_output=True, text=True, env=subprocess_env, timeout=120,
    )
    verify_fuglede(VerificationPlan(group=make_group([8]), sizes=(2, 4)))
    rc = main(argv)
    after = json.loads(capsys.readouterr().out)
    expected = json.loads(fresh.stdout)
    for doc in (after, expected):
        doc["fuglede"].pop("elapsed_seconds")
        doc["subgroup_tiling"].pop("elapsed_seconds")
    assert expected["fuglede"]["per_size"]["4"]["undecided"]
    assert after == expected
    assert rc == fresh.returncode


def _plan_doc(report) -> dict:
    """Both blocks of a report, less elapsed_seconds."""
    doc = {"fuglede": report.to_dict(), "subgroup_tiling": report.subgroup_tiling_dict()}
    for block in doc.values():
        block.pop("elapsed_seconds")
    return doc


# a fresh process that prints _plan_doc of the plan given as JSON
_FRESH_PLAN = f"""
import json, sys
from spectile import VerificationPlan, make_group, verify_fuglede
{inspect.getsource(_plan_doc)}
kwargs = json.loads(sys.argv[1])
plan = VerificationPlan(group=make_group(kwargs.pop("moduli")), **kwargs)
print(json.dumps(_plan_doc(verify_fuglede(plan))))
"""


def test_sampled_reports_do_not_depend_on_the_memo_earlier_sweeps_left(subprocess_env):
    # one process sweeps a default-budget plan, which settles most class
    # words (bare bools in _memo), then the same plan at budget 3, where a
    # settled word holds no node count, then the first plan again; each
    # report is that of a fresh process
    base = {"moduli": [2, 2, 3, 3], "sizes": [2, 4, 6, 9], "seed": 11, "count_per_size": 300}
    plans = [base, {**base, "budget": 3}, base]
    docs = []
    for kwargs in plans:
        kw = dict(kwargs)
        plan = VerificationPlan(group=make_group(kw.pop("moduli")), **kw)
        doc = _plan_doc(verify_fuglede(plan))
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_PLAN, json.dumps(kwargs)],
            capture_output=True, text=True, env=subprocess_env, timeout=120, check=True,
        )
        assert doc == json.loads(fresh.stdout), kwargs
        docs.append(doc)
        if kwargs is base:
            memo = _memo(make_group([2, 2, 3, 3]), 4)
            assert True in memo.values() and False in memo.values()
    low = docs[1]["fuglede"]
    assert low["per_size"]["6"]["undecided"] and low["per_size"]["2"]["both_yes"]
    assert docs[0]["fuglede"]["per_size"]["4"]["tiles"]


def test_reports_after_per_set_calls_are_those_of_a_fresh_process(subprocess_env, monkeypatch):
    # per-set find_spectrum calls on a fresh memo, on the sets the sampled
    # plan draws and on every 0-containing set of Z_2^2 x Z_3, at budget 3
    # and then at the default budget, store unsettled entries with node
    # counts and no tile outcome; each sweep over that memo reports what a
    # fresh process reports
    memo = _fresh_memo(monkeypatch)
    sampled = {"moduli": [2, 2, 3, 3], "sizes": [2, 4, 6, 9], "seed": 11, "count_per_size": 300}
    walked = {"moduli": [2, 2, 3], "sizes": list(range(1, 13))}
    for budget in (3, DEFAULT_BUDGET):
        G = make_group(sampled["moduli"])
        for k in sampled["sizes"]:
            rng = random.Random(f"11:{k}")
            for _ in range(sampled["count_per_size"]):
                find_spectrum(Multiset.of_indices(G, [0] + rng.sample(range(1, G.order), k - 1)), budget)
        G = make_group(walked["moduli"])
        for k in walked["sizes"]:
            for rest in itertools.combinations(range(1, G.order), k - 1):
                find_spectrum(Multiset.of_indices(G, (0,) + rest), budget)
    entries = [entry for k in sampled["sizes"] for entry in memo(make_group([2, 2, 3, 3]), k).values()]
    assert entries and all(entry[2] == TILE_UNSET for entry in entries)
    for kwargs in (sampled, {**sampled, "budget": 3}, walked, {**walked, "budget": 3}, sampled):
        kw = dict(kwargs)
        plan = VerificationPlan(group=make_group(kw.pop("moduli")), **kw)
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_PLAN, json.dumps(kwargs)],
            capture_output=True, text=True, env=subprocess_env, timeout=120, check=True,
        )
        assert _plan_doc(verify_fuglede(plan)) == json.loads(fresh.stdout), kwargs


def test_a_word_whose_verdicts_disagree_is_never_settled(monkeypatch):
    # a clique search that calls every set non-spectral makes each tile of
    # Z_8 a mismatch, exact-cover tiles included; a second sweep over the
    # same memo lists every one of them again
    monkeypatch.setattr(spectra, "spectrum_search", lambda *args: (None, 1))
    _fresh_memo(monkeypatch)
    plan = VerificationPlan(group=make_group([8]), sizes=(2, 4))
    first, second = (verify_fuglede(plan) for _ in range(2))
    for report in (first, second):
        for tally in report.per_size.values():
            assert len(tally.mismatches) == tally.tiles > 0
        assert report.violation_count > 0
    assert _plan_doc(first) == _plan_doc(second)


def test_mismatch_spectra_are_those_find_spectrum_gives(monkeypatch):
    # Z_3^5 has spectral sets of size 6 that do not tile: each mismatch
    # lists the spectrum of the search that decided its word, from a fresh
    # memo or a warm one, at the default budget and below it, and that is
    # the spectrum find_spectrum finds for the set, which is the spectrum a
    # search on the set's own zero mask finds
    _fresh_memo(monkeypatch)
    G = make_group([3, 3, 3, 3, 3])
    for budget in (DEFAULT_BUDGET, DEFAULT_BUDGET, 1000):
        plan = VerificationPlan(group=G, sizes=(6,), seed=1, count_per_size=100, budget=budget)
        mismatches = verify_fuglede(plan).per_size[6].mismatches
        assert mismatches
        for entry in mismatches:
            assert entry["spectral"] and not entry["tile"] and entry["complement"] is None
            S = Multiset.set_of(G, list(map(tuple, entry["set"])))
            lam = find_spectrum(S, budget).lam
            assert entry["spectrum"] == [list(x) for x in lam.support]
            own = spectrum_search(index_tables(G), set_zero_mask(S), 6, budget)[0]
            assert lam.indices == tuple(sorted(own))


@pytest.mark.parametrize("moduli, sizes", [([2, 2, 3, 3], (2, 3, 4, 6, 9)), ([8], (2, 4))])
def test_sampled_tallies_equal_per_set_verdicts_on_the_same_draws(moduli, sizes):
    # the oracle decides each drawn set on its own with the public per-set
    # searches, find_spectrum on a memo of its own; Z_8 has exact-cover
    # tiles (violations)
    G = make_group(moduli)
    seed, count = 4, 80
    report = verify_fuglede(
        VerificationPlan(group=G, sizes=sizes, seed=seed, count_per_size=count)
    )
    for k in sizes:
        rng = random.Random(f"{seed}:{k}")
        expected = dict.fromkeys(("spectral", "tiles", "both_yes", "both_no"), 0)
        violations = []
        for _ in range(count):
            S = Multiset.of_indices(G, [0] + rng.sample(range(1, G.order), k - 1))
            with _own_memo():
                spectral = find_spectrum(S)
            complement = find_tiling_complement(S)
            assert spectral is not UNDECIDED and complement is not UNDECIDED
            sp, ti = spectral is not None, complement is not None
            expected["spectral"] += sp
            expected["tiles"] += ti
            expected["both_yes"] += sp and ti
            expected["both_no"] += not sp and not ti
            if ti and complement.method is ComplementMethod.EXACT_COVER:
                violations.append({"set": [list(x) for x in sorted(S.mult)]})
        tally = report.per_size[k]
        assert tally.examined == count and not tally.mismatches and not tally.undecided
        got = {key: getattr(tally, key) for key in expected}
        assert got == expected, k
        assert tally.tiles_any == expected["tiles"]
        assert tally.violations == violations
    assert report.violation_count > 0 or moduli != [8]


def test_default_budget_report_does_not_depend_on_earlier_sweeps(capsys, subprocess_env):
    # after a default-budget sweep every key is settled (a bare bool) or
    # holds its tile outcome; a key with an exact-cover tile still lists
    # each of its sets as a violation
    argv = ["verify", "--group", "8", "--sizes", "2,4", "--exhaustive"]
    fresh = subprocess.run(
        [sys.executable, "-m", "spectile.cli", *argv],
        capture_output=True, text=True, env=subprocess_env, timeout=120,
    )
    z8 = make_group([8])
    verify_fuglede(VerificationPlan(group=z8, sizes=(2, 4)))
    entries = [entry for k in (2, 4) for entry in _memo(z8, k).values()]
    assert all(entry.__class__ is bool or entry[2] != TILE_UNSET for entry in entries)
    assert {entry.__class__ for entry in entries} == {bool, tuple}
    zero_mask = char_table(z8).zero_mask
    assert zero_mask((0, 2)) == zero_mask((0, 6))
    rc = main(argv)
    after = json.loads(capsys.readouterr().out)
    expected = json.loads(fresh.stdout)
    for doc in (after, expected):
        doc["fuglede"].pop("elapsed_seconds")
        doc["subgroup_tiling"].pop("elapsed_seconds")
    assert after == expected
    assert rc == fresh.returncode
    sub = after["subgroup_tiling"]["per_size"]
    assert [e["set"] for e in sub["2"]["violations"]] == [[[0], [2]], [[0], [4]], [[0], [6]]]
    assert [e["set"] for e in sub["4"]["violations"]] == [
        [[0], [1], [4], [5]],
        [[0], [2], [4], [6]],
        [[0], [3], [4], [7]],
    ]


# --- orbit settling -----------------------------------------------------------


def _settle_words_alone(monkeypatch):
    """Give every group no class generators, so each word settles alone."""
    monkeypatch.setattr(groups.IndexTables, "class_generators", property(lambda self: ()))


def _count_tile_decisions(monkeypatch) -> list:
    """Record each slow-path tile decision (_tile_outcome) of this process."""
    calls = []
    tile_outcome = harness._tile_outcome

    def counted(*args):
        calls.append(args)
        return tile_outcome(*args)

    monkeypatch.setattr(harness, "_tile_outcome", counted)
    return calls


# A settled word's orbit under the class generators is settled with it; a
# sweep whose groups have no generators settles each word alone. Reports
# must not tell the two apart, serial or with two workers and jobs of 7
# candidates on average; the budget-2 plan settles nothing either way, and
# lists sets whose cover (size 3) or clique search (size 4) runs out.
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "moduli, sizes, budget",
    [
        ((2, 2, 3, 3), (2, 3, 4, 6), DEFAULT_BUDGET),
        ((2, 2, 2, 2), None, DEFAULT_BUDGET),
        ((3, 3), None, DEFAULT_BUDGET),
        ((2, 2, 3, 3), (1, 2, 3, 4), 2),
    ],
    ids=str,
)
def test_orbit_settling_leaves_every_report_as_it_was(moduli, sizes, budget, workers, monkeypatch):
    G = make_group(moduli)
    sizes = sizes or tuple(range(1, G.order + 1))
    plan = VerificationPlan(group=G, sizes=sizes, budget=budget, workers=workers)
    monkeypatch.setattr(harness, "_CHUNK", 7 if G.order <= 16 else harness._CHUNK)
    docs = []
    for alone in (False, True):
        with monkeypatch.context() as m:
            _fresh_memo(m)
            if alone:
                _settle_words_alone(m)
            docs.append(_plan_doc(verify_fuglede(plan)))
    assert docs[0] == docs[1]
    assert docs[0]["fuglede"]["ok"] is (budget == DEFAULT_BUDGET)


@pytest.mark.parametrize(
    "moduli, sizes",
    [((2, 2, 3, 3), (2, 3, 4, 6)), ((2, 2, 2, 2), None), ((3, 3, 3), (2, 3, 4, 5, 6))],
    ids=str,
)
def test_a_walk_leaves_the_memo_that_settling_words_alone_leaves(moduli, sizes, monkeypatch):
    # every image of a realised word is realised (an automorphism maps a
    # 0-containing k-set to one), so the walk meets every key it settled
    # ahead, and would have settled each to the same bool; it decides fewer
    # words itself
    G = make_group(moduli)
    sizes = sizes or tuple(range(1, G.order + 1))
    memos, decided = [], []
    for alone in (False, True):
        with monkeypatch.context() as m:
            _fresh_memo(m)
            if alone:
                _settle_words_alone(m)
            calls = _count_tile_decisions(m)
            verify_fuglede(VerificationPlan(group=G, sizes=sizes))
            memos.append({k: dict(harness._memo(G, k)) for k in sizes})
            decided.append(len(calls))
    assert memos[0] == memos[1]
    assert decided[0] < decided[1] == sum(map(len, memos[1].values()))


def test_no_exact_cover_runs_on_a_set_the_certificate_refutes(monkeypatch):
    # the cold seed-5 plan of 1 000 draws at sizes 9, 12 and 18 on
    # Z_2^2 x Z_3^2: 562 of its new words reached the exact cover before
    # the prime-power certificate (IndexTables.forced_mask) came first
    _fresh_memo(monkeypatch)
    covered = []

    def recorded(tables, cand, budget):
        covered.append(tuple(cand))
        return cover_complement(tables, cand, budget)

    monkeypatch.setattr(tiling, "cover_complement", recorded)
    G = make_group([2, 2, 3, 3])
    report = verify_fuglede(VerificationPlan(group=G, sizes=(9, 12, 18), seed=5, count_per_size=1000))
    assert report.ok
    tables, zero_mask = index_tables(G), char_table(G).zero_mask
    assert not [cand for cand in covered if tables.forced_mask(36 // len(cand)) & ~zero_mask(cand)[1]]
    assert len(covered) == 30


def test_orbit_settling_walks_match_a_per_set_tally(z12, monkeypatch):
    # Z_2^2 x Z_3 at every size, one set at a time through the public
    # per-set searches, find_spectrum on a memo of its own; the walk decides
    # fewer words than it stores
    _fresh_memo(monkeypatch)
    calls = _count_tile_decisions(monkeypatch)
    sizes = tuple(range(1, z12.order + 1))
    report = verify_fuglede(VerificationPlan(group=z12, sizes=sizes))
    for k in sizes:
        assert dataclasses.asdict(report.per_size[k]) == _per_set_tally(z12, k, DEFAULT_BUDGET), k
    assert len(calls) < sum(len(harness._memo(z12, k)) for k in sizes)


def test_sampled_and_canonicalized_plans_settle_no_orbit(monkeypatch):
    # a sampled plan meets few images of its words, so it settles words
    # alone; so does a canonicalized plan, and a walk of size 1 never builds
    # the generators either. A walk of a larger size builds them at its
    # first settled word.
    def unbuilt(self):
        raise AssertionError("class generators built")

    _fresh_memo(monkeypatch)
    monkeypatch.setattr(groups.IndexTables, "class_generators", property(unbuilt))
    z36 = make_group([2, 2, 3, 3])
    sampled = verify_fuglede(
        VerificationPlan(group=z36, sizes=(2, 3, 4, 6, 9), seed=3, count_per_size=300)
    )
    assert sampled.ok
    assert True in harness._memo(z36, 4).values()
    z12 = make_group([2, 2, 3])
    assert verify_fuglede(VerificationPlan(group=z12, sizes=(2, 3, 4), canonicalize=True)).ok
    assert verify_fuglede(VerificationPlan(group=make_group([3, 3]), sizes=(1,))).ok
    with pytest.raises(AssertionError, match="class generators built"):
        verify_fuglede(VerificationPlan(group=make_group([3, 3]), sizes=(3,)))


def test_orbits_settle_only_under_the_clique_node_bound(monkeypatch):
    # Z_3^3 at size 6 has an orbit of 234 words with 12 zeros whose clique
    # searches take 0 nodes on some words and 8 on others. With the default
    # budget patched below 8, settling a 0-node word's orbit would count
    # the 8-node words as settled, where a fresh search leaves them
    # undecided; the node bound, sum_{i=1}^{5} C(12, i) = 1 585, keeps that
    # orbit from settling unless the budget is at least 1 585
    bound = sum(math.comb(12, i) for i in range(1, 6))
    assert bound == 1585
    G = make_group([3, 3, 3])
    decided = {}
    for budget in (7, bound - 1, bound):
        for module in (harness, spectra):
            monkeypatch.setattr(module, "DEFAULT_BUDGET", budget)
        assert harness._clique_nodes_bounded(12, 6) is (budget == bound)
        assert not harness._clique_nodes_bounded(13, 6)
        plan = VerificationPlan(group=G, sizes=(6,), budget=budget)
        docs = []
        for alone in (False, True):
            with monkeypatch.context() as m:
                _fresh_memo(m)
                if alone:
                    _settle_words_alone(m)
                calls = _count_tile_decisions(m)
                docs.append(_plan_doc(verify_fuglede(plan)))
                decided[budget, alone] = len(calls)
        assert docs[0] == docs[1], budget
        assert bool(docs[0]["fuglede"]["per_size"]["6"]["undecided"]) is (budget == 7)
    # the orbit settles at the bound and not one node below it
    assert decided[bound, False] < decided[bound - 1, False] < decided[bound - 1, True]
    for module in (harness, spectra):
        monkeypatch.setattr(module, "DEFAULT_BUDGET", 7)
    monkeypatch.setattr(harness, "_clique_nodes_bounded", lambda zeros, k: True)
    _fresh_memo(monkeypatch)
    unguarded = verify_fuglede(VerificationPlan(group=G, sizes=(6,), budget=7))
    assert not unguarded.per_size[6].undecided


def test_canonicalize_reduces_and_agrees(z12):
    full = verify_fuglede(VerificationPlan(group=z12, sizes=(3, 4)))
    canon = verify_fuglede(
        VerificationPlan(group=z12, sizes=(3, 4), canonicalize=True)
    )
    assert canon.ok and full.ok
    for k in (3, 4):
        assert canon.per_size[k].examined < full.per_size[k].examined
        # presence of spectral sets / tiles is preserved classwise
        assert (canon.per_size[k].spectral > 0) == (full.per_size[k].spectral > 0)


def test_canonicalize_keeps_one_set_per_orbit(z12, z36, monkeypatch):
    # the acceptance tallies on Z_2^2 x Z_3^2; on Z_2^2 x Z_3 every size
    # tallies as the per-set API does on the least image of each 0-containing
    # set under Aut(G), in lexicographic order; and two workers with jobs of
    # 3 candidates on average give the serial report, listed entries included
    canon = verify_fuglede(VerificationPlan(group=z36, sizes=(2, 3, 4), canonicalize=True))
    got = [(t.examined, t.spectral, t.tiles) for t in canon.per_size.values()]
    assert got == [(3, 2, 2), (14, 8, 8), (65, 11, 11)]
    perms = automorphism_index_perms(z12)
    sizes = tuple(range(1, z12.order + 1))
    report = verify_fuglede(VerificationPlan(group=z12, sizes=sizes, canonicalize=True))
    for k in sizes:
        least = {
            min(tuple(sorted(map(a.__getitem__, rest))) for a in perms)
            for rest in itertools.combinations(range(1, z12.order), k - 1)
        }
        expected = _per_set_tally(z12, k, DEFAULT_BUDGET, parts=sorted(least))
        assert dataclasses.asdict(report.per_size[k]) == expected, k
    monkeypatch.setattr(harness, "_CHUNK", 3)
    for budget in (DEFAULT_BUDGET, 3):
        plan = dict(group=z12, sizes=sizes, canonicalize=True, budget=budget)
        serial = verify_fuglede(VerificationPlan(**plan)).to_dict()
        pooled = verify_fuglede(VerificationPlan(**plan, workers=2)).to_dict()
        serial.pop("elapsed_seconds")
        pooled.pop("elapsed_seconds")
        assert pooled == serial, budget
        listed = sum(len(t["undecided"]) for t in serial["per_size"].values())
        assert listed == (0 if budget == DEFAULT_BUDGET else 11), budget


def test_verify_subgroup_tiling_z12(z12):
    plan = VerificationPlan(group=z12, sizes=tuple(range(1, 13)))
    report = verify_fuglede(plan)
    view = report.subgroup_tiling_dict()
    assert report.subgroup_tiling_ok and view["ok"] is True
    assert view["per_size"]["5"]["tiles"] == 0  # 5 does not divide 12
    assert view["per_size"]["5"]["examined"] > 0
    assert view["per_size"]["2"]["tiles"] > 0


def test_automorphism_perms(z36, z6):
    perms = automorphism_index_perms(z36)
    assert len(perms) == 288  # |GL2(F2)| * |GL2(F3)| = 6 * 48
    assert len(automorphism_index_perms(z6)) == 2
    # prime moduli only, each prime at most twice; the refusal names the fix
    for moduli in ([2, 6], [4], [2, 2, 2]):
        with pytest.raises(InvalidArgument, match="Z_2 x Z_6 as 2,2,3"):
            automorphism_index_perms(make_group(moduli))
    add = z36.add
    idx = z36.index_of
    elems = z36.elements
    rng = random.Random(1)
    for perm in rng.sample(perms, 10):
        assert perm[0] == 0
        for _ in range(20):
            i, j = rng.randrange(36), rng.randrange(36)
            assert perm[idx(add(elems[i], elems[j]))] == idx(
                add(elems[perm[i]], elems[perm[j]])
            )
    with pytest.raises(InvalidArgument):
        automorphism_index_perms(make_group([4, 3]))


def test_automorphism_tables_over_the_cap_are_refused(monkeypatch, capsys):
    # |Aut(Z_5^2 x Z_7^2)| |G| = 967 680 * 1 225; mapping a generator is
    # patched to fail, so a refusal that came after it would fail, not allocate
    def unreachable(G, A, x):
        raise AssertionError("automorphism generator mapped")

    monkeypatch.setattr(groups, "automorphism_image", unreachable)
    with pytest.raises(Overflow, match="967680"):
        automorphism_index_perms(make_group([5, 5, 7, 7]))
    argv = ["verify", "--group", "5,5,7,7", "--sizes", "2", "--exhaustive", "--canonicalize"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Overflow" in json.loads(captured.err)["error"]
    # admitted: 288 * 36 on Z_2^2 x Z_3^2 and 2 880 * 100 on Z_2^2 x Z_5^2;
    # with no generators the closure is the identity alone
    monkeypatch.setattr(groups, "automorphism_generators", lambda G: ())
    for moduli in ((2, 2, 3, 3), (2, 2, 5, 5)):
        G = make_group(moduli)
        assert automorphism_index_perms.__wrapped__(G) == (tuple(range(G.order)),)


def test_automorphism_invariance_small(z36):
    perms = automorphism_index_perms(z36)
    rng = random.Random(14)
    for _ in range(30):
        k = rng.choice([2, 3, 4, 6])
        pts = rng.sample(range(36), k)
        S = Multiset.set_of(z36, [z36.coords_of(i) for i in pts])
        perm = perms[rng.randrange(len(perms))]
        Sfi = Multiset.set_of(z36, [z36.coords_of(perm[i]) for i in pts])
        spectra = [find_spectrum(S), find_spectrum(Sfi)]
        assert UNDECIDED not in spectra
        assert (spectra[0] is None) == (spectra[1] is None)
        ts = tiles_by_subgroup(S) is not None or find_complement(S) is not None
        tfi = tiles_by_subgroup(Sfi) is not None or find_complement(Sfi) is not None
        assert ts == tfi


# --- constructive witnesses -------------------------------------------------


def test_tile_to_spectrum_prime(z36, shape36):
    S = Multiset.set_of(z36, [(0, 0, 0, 0), (1, 0, 0, 0)])
    H = tiles_by_subgroup(S)
    out = tile_to_spectrum(shape36, S, H.as_set())
    assert out.tag == SpectrumConstruction.PRIME_CYCLE
    assert out.witness.lam.mass == 2
    assert is_spectral_pair(S, out.witness.lam)


def test_tile_to_spectrum_sylow(z36, shape36):
    S = Multiset.set_of(z36, [(a, b, 0, 0) for a in range(2) for b in range(2)])
    T = Multiset.set_of(z36, [(0, 0, b1, b2) for b1 in range(3) for b2 in range(3)])
    out = tile_to_spectrum(shape36, S, T)
    assert out.tag == SpectrumConstruction.SYLOW_DUAL
    assert out.witness.lam.support == tuple(
        sorted((a, b, 0, 0) for a in range(2) for b in range(2))
    )


def test_tile_to_spectrum_coprime(z36, shape36):
    S = Multiset.set_of(
        z36, [shape36.join((a, 0), (b, 0)) for a in range(2) for b in range(3)]
    )
    H = tiles_by_subgroup(S)
    out = tile_to_spectrum(shape36, S, H.as_set())
    assert out.tag == SpectrumConstruction.COPRIME_CYCLE
    lam = out.witness.lam
    assert lam.mass == 6 and is_spectral_pair(S, lam)


def test_tile_to_spectrum_mixed(z36, shape36):
    # size p^2 q = 12: the 2-torsion times an order-3 line
    S = Multiset.set_of(
        z36,
        [shape36.join((a1, a2), (b, 0)) for a1 in range(2) for a2 in range(2) for b in range(3)],
    )
    H = tiles_by_subgroup(S)
    assert H is not None
    out = tile_to_spectrum(shape36, S, H.as_set())
    assert out.tag == SpectrumConstruction.MIXED_SUBGROUP
    assert is_spectral_pair(S, out.witness.lam)


def test_tile_to_spectrum_rejects_non_tiles(z36, shape36):
    from spectile import NotATilingPair

    S = Multiset.set_of(z36, [(0, 0, 0, 0), (1, 0, 0, 0)])
    bad_T = Multiset.set_of(
        z36, [z36.coords_of(i) for i in list(range(17)) + [18]]
    )
    assert not is_tiling_pair(S, bad_T)
    with pytest.raises(NotATilingPair):
        tile_to_spectrum(shape36, S, bad_T)


def _spectrum_tags(p, q):
    """The spectrum tag of every size of a tile of Z_p^2 x Z_q^2."""
    SC = SpectrumConstruction
    return {
        1: SC.SEARCH_FALLBACK,
        p: SC.PRIME_CYCLE,
        q: SC.PRIME_CYCLE,
        p * p: SC.SYLOW_DUAL,
        q * q: SC.SYLOW_DUAL,
        p * q: SC.COPRIME_CYCLE,
        p * p * q: SC.MIXED_SUBGROUP,
        p * q * q: SC.MIXED_SUBGROUP,
        p * p * q * q: SC.SEARCH_FALLBACK,
    }


@pytest.mark.parametrize("moduli", [(2, 2, 3, 3), (2, 2, 5, 5), (3, 3, 5, 5)], ids=str)
def test_constructed_spectrum_is_the_annihilator_of_the_constructed_complement(moduli):
    # S is a transversal of H exactly when H^perp is a spectrum of S, so the
    # constructed spectrum of one seeded transversal of each subgroup is a
    # subgroup, and the complement constructed from it is its annihilator
    # under the coordinate pairing, which shares nothing with the zero mask
    G = make_group(moduli)
    shape = pq_shape(G)
    rng = random.Random(f"annihilator:{moduli}")
    for k, tag in _spectrum_tags(shape.p, shape.q).items():
        for H in subgroups_of_order(G, G.order // k):
            cosets = {frozenset(G.add(x, h) for h in H.elements) for x in G.elements}
            S = Multiset.set_of(G, [rng.choice(sorted(c)) for c in cosets])
            lam = tile_to_spectrum(shape, S, H.as_set())
            assert lam.tag == tag, (k, H)
            Lam = lam.witness.lam
            assert Lam.mass == k
            Subgroup(G, Lam.support)  # closed under addition
            assert is_spectral_pair(S, Lam)
            t = spectral_to_complement(shape, S, Lam).witness.t
            assert t == annihilator(G, Lam).as_set(), (k, H)


def test_spectral_to_complement_cases(z36, shape36):
    # |S| = 1: complement is the whole group
    S1 = Multiset.set_of(z36, [(1, 1, 2, 2)])
    out = spectral_to_complement(shape36, S1, Multiset.set_of(z36, [(0, 0, 0, 0)]))
    assert out.tag == ComplementConstruction.WHOLE_GROUP
    assert out.witness.t.mass == 36

    # |S| = 4 = p^2: the q-square torsion subgroup
    S4 = Multiset.set_of(z36, [(a, b, 0, 0) for a in range(2) for b in range(2)])
    lam4 = find_spectrum(S4).lam
    out4 = spectral_to_complement(shape36, S4, lam4)
    assert out4.tag == ComplementConstruction.SYLOW_SUBGROUP
    assert out4.witness.t.mass == 9

    # |S| = 6 = pq: an order-pq subgroup complement
    S6 = Multiset.set_of(
        z36, [shape36.join((a, a), (b, b)) for a in range(2) for b in range(3)]
    )
    wit6 = find_spectrum(S6)
    assert wit6 is not None
    out6 = spectral_to_complement(shape36, S6, wit6.lam)
    assert out6.tag == ComplementConstruction.COPRIME_SUBGROUP
    assert is_tiling_pair(S6, out6.witness.t)

    # |S| = 2 = p: subgroup-first search
    S2 = Multiset.set_of(z36, [(0, 0, 0, 0), (1, 0, 0, 0)])
    lam2 = find_spectrum(S2).lam
    out2 = spectral_to_complement(shape36, S2, lam2)
    assert out2.tag == ComplementConstruction.SUBGROUP_FIRST
    assert is_tiling_pair(S2, out2.witness.t)

    # |S| = 12 = p^2 q: an order-q subgroup complement
    S12 = Multiset.set_of(
        z36,
        [shape36.join((a1, a2), (b, 0)) for a1 in range(2) for a2 in range(2) for b in range(3)],
    )
    lam12 = find_spectrum(S12).lam
    out12 = spectral_to_complement(shape36, S12, lam12)
    assert out12.tag == ComplementConstruction.PRIME_SUBGROUP
    assert out12.witness.t.mass == 3
    assert is_tiling_pair(S12, out12.witness.t)


# The divisibility case of every size on Z_2^2 x Z_3^2: all of its tiles
# have subgroup complements, so the tag depends on the size alone.
COMPLEMENT_TAGS = {
    1: ComplementConstruction.WHOLE_GROUP,
    36: ComplementConstruction.WHOLE_GROUP,
    2: ComplementConstruction.SUBGROUP_FIRST,
    3: ComplementConstruction.SUBGROUP_FIRST,
    4: ComplementConstruction.SYLOW_SUBGROUP,
    9: ComplementConstruction.SYLOW_SUBGROUP,
    6: ComplementConstruction.COPRIME_SUBGROUP,
    12: ComplementConstruction.PRIME_SUBGROUP,
    18: ComplementConstruction.PRIME_SUBGROUP,
}


def _spectral_sets(G, k):
    """Every 0-containing spectral k-set for k <= 4; else 40 seeded subgroup
    transversals (one random element per coset), which are spectral."""
    if k <= 4:
        for combo in itertools.combinations(G.elements[1:], k - 1):
            S = Multiset.set_of(G, (G.identity,) + combo)
            if find_spectrum(S) is not None:
                yield S
        return
    rng = random.Random(f"complement-tags:{k}")
    subgroups = subgroups_of_order(G, G.order // k)
    for _ in range(40):
        H = rng.choice(subgroups)
        cosets = {frozenset(G.add(x, h) for h in H) for x in G.elements}
        yield Multiset.set_of(G, [rng.choice(sorted(c)) for c in cosets])


@pytest.mark.parametrize("k", sorted(COMPLEMENT_TAGS))
def test_spectral_to_complement_tags_by_size(z36, shape36, k):
    count = 0
    for S in _spectral_sets(z36, k):
        out = spectral_to_complement(shape36, S, find_spectrum(S).lam)
        assert out.tag == COMPLEMENT_TAGS[k], (k, S)
        assert is_tiling_pair(S, out.witness.t), (k, S)
        count += 1
    assert count


def test_spectral_to_complement_rejects(z36, shape36):
    from spectile import NotASpectralPair

    S = Multiset.set_of(z36, [(0, 0, 0, 0), (1, 0, 0, 0)])
    with pytest.raises(NotASpectralPair):
        spectral_to_complement(shape36, S, Multiset.set_of(z36, [(0, 0, 0, 0), (0, 0, 1, 0)]))


# --- probe -------------------------------------------------------------------


def test_probe_sizes():
    shape = pq_shape(make_group([3, 3, 5, 5]))
    assert probe_sizes(shape) == (30,)
    shape23 = pq_shape(make_group([2, 2, 3, 3]))
    assert probe_sizes(shape23) == ()


def test_case5_probe_small():
    shape = pq_shape(make_group([3, 3, 5, 5]))
    report = case5_nonexistence_probe(shape, (30,), seed=3, count_per_size=40)
    assert report.ok
    assert report.examined == 40 and report.refuted == 40
    assert sum(report.obstructions.values()) == 40
    d = report.to_dict()
    assert d["ok"] is True and "note" in d

    with pytest.raises(InvalidArgument):
        case5_nonexistence_probe(shape, (31,), seed=3, count_per_size=1)
    with pytest.raises(InvalidArgument):
        case5_nonexistence_probe(shape, (45,), seed=3, count_per_size=1)


def test_a_probe_of_no_size_is_refused():
    # for p = 2 no size has gcd pq in (pq, pq min(p, q)), so a probe of the
    # whole range would check nothing and report ok
    shape = pq_shape(make_group([2, 2, 3, 3]))
    with pytest.raises(InvalidArgument, match=r"probe range of .* is \[\]"):
        case5_nonexistence_probe(shape, probe_sizes(shape), seed=1, count_per_size=5)
    with pytest.raises(InvalidArgument, match="at least one size"):
        case5_nonexistence_probe(pq_shape(make_group([3, 3, 5, 5])), (), seed=1, count_per_size=5)


def test_a_zero_count_probe_is_a_table_warm_up_that_examines_nothing():
    # perfbench's case5_probe builds its tables this way
    shape = pq_shape(make_group([3, 3, 5, 5]))
    report = case5_nonexistence_probe(shape, (30,), seed=1, count_per_size=0)
    assert report.ok and report.examined == report.refuted == 0
    assert set(report.obstructions.values()) == {0}
    assert report.direction_gap == {"holds": 0, "fails": 0} and report.aligned_leaf_hits == 0
    with pytest.raises(InvalidArgument, match="outside the probe range"):
        case5_nonexistence_probe(shape, (31,), seed=1, count_per_size=0)


def test_case5_probe_deterministic():
    shape = pq_shape(make_group([3, 3, 5, 5]))
    r1 = case5_nonexistence_probe(shape, (30,), seed=9, count_per_size=15)
    r2 = case5_nonexistence_probe(shape, (30,), seed=9, count_per_size=15)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("elapsed_seconds")
    d2.pop("elapsed_seconds")
    assert d1 == d2


def _drawn_probe_sets(G, shape, seed, size, count):
    """The sets the probe draws, as sorted coordinates: random.Random(f"{seed}:{size}")
    samples a candidate's leaves of Z_p^2, then q points of Z_q^2 per leaf."""
    rng = random.Random(f"{seed}:{size}")
    pg, qg = shape.p_group, shape.q_group
    out = []
    for _ in range(count):
        leaves = rng.sample(range(pg.order), size // shape.q)
        elems = [
            shape.join(pg.elements[ai], qg.elements[bi])
            for ai in leaves
            for bi in rng.sample(range(qg.order), shape.q)
        ]
        out.append([list(x) for x in sorted(elems, key=G.index_of)])
    return out


def _drawn_zero_masks(G, shape, seed, size, count):
    """The zero masks of the drawn sets (_drawn_probe_sets), in draw order."""
    zero_mask = char_table(G).zero_mask
    return [
        zero_mask([G.index_of(tuple(x)) for x in s])[1]
        for s in _drawn_probe_sets(G, shape, seed, size, count)
    ]


def _counting(monkeypatch, module, name, arg=1):
    """Replace module.name by a wrapper that records its argument arg."""
    seen = []
    f = getattr(module, name)

    def wrapper(*args):
        seen.append(args[arg])
        return f(*args)

    monkeypatch.setattr(module, name, wrapper)
    return seen


@pytest.mark.parametrize("moduli", [(3, 3, 5, 5), (5, 3, 3, 5)])
def test_probe_lists_an_undecided_candidate_as_its_drawn_set(monkeypatch, moduli):
    # a clique search that never decides makes every candidate undecided;
    # an empty memo stores none of its verdicts, yet the probe searches each
    # class word once, as the search is deterministic
    _fresh_memo(monkeypatch, lambda G, k: {})
    monkeypatch.setattr(spectra, "spectrum_search", lambda *args: (UNDECIDED, 0))
    searched = _counting(monkeypatch, spectra, "spectrum_search")
    G = make_group(moduli)
    shape = pq_shape(G)
    report = case5_nonexistence_probe(shape, (30,), seed=7, count_per_size=12)
    assert report.refuted == 0 and not report.spectral_hits and not report.ok
    assert report.undecided == [
        {"size": 30, "set": s} for s in _drawn_probe_sets(G, shape, 7, 30, 12)
    ]
    assert sum(report.obstructions.values()) == 12
    masks = set(_drawn_zero_masks(G, shape, 7, 30, 12))
    assert sorted(searched) == sorted(masks) and len(masks) < 12


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_the_probe_decides_each_class_word_once(monkeypatch, seed):
    # with a cold memo, the clique search and the obstruction kind each run
    # once per distinct zero mask (so class word) among the drawn sets, not
    # once per candidate
    _fresh_memo(monkeypatch, lambda G, k: {})
    searched = _counting(monkeypatch, spectra, "spectrum_search")
    classified = _counting(monkeypatch, harness, "_classify_obstruction")
    G = make_group((3, 3, 5, 5))
    shape = pq_shape(G)
    report = case5_nonexistence_probe(shape, (30,), seed=seed, count_per_size=60)
    assert report.examined == 60
    masks = set(_drawn_zero_masks(G, shape, seed, 30, 60))
    assert len(masks) < 60
    assert sorted(searched) == sorted(classified) == sorted(masks)


def _probe_by_helpers(shape, sizes, seed, count, budget):
    """The tallies of case5_nonexistence_probe, each candidate decided on its
    own by the helpers: the clique search on its zero mask, its obstruction
    kind and its two leaf tallies."""
    G = shape.group
    tables, kernel, lt = index_tables(G), char_table(G), leaf_tables(shape)
    doc = {
        "examined": 0,
        "refuted": 0,
        "spectral_hits": [],
        "undecided": [],
        "obstructions": {"leaf-overflow": 0, "leaf-structure": 0, "vanishing-pattern": 0},
        "aligned_leaf_hits": 0,
        "direction_gap": {"fails": 0, "holds": 0},
    }
    for size in sizes:
        for s in _drawn_probe_sets(G, shape, seed, size, count):
            cand = [G.index_of(tuple(x)) for x in s]
            zmask, leaves = kernel.zero_mask(cand)[1], lt.leaves(cand)
            lam = spectrum_search(tables, zmask, size, budget)[0]
            doc["examined"] += 1
            if lam is None:
                doc["refuted"] += 1
            elif lam is UNDECIDED:
                doc["undecided"].append({"size": size, "set": s})
            else:
                with _own_memo():
                    wit = find_spectrum(Multiset.set_of(G, map(tuple, s)), budget)
                spectrum = [list(x) for x in wit.lam.support] if wit is not UNDECIDED else None
                doc["spectral_hits"].append({"size": size, "set": s, "spectrum": spectrum})
            doc["obstructions"][_classify_obstruction(lt, zmask)] += 1
            doc["aligned_leaf_hits"] += _aligned_along_some_direction(lt, leaves)
            doc["direction_gap"]["holds" if _direction_gap_ok(lt, leaves) else "fails"] += 1
    return doc


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 1])
@pytest.mark.parametrize("moduli", [(3, 3, 5, 5), (3, 3, 7, 7)])
def test_probe_reports_what_deciding_each_candidate_gives(moduli, budget):
    shape = pq_shape(make_group(moduli))
    size = probe_sizes(shape)[0]
    for seed in (2, 5):
        d = case5_nonexistence_probe(shape, (size,), seed=seed, count_per_size=40, budget=budget).to_dict()
        reference = _probe_by_helpers(shape, (size,), seed, 40, budget)
        assert {key: d[key] for key in reference} == reference


@pytest.fixture(scope="module")
def shape57():
    return pq_shape(make_group((5, 5, 7, 7)))


def test_the_probe_decides_a_word_once_per_size(monkeypatch, shape57):
    # a verdict depends on the size: a word met at two sizes is decided at each
    assert probe_sizes(shape57)[:2] == (70, 105)
    _fresh_memo(monkeypatch, lambda G, k: {})
    # every candidate gets the class word of {0}, whose zero mask is empty
    kernel = char_table(shape57.group)
    word = kernel.class_word(kernel.cols[0], 1)
    monkeypatch.setattr(type(kernel), "class_word", lambda self, total, m: word)
    sizes = _counting(monkeypatch, spectra, "spectrum_search", arg=2)
    report = case5_nonexistence_probe(shape57, (70, 105), seed=3, count_per_size=3)
    assert report.examined == report.refuted == 6
    assert sizes == [70, 105]


def test_a_two_size_probe_merges_its_one_size_probes(shape57):
    def tallies(sizes):
        d = case5_nonexistence_probe(shape57, sizes, seed=4, count_per_size=3).to_dict()
        for key in ("sizes", "count_per_size", "elapsed_seconds"):
            d.pop(key)
        return d

    both, alone = tallies((70, 105)), [tallies((n,)) for n in (70, 105)]
    assert both["examined"] == 6
    for key in ("examined", "refuted", "aligned_leaf_hits"):
        assert both[key] == sum(d[key] for d in alone), key
    for key in ("spectral_hits", "undecided"):
        assert both[key] == alone[0][key] + alone[1][key], key
    for key in ("obstructions", "direction_gap"):
        assert both[key] == {k: sum(d[key][k] for d in alone) for k in both[key]}, key


def test_probe_tallies_do_not_depend_on_the_order_of_the_moduli():
    tallies = []
    for moduli in [(3, 3, 5, 5), (5, 5, 3, 3), (3, 5, 5, 3)]:
        d = case5_nonexistence_probe(
            pq_shape(make_group(moduli)), (30,), seed=7, count_per_size=200
        ).to_dict()
        for key in ("group", "elapsed_seconds"):
            d.pop(key)
        tallies.append(d)
    assert tallies[0]["examined"] == 200
    assert tallies[0] == tallies[1] == tallies[2]


def test_probe_refuses_non_integral_sizes():
    shape = pq_shape(make_group([3, 3, 5, 5]))
    with pytest.raises(InvalidArgument, match="integers"):
        case5_nonexistence_probe(shape, (30.5,), seed=3, count_per_size=1)


def test_bool_is_refused_wherever_an_integer_is_read(z6):
    # bool is an int subclass: True would sweep size 1, and seed False
    # would draw from the stream "False:k", not "0:k"
    for kwargs in ({"sizes": (True,)}, {"sizes": (2,), "seed": False, "count_per_size": 3},
                   {"sizes": (2,), "seed": 0, "count_per_size": True}):
        with pytest.raises(InvalidArgument, match="bool"):
            VerificationPlan(group=z6, **kwargs)
    shape = pq_shape(make_group([3, 3, 5, 5]))
    with pytest.raises(InvalidArgument, match="bool"):
        case5_nonexistence_probe(shape, (30, True), seed=3, count_per_size=1)
    with pytest.raises(InvalidArgument, match="bool"):
        case5_nonexistence_probe(shape, (30,), seed=False, count_per_size=1)
    with pytest.raises(InvalidArgument, match="bool"):
        next(enumerate_tiles(z6, 3, seed=False, count=3))
    plan = VerificationPlan(group=z6, sizes=(2,), seed=0, count_per_size=3)
    assert (plan.seed, plan.count_per_size) == (0, 3)


def test_probe_rejects_repeated_sizes():
    shape = pq_shape(make_group([3, 3, 5, 5]))
    with pytest.raises(InvalidArgument, match="repeat"):
        case5_nonexistence_probe(shape, (30, 30), seed=3, count_per_size=5)


# --- the probe's index-level structure checks against coordinate oracles ------


def _leaf_sizes_pass(shape, S):
    """The leaf-size part of the structure: every leaf of S has at most q
    points, and S has a leaf constancy."""
    leaves = leaf_decomposition(shape, S).leaves
    return all(len(K) <= shape.q for K in leaves.values()) and leaf_constancy(shape, S) is not None


def _obstruction_by_coordinates(shape, S):
    """Coordinate-level oracle for _classify_obstruction, with the leaf-size
    part (_leaf_sizes_pass) first."""
    G = shape.group
    if not _leaf_sizes_pass(shape, S):
        return "leaf-structure"
    pg, qg = shape.p_group, shape.q_group
    for u in pg.elements:
        if u == pg.identity:
            continue
        gu = shape.join(u, qg.identity)
        u_vanishes = char_sum(G, S, gu).is_zero
        for v in qg.elements:
            if v == qg.identity:
                continue
            gv = shape.join(pg.identity, v)
            if char_sum(G, S, G.add(gu, gv)).is_zero:
                continue
            if not (u_vanishes and char_sum(G, S, gv).is_zero):
                return "vanishing-pattern"
    return "leaf-overflow"


def _aligned_by_coordinates(shape, S, u):
    """Coordinate-level oracle for assumption_a_holds."""
    pg = shape.p_group
    leaves = leaf_decomposition(shape, S).leaves
    line = cyclic_subgroup(pg, u)
    seen = set()
    for b in pg.elements:
        if b in seen:
            continue
        coset = [pg.add(b, t) for t in line]
        seen.update(coset)
        nonempty = [leaves[a] for a in coset if leaves[a]]
        if nonempty and any(K != nonempty[0] for K in nonempty[1:]):
            return False
    return True


def _gap_by_directions(shape, S):
    """A pure p-direction and a pure q-direction of G both absent from S - S."""
    G = shape.group
    pg, qg = shape.p_group, shape.q_group
    determined = determined_directions(S)
    pure_p = {direction_rep(G, shape.join(u, qg.identity)) for u in pg.elements[1:]}
    pure_q = {direction_rep(G, shape.join(pg.identity, v)) for v in qg.elements[1:]}
    return bool(pure_p - determined) and bool(pure_q - determined)


def _structure_inputs(shape, rng):
    """Seeded random sets, unions of size-q fibers, and the two torsion subgroups."""
    G = shape.group
    pg, qg = shape.p_group, shape.q_group
    q = shape.q
    out = [rng.sample(G.elements, rng.randint(1, min(40, G.order - 1))) for _ in range(25)]
    for _ in range(25):
        leaf = rng.sample(qg.elements, q)
        same = rng.random() < 0.5  # one leaf repeated, or a new one per anchor
        elems = []
        for a in rng.sample(pg.elements, rng.randint(1, pg.order)):
            elems += [shape.join(a, b) for b in (leaf if same else rng.sample(qg.elements, q))]
        out.append(elems)
    out.append([shape.join(a, qg.identity) for a in pg.elements])
    out.append([shape.join(pg.identity, b) for b in qg.elements])  # one leaf of size q^2
    return [Multiset.set_of(G, elems) for elems in out]


@pytest.mark.parametrize("moduli", [(3, 3, 5, 5), (2, 2, 3, 3), (2, 2, 5, 5), (3, 3, 7, 7)])
def test_probe_structure_checks_agree_with_coordinate_oracles(moduli):
    G = make_group(moduli)
    shape = pq_shape(G)
    lt = leaf_tables(shape)
    kernel = char_table(G)
    pg = shape.p_group
    direction_of = index_tables(pg).direction_of
    # the probe reads each candidate from its draws (SeededDraws.fibers): k
    # leaves, then q points of each leaf in leaf draw order, as leaf masks
    # and a kernel sum; the same sample calls give the set itself
    col_at = [[kernel.cols[g] for g in row] for row in lt.elem]
    leaf_count, point_count = len(lt.p_embed), len(lt.q_embed)
    for k in range(1, leaf_count + 1):
        seed = f"fibers:{moduli}:{k}"
        rng = random.Random(seed)
        for leaves, total in SeededDraws(seed).fibers(col_at, k, shape.q, 5):
            cand = tuple(
                sorted(
                    lt.elem[a][b]
                    for a in rng.sample(range(leaf_count), k)
                    for b in rng.sample(range(point_count), shape.q)
                )
            )
            assert leaves == lt.leaves(cand)
            key = kernel.key(total, len(cand))
            assert (key, kernel.expand(key)) == kernel.zero_mask(cand)
            assert tuple(sorted(_leaf_elements(lt, leaves))) == cand
            # so every probe candidate passes the leaf-size part, which
            # _classify_obstruction leaves out
            assert _leaf_sizes_pass(shape, Multiset.of_indices(G, cand))
    rng = random.Random(f"structure:{moduli}")
    classes, compared, aligned_any, gaps, counts = set(), set(), set(), set(), set()
    for S in _structure_inputs(shape, rng):
        cand = tuple(sorted(G.index_of(x) for x in S.mult))
        leaves = lt.leaves(cand)
        assert tuple(sorted(_leaf_elements(lt, leaves))) == cand
        key = kernel.key(sum(kernel.cols[g] for g in cand), len(cand))
        assert (key, kernel.expand(key)) == kernel.zero_mask(cand)
        # the obstruction kind, once per word in the probe, is the oracle's
        # wherever the oracle's leaf-size part passes
        expected = _obstruction_by_coordinates(shape, S)
        classes.add(expected)
        if expected != "leaf-structure":
            assert _classify_obstruction(lt, kernel.expand(key)) == expected
            compared.add(expected)
        aligned = [assumption_a_holds(shape, S, u) for u in pg.elements[1:]]
        assert aligned == [_aligned_by_coordinates(shape, S, u) for u in pg.elements[1:]]
        by_direction = [aligned_leaves(lines, leaves) for lines in lt.p_lines]
        assert aligned == [by_direction[direction_of[pg.index_of(u)]] for u in pg.elements[1:]]
        # the probe's test, aligned along some p-direction: more than p
        # distinct nonempty masks rule out every direction
        distinct = len(set(leaves) - {0})
        if distinct > shape.p:
            assert not any(by_direction)
        assert _aligned_along_some_direction(lt, leaves) == any(aligned)
        counts.add((distinct > shape.p, len(leaves) - leaves.count(0) > shape.p))
        aligned_any.add(any(aligned))
        gap = _direction_gap_ok(lt, leaves)
        assert gap == _gap_by_directions(shape, S)
        gaps.add(gap)
    assert classes == {"leaf-structure", "vanishing-pattern", "leaf-overflow"}
    assert compared == {"vanishing-pattern", "leaf-overflow"}
    assert aligned_any == gaps == {True, False}
    # ruled out by the count, and reaching aligned_leaves with more than p
    # nonempty leaves, some repeated, and with at most p
    assert counts >= {(True, True), (False, True), (False, False)}
