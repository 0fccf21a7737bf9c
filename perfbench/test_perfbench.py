"""Tests of the benchmark's own code: the gate, the tracer and the inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import cmath
import itertools
import json
import random
import types

import compare
import gate
import layers
import speed
import workloads

Z36 = (2, 2, 3, 3)
ZERO = (0, 0, 0, 0)


def _exhaustive_report(**change) -> str:
    per_size = {}
    for k, (examined, tiles) in gate.EXHAUSTIVE_TALLIES.items():
        per_size[str(k)] = {
            "size": k, "examined": examined, "spectral": tiles, "tiles": tiles,
            "both_yes": tiles, "both_no": examined - tiles, "mismatches": [], "undecided": [],
        }
    sub = {
        k: {"size": t["size"], "examined": t["examined"], "tiles": t["tiles"],
            "violations": [], "undecided": []}
        for k, t in per_size.items()
    }
    for key, value in change.items():
        size, field = key.split("_", 1)
        per_size[size][field] = value
    return json.dumps({"fuglede": {"per_size": per_size}, "subgroup_tiling": {"per_size": sub}})


def test_gate_accepts_the_exact_exhaustive_tallies():
    v = gate.check_exhaustive(0, _exhaustive_report())
    assert v.failed == 0, v.failures
    assert v.tallies["6"]["both_yes"] == 74520


def test_gate_rejects_a_doctored_exhaustive_report():
    # one tally off by one, consistently across spectral/tiles/both_yes
    doctored = _exhaustive_report(**{"6_spectral": 74519, "6_tiles": 74519, "6_both_yes": 74519,
                                     "6_both_no": 324632 - 74519})
    assert gate.check_exhaustive(0, doctored).failed > 0
    assert gate.check_exhaustive(2, _exhaustive_report()).failed > 0
    assert gate.check_exhaustive(0, "not json").failed > 0
    mismatch = _exhaustive_report(**{"4_mismatches": [{"set": []}]})
    assert gate.check_exhaustive(0, mismatch).failed > 0


def test_gate_rejects_a_spectrum_that_does_not_verify():
    S = [ZERO, (1, 0, 0, 0)]
    T = [x for x in itertools.product(range(2), range(2), range(3), range(3)) if x[0] == 0]
    good = {
        "spectrum": [ZERO, (1, 0, 0, 0)], "complement": T,
        "constructed_spectrum": [ZERO, (1, 0, 0, 0)], "constructed_complement": T,
    }
    assert gate.check_per_set(Z36, S, True, good).failed == 0
    bad_spectrum = dict(good, spectrum=[ZERO, (0, 1, 0, 0)])
    assert gate.check_per_set(Z36, S, True, bad_spectrum).failed == 1
    bad_complement = dict(good, constructed_complement=T[:-1] + [(1, 0, 0, 0)])
    assert gate.check_per_set(Z36, S, True, bad_complement).failed == 1
    disagree = {"spectrum": None, "complement": T}
    assert gate.check_per_set(Z36, S, True, disagree).failed > 0
    assert gate.check_per_set(Z36, S, False, {"spectrum": gate.UNDECIDED, "complement": None}).failed == 1


def test_exact_vanishing_agrees_with_floating_point():
    rng = random.Random(5)
    elems = list(itertools.product(range(2), range(2), range(3), range(3)))
    M = gate.exponent(Z36)
    weights = [M // n for n in Z36]
    for _ in range(300):
        S = rng.sample(elems, rng.choice((2, 3, 4, 6)))
        d = rng.choice(elems)
        counts = [0] * M
        for s in S:
            counts[sum(w * a * b for w, a, b in zip(weights, s, d)) % M] += 1
        approx = sum(c * cmath.exp(2j * cmath.pi * j / M) for j, c in enumerate(counts))
        assert gate.root_sum_vanishes(tuple(counts)) == (abs(approx) < 1e-9)


def test_cyclotomic_polynomials():
    assert gate.cyclotomic(1) == (-1, 1)
    assert gate.cyclotomic(6) == (1, -1, 1)
    assert gate.cyclotomic(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_self_time_of_nested_calls():
    now = [0.0]
    tracer = layers.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    mod = types.SimpleNamespace(__name__="mod", inner=inner)

    def outer():
        now[0] += 1.0
        mod.inner()
        now[0] += 1.0
        mod.inner()

    mod.outer = outer
    assert tracer.wrap(mod, "inner", "inner")
    assert tracer.wrap(mod, "outer", "outer", coarse=True)
    mod.outer()
    assert tracer.stats["outer"] == [1, 6.0, 2.0]
    assert tracer.stats["inner"] == [2, 4.0, 4.0]
    assert tracer.spans == [("outer", 0.0, 6.0, -1)]
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer


def test_timed_iterator_and_class_attribute():
    now = [0.0]
    tracer = layers.Tracer(clock=lambda: now[0])

    def gen():
        for i in range(3):
            now[0] += 0.5
            yield i

    class Box:
        def get(self):
            return 7

    mod = types.SimpleNamespace(__name__="mod", gen=gen, Box=Box)
    assert tracer.wrap(mod, "gen", "enum", "iter")
    assert tracer.wrap(mod, "Box.get", "get", "counted")
    assert list(mod.gen()) == [0, 1, 2]
    assert Box().get() == 7
    assert tracer.stats["enum"][1] == 1.5
    assert tracer.stats["get"][0] == 1


def test_absent_name_is_reported_not_raised():
    tracer = layers.Tracer()
    mod = types.SimpleNamespace(__name__="harness")
    assert not tracer.wrap(mod, "_cover_decide", "harness.cover_decide")
    assert not tracer.wrap(mod, "Missing.method", "spectra.clique")
    assert tracer.absent == ["harness._cover_decide", "harness.Missing.method"]
    metrics = layers.layer_metrics(tracer)
    assert metrics["harness.cover_setup_s"] == {"absent": True, "unit": "s"}
    assert set(metrics) == set(layers.METRICS)


def test_hook_errors_do_not_fail_the_call():
    tracer = layers.Tracer()
    mod = types.SimpleNamespace(__name__="harness", _cover_search=lambda: ("no", "tuple", "here"))
    tracer.wrap(mod, "_cover_search", "tiling.cover_search", after=layers._cover_result)
    assert mod._cover_search() == ("no", "tuple", "here")
    assert tracer.hook_errors == 1


def test_per_set_inputs_are_seeded_transversals_and_random_sets():
    wl = workloads.PerSet()
    first = list(itertools.islice(wl.inputs(3), 40))
    assert first == list(itertools.islice(wl.inputs(3), 40))
    assert first != list(itertools.islice(wl.inputs(4), 40))
    subgroups = workloads.subgroups(Z36)
    assert len(subgroups) == 5 * 6  # subgroups of Z_2^2 times subgroups of Z_3^2
    for known_tile, S in first:
        assert S[0] == ZERO and len(set(S)) == len(S) and len(S) in wl.sizes
        if known_tile:
            assert any(
                len(H) * len(S) == 36 and gate.is_tiling_pair(Z36, S, sorted(H)) for H in subgroups
            )


def test_scaled_time_drops_sampler_time_and_divides_by_nearby_speed():
    probe = speed.SpeedProbe()
    # loop samples of 2x the reference time at t = 0, 1, 2 and 10
    for t in (0.0, 1.0, 2.0, 10.0):
        probe.starts.append(t)
        probe.ends.append(t + 2 * speed.REFERENCE_S)
    # [0.5, 1.5] holds the sample at 1.0; its time is not the program's
    expected = (1.0 - 2 * speed.REFERENCE_S) / 2
    assert abs(probe.scaled(0.5, 1.5) - expected) < 1e-12
    with speed.SpeedProbe() as live:
        sum(range(1000))
    assert len(live.starts) == len(live.ends) >= 2


def test_compare_uses_the_chunks_both_runs_decided():
    a = {"tallies": [{"seed": 1, "refuted": 400}, {"seed": 2, "refuted": 400}]}
    b = {"tallies": [{"seed": 1, "refuted": 400}]}
    assert compare.common_verdicts(a, b) == (1, [])
    b["tallies"][0]["refuted"] = 399
    assert compare.common_verdicts(a, b)[1]
    sets = {"tallies": {"verdicts": "bnbn"}}
    assert compare.common_verdicts(sets, {"tallies": {"verdicts": "bnm"}}) == (3, ["set 2: b != m"])
