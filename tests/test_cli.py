import io
import itertools
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spectile import cli, groups
from spectile import (
    InvalidElement,
    Multiset,
    ParseError,
    VerificationPlan,
    find_complement,
    find_spectrum,
    find_tiling_complement,
    is_spectral_pair,
    make_group,
    verify_fuglede,
)
from spectile.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
    parse_set_document,
    serialize_set_document,
)


def _doc(group, elems, mults=None):
    doc = {"group": group, "set": elems}
    if mults is not None:
        doc["multiplicities"] = mults
    return json.dumps(doc)


def test_round_trip_set_documents():
    G = make_group([2, 2, 3, 3])
    A = Multiset.set_of(G, [(0, 0, 0, 0), (1, 0, 2, 1)])
    G2, B = parse_set_document(serialize_set_document(A))
    assert G2 == G and B == A
    M = Multiset(G, {(0, 0, 0, 0): 2, (1, 1, 1, 1): 5})
    _, M2 = parse_set_document(serialize_set_document(M))
    assert M2 == M


def test_parse_errors():
    with pytest.raises(Exception):
        parse_set_document("not json")
    with pytest.raises(Exception):
        parse_set_document(json.dumps({"group": [2, 3]}))
    with pytest.raises(Exception):
        parse_set_document(_doc([2, 3], [[0, 5]]))
    with pytest.raises(Exception):
        parse_set_document(_doc([2, 3], [[0]]))
    with pytest.raises(Exception):
        parse_set_document(_doc([2, 3], [[0, 0]], [0]))


def test_parse_rejects_bool(capsys):
    with pytest.raises(InvalidElement):
        parse_set_document(_doc([2, 3], [[0, 0], [True, 0]]))
    with pytest.raises(InvalidElement):
        parse_set_document(_doc([2, 3], [[0, False]]))
    with pytest.raises(ParseError):
        parse_set_document(_doc([2, 3], [[0, 0]], [True]))


def _parse_set_document_checked_twice(text):
    """parse_set_document as it was when each element was checked twice:
    its own loop, then the Multiset constructor. Only the documents of the
    fault matrix below, whose top level is well formed, are read."""
    doc = json.loads(text)
    group = make_group(doc["group"])
    elems = doc["set"]
    mults = doc.get("multiplicities")
    if mults is not None and (not isinstance(mults, list) or len(mults) != len(elems)):
        raise ParseError('"multiplicities" must align with "set"')
    counts = {}
    for i, e in enumerate(elems):
        if not isinstance(e, list) or len(e) != len(group.moduli):
            raise InvalidElement(f"element {e!r} has wrong arity for {list(group.moduli)}")
        x = tuple(e)
        if not group.contains(x):
            raise InvalidElement(f"element {e!r} out of range for {list(group.moduli)}")
        m = 1 if mults is None else mults[i]
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ParseError(f"multiplicity {m!r} must be a positive integer")
        counts[x] = counts.get(x, 0) + m
    return group, Multiset(group, counts)


# per kind, an element fault of Z_2 x Z_3 (JSON has no tuples: every element
# is a list or not one)
_BAD_ELEMENTS = {
    "int": 1,
    "string": "01",
    "null": None,
    "object": {"0": 0},
    "nested": [[0, 0]],
    "short": [0],
    "long": [0, 0, 0],
    "out of range": [0, 3],
    "negative": [-1, 0],
    "huge": [10**30, 0],
    "bool": [True, 0],
    "false": [0, False],
    "float": [1.0, 0],
    "fraction": [0, 1.5],
    "string coordinate": ["1", 0],
    "null coordinate": [0, None],
}
_BAD_MULTIPLICITIES = {"zero": 0, "negative": -1, "bool": True, "float": 1.0, "string": "1", "null": None}


def _fault_matrix():
    """(name, document) pairs: one fault at each position of a valid set,
    every pair of fault kinds at two positions, multiplicity faults, and
    valid documents with repeats and multiplicities."""
    base = [[0, 0], [1, 2], [0, 1]]
    docs = {"valid": _doc([2, 3], base), "repeat": _doc([2, 3], base + [[1, 2]])}
    docs["multiplicities"] = _doc([2, 3], base + [[0, 0]], [2, 1, 3, 1])
    for kind, bad in _BAD_ELEMENTS.items():
        for i in range(len(base) + 1):
            docs[f"{kind} at {i}"] = _doc([2, 3], base[:i] + [bad] + base[i:])
    kinds = list(_BAD_ELEMENTS.items())
    for (first, a), (second, b) in itertools.product(kinds, repeat=2):
        docs[f"{first} then {second}"] = _doc([2, 3], [base[0], a, base[1], b])
    for kind, m in _BAD_MULTIPLICITIES.items():
        for i in range(len(base)):
            mults = [1] * len(base)
            mults[i] = m
            docs[f"multiplicity {kind} at {i}"] = _doc([2, 3], base, mults)
        # an element fault before and after a multiplicity fault
        docs[f"bool element then multiplicity {kind}"] = _doc([2, 3], [[0, 0], [True, 0], [1, 1]], [1, 1, m])
        docs[f"multiplicity {kind} then bool element"] = _doc([2, 3], [[0, 0], [1, 1], [True, 0]], [1, m, 1])
    # a bool element equal to a valid one, before and after it
    docs["bool twin after"] = _doc([2, 3], [[1, 0], [True, 0]])
    docs["bool twin before"] = _doc([2, 3], [[True, 0], [1, 0]])
    return docs


def _outcome(parse, text):
    try:
        group, A = parse(text)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return group, A, A.mult, A.mass, A.indices, A.is_set


def test_each_set_document_element_is_checked_once(monkeypatch, tmp_path, capsys):
    # every document of the fault matrix gives what checking each element
    # twice gave: the same exception type and message, at the same fault,
    # or an equal multiset; and through the CLI the same exit code and
    # error line
    group = make_group([2, 3])
    checks = []
    contains, fast_indices = type(group).contains, groups._fast_indices

    def counted(self, x):
        checks.append(x)
        return contains(self, x)

    def fast(group, xs):
        checks.append(xs)
        return fast_indices(group, xs)

    path = tmp_path / "doc.json"
    for name, text in _fault_matrix().items():
        before = _outcome(_parse_set_document_checked_twice, text)
        with monkeypatch.context() as m:
            m.setattr(type(group), "contains", counted)
            m.setattr(groups, "_fast_indices", fast)
            after = _outcome(parse_set_document, text)
        assert after == before, name
        if isinstance(before[0], type):
            assert before[0] in (InvalidElement, ParseError), name
        else:
            # the valid ones: each element is checked once (Group.contains),
            # and the constructor's check (_fast_indices) does not run
            assert len(checks) == len(json.loads(text)["set"]), name
        checks.clear()
        path.write_text(text)
        runs = []
        for parse in (_parse_set_document_checked_twice, parse_set_document):
            with monkeypatch.context() as m:
                m.setattr(cli, "parse_set_document", parse)
                rc = main(["analyze", "--set", str(path)])
            runs.append((rc, capsys.readouterr()))
        assert runs[0] == runs[1], name
        assert runs[0][0] == EXIT_USAGE or not isinstance(before[0], type), name


@pytest.mark.parametrize("group", [[2.7, 3], ["2", "3"]], ids=["float", "string"])
def test_non_integral_moduli_are_a_bad_group(monkeypatch, capsys, group):
    # int() would truncate 2.7 to 2 and answer for Z_2 x Z_3
    monkeypatch.setattr(sys, "stdin", io.StringIO(_doc(group, [[0, 0], [1, 0]])))
    assert main(["spectrum"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad group" in json.loads(captured.err)["error"]


def test_analyze_command(tmp_path, capsys):
    f = tmp_path / "set.json"
    f.write_text(_doc([2, 3], [[0, 0], [1, 0]]))
    rc = main(["analyze", "--set", str(f)])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["size"] == 2 and out["gcd_class"] == 2
    assert out["spectral"] is True and out["tile"] is True
    assert out["zero_set"]["size"] == 3
    assert out["complement"] == [[0, 0], [0, 1], [0, 2]]


def test_analyze_non_tile(tmp_path, capsys):
    f = tmp_path / "set.json"
    f.write_text(_doc([2, 3], [[0, 0], [0, 1], [1, 0]]))
    rc = main(["analyze", "--set", str(f)])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK  # spectral False == tile False: consistent
    assert out["spectral"] is False and out["tile"] is False


def test_analyze_singleton(tmp_path, capsys):
    f = tmp_path / "set.json"
    f.write_text(_doc([2, 3], [[1, 2]]))
    rc = main(["analyze", "--set", str(f)])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["spectral"] is True and out["tile"] is True
    assert out["spectrum"] == [[0, 0]]
    assert len(out["complement"]) == 6


def test_spectral_set_that_does_not_tile_is_flagged(tmp_path, capsys):
    # positive control: {0, e_1, ..., e_5} in Z_3^5 is spectral, and it
    # cannot tile because 6 does not divide 243
    G = make_group([3] * 5)
    elems = [[0] * 5] + [[int(i == j) for i in range(5)] for j in range(5)]
    S = Multiset.set_of(G, map(tuple, elems))
    wit = find_spectrum(S)
    assert wit and is_spectral_pair(S, wit.lam)
    assert find_complement(S) is None and find_tiling_complement(S) is None
    f = tmp_path / "set.json"
    f.write_text(_doc([3] * 5, elems))
    rc = main(["analyze", "--set", str(f)])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_MISMATCH
    assert out["spectral"] is True and out["tile"] is False
    assert out["spectrum"] == [list(x) for x in wit.lam.support]


def test_spectrum_and_complement_commands(tmp_path, capsys):
    f = tmp_path / "set.json"
    f.write_text(_doc([2, 3], [[0, 0], [1, 0]]))
    assert main(["spectrum", "--set", str(f)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["spectral"] is True and out["spectrum"] == [[0, 0], [1, 0]]

    assert main(["complement", "--set", str(f)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["tile"] is True and len(out["complement"]) == 3


def test_decompose_command(tmp_path, capsys):
    f = tmp_path / "set.json"
    f.write_text(_doc([2, 3], [[0, 0], [1, 0]]))
    assert main(["decompose", "--set", str(f)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["decomposition"]["row_coeffs"] == [1, 0, 0]

    f.write_text(_doc([2, 3], [[0, 0], [0, 1], [0, 2], [1, 0]]))
    assert main(["decompose", "--set", str(f)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["decomposition"] is None


def test_decompose_wrong_shape(tmp_path, capsys):
    f = tmp_path / "set.json"
    f.write_text(_doc([2, 2], [[0, 0]]))
    assert main(["decompose", "--set", str(f)]) == EXIT_USAGE


def test_enumerate_tiles_command(capsys):
    rc = main(["enumerate-tiles", "--group", "2,3", "--size", "2"])
    assert rc == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines[-1]["count"] == 3
    assert [l["tile"] for l in lines[:-1]] == [
        [[0, 0], [1, 0]],
        [[0, 0], [1, 1]],
        [[0, 0], [1, 2]],
    ]


def test_verify_command_z6(capsys):
    rc = main(["verify", "--group", "2,3", "--sizes", "all", "--exhaustive"])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["fuglede"]["ok"] is True
    assert out["subgroup_tiling"]["ok"] is True


def test_verify_command_sampled_with_seed(capsys):
    rc = main(
        ["verify", "--group", "2,2,3", "--sizes", "4,6", "--samples", "50", "--seed", "7"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["fuglede"]["seed"] == 7


def test_exhaustive_verify_reports_its_unused_seed_as_null(capsys):
    # as enumerate-tiles does: no draw of an exhaustive plan reads the seed
    argv = ["--group", "2,3", "--seed", "4"]
    assert main(["verify", *argv, "--sizes", "2", "--exhaustive"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["fuglede"]["mode"] == "exhaustive"
    assert out["fuglede"]["seed"] is None and out["subgroup_tiling"]["seed"] is None
    assert main(["enumerate-tiles", *argv, "--size", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["seed"] is None


def test_a_reader_closing_stdout_early_ends_the_command_without_a_traceback(subprocess_env):
    # every one of the 2 048 sets is undecided at budget 1 and listed twice,
    # about 150 kB, more than a pipe holds, so the report is still being
    # written when the reader goes away
    argv = ["verify", "--group", "2,2,3", "--sizes", "all", "--exhaustive", "--budget", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "spectile.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env,
    )
    try:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_USAGE
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


def test_a_broken_pipe_inside_a_command_is_not_taken_for_a_closed_stdout(monkeypatch):
    # only a write of the report to stdout ends the command quietly; a pipe
    # the command itself uses reaches the caller
    def command(args):
        raise BrokenPipeError("a worker pipe")

    monkeypatch.setattr(cli, "cmd_verify", command)
    with pytest.raises(BrokenPipeError, match="a worker pipe"):
        main(["verify", "--group", "2,3", "--sizes", "2"])


def test_verify_without_seed_prints_one_document(capsys):
    rc = main(["verify", "--group", "2,3", "--sizes", "2,3", "--samples", "5"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert rc == EXIT_OK
    assert json.loads(captured.err) == {"generated_seed": out["fuglede"]["seed"]}


def _verify_json(capsys, argv):
    rc = main(argv)
    out = json.loads(capsys.readouterr().out)
    for block in out.values():
        block.pop("elapsed_seconds")
    return rc, out


def test_verify_workers_give_the_same_report(capsys):
    exhaustive = ["verify", "--group", "2,2,3", "--sizes", "2,3,4,6", "--exhaustive"]
    # sampled draws keep their order: the undecided entries of sizes 4 and 6
    # are listed in draw order, serial or parallel
    sampled = ["verify", "--group", "2,2,3,3", "--sizes", "4,6,9", "--budget", "3",
               "--samples", "40", "--seed", "5"]
    for argv, rc in ((exhaustive, EXIT_OK), (sampled, EXIT_UNDECIDED)):
        serial = _verify_json(capsys, argv + ["--workers", "1"])
        parallel = _verify_json(capsys, argv + ["--workers", "2"])
        assert serial == parallel
        assert serial[0] == rc


def test_verify_reports_tiles_without_subgroup_complement(capsys):
    # on Z_8 these tile, but hit some coset of the only subgroup of
    # order 8/k twice; Z_8 is outside the paper's family, where the claim is
    # made, so they are listed and the run passes
    rc, out = _verify_json(capsys, ["verify", "--group", "8", "--sizes", "2,4", "--exhaustive"])
    assert rc == EXIT_OK
    assert out["fuglede"]["ok"] is True
    assert out["subgroup_tiling"]["ok"] is False and out["subgroup_tiling"]["claim"] is None
    sub = out["subgroup_tiling"]["per_size"]
    assert [e["set"] for e in sub["2"]["violations"]] == [[[0], [2]], [[0], [4]], [[0], [6]]]
    assert [e["set"] for e in sub["4"]["violations"]] == [
        [[0], [1], [4], [5]],
        [[0], [2], [4], [6]],
        [[0], [3], [4], [7]],
    ]
    assert sub["2"]["undecided"] == sub["4"]["undecided"] == []


def test_verify_fails_on_a_violation_in_the_papers_family(monkeypatch, capsys):
    # every tile of Z_2^2 x Z_3^2 has a subgroup complement (the acceptance
    # sweeps), so a violation is planted in a real report
    def planted(plan):
        report = verify_fuglede(plan)
        report.per_size[2].violations.append({"set": [[0, 0, 0, 0], [1, 0, 0, 0]]})
        return report

    monkeypatch.setattr(cli, "verify_fuglede", planted)
    rc, out = _verify_json(capsys, ["verify", "--group", "3,2,3,2", "--sizes", "2", "--exhaustive"])
    assert rc == EXIT_MISMATCH
    assert out["fuglede"]["ok"] is True
    sub = out["subgroup_tiling"]
    assert sub["ok"] is False
    assert sub["claim"] == "every tile of Z_2^2 x Z_3^2 has a subgroup complement"


def _rank_mod3(rows):
    """The rank over F_3 of integer vectors, by plain row elimination."""
    rows = [[x % 3 for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        # 1 and 2 are their own inverses mod 3
        rows[rank] = [x * rows[rank][col] % 3 for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % 3 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_sampled_verify_lists_spectral_sets_that_do_not_tile(capsys):
    # {0} with five points of rank 5 over F_3 is an automorphic image of
    # Tao's {0, e_1, ..., e_5} in Z_3^5: spectral, and 6 does not divide 243,
    # so it cannot tile. Each such draw must be listed as a mismatch, with a
    # spectrum that verifies, in draw order; on this seed nothing else is.
    G = make_group([3] * 5)
    argv = ["verify", "--group", "3,3,3,3,3", "--sizes", "6", "--samples", "300", "--seed", "1"]
    rc, out = _verify_json(capsys, argv)
    assert rc == EXIT_MISMATCH
    plan = VerificationPlan(group=G, sizes=(6,), seed=1, count_per_size=300)
    mismatches = out["fuglede"]["per_size"]["6"]["mismatches"]
    assert len(mismatches) == verify_fuglede(plan).mismatch_count
    for entry in mismatches:
        assert entry["spectral"] is True and entry["tile"] is False
        pts = [tuple(x) for x in entry["set"]]
        assert pts == sorted(pts) and pts[0] == G.identity
        lam = Multiset.set_of(G, entry["spectrum"])
        assert is_spectral_pair(Multiset.set_of(G, pts), lam)
    rng = random.Random("1:6")
    draws = [[G.coords_of(i) for i in rng.sample(range(1, 243), 5)] for _ in range(300)]
    full_rank = [[list(x) for x in [G.identity] + sorted(d)] for d in draws if _rank_mod3(d) == 5]
    assert len(full_rank) > 100
    assert [e["set"] for e in mismatches] == full_rank


def test_probe_command(capsys):
    rc = main(
        [
            "probe-case5",
            "--group", "3,3,5,5",
            "--samples", "5",
            "--seed", "1",
        ]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["examined"] == 5 and out["ok"] is True


def test_probe_command_gives_the_documented_tallies(capsys):
    # the example of the README and of case5_nonexistence_probe's docstring
    argv = ["probe-case5", "--group", "3,3,5,5", "--sizes", "30", "--samples", "400", "--seed", "7"]
    rc = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert out["examined"] == out["refuted"] == 400
    assert out["obstructions"] == {"leaf-overflow": 0, "leaf-structure": 0, "vanishing-pattern": 400}
    assert out["direction_gap"] == {"fails": 400, "holds": 0}
    assert out["aligned_leaf_hits"] == 0


def test_probe_command_refuses_an_empty_range(capsys):
    # Z_2^2 x Z_3^2 has no size in the case-5 range: exit 1, not an ok report
    rc = main(["probe-case5", "--group", "2,2,3,3", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE and captured.out == ""
    assert "probe range of Group(2, 2, 3, 3)" in json.loads(captured.err)["error"]


def _without_elapsed(text):
    return [
        line for line in text.splitlines() if not line.lstrip().startswith('"elapsed_seconds"')
    ]


def test_one_process_runs_commands_as_fresh_processes_do(capsys, subprocess_env):
    # main builds its parser once per process: a usage error inside argparse
    # leaves nothing behind for the commands after it
    commands = [
        ["verify", "--sizes", "2"],
        ["verify", "--group", "2,2,3", "--sizes", "2,3,4", "--samples", "30", "--seed", "4"],
        ["probe-case5", "--group", "3,3,5,5", "--sizes", "30", "--samples", "20", "--seed", "7"],
    ]
    for argv in commands:
        rc = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "spectile.cli", *argv],
            capture_output=True, text=True, env=subprocess_env,
        )
        assert rc == fresh.returncode
        assert _without_elapsed(captured.out) == _without_elapsed(fresh.stdout)
        assert captured.err == fresh.stderr
    assert [main(argv) for argv in commands] == [EXIT_USAGE, EXIT_OK, EXIT_OK]


def test_usage_errors(capsys):
    assert main(["verify", "--group", "x,y", "--sizes", "all"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["verify", "--group", "2,3", "--sizes", "bogus"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group", "2,3", "--sizes", "2,3", "--samples", "0", "--seed", "1"],
        ["probe-case5", "--group", "3,3,5,5", "--samples", "0", "--seed", "1"],
        ["enumerate-tiles", "--group", "2,3", "--size", "2", "--samples", "0", "--seed", "1"],
    ],
    ids=["verify", "probe-case5", "enumerate-tiles"],
)
def test_zero_samples_is_a_usage_error(capsys, argv):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in json.loads(captured.err)["error"]


def test_verify_refuses_exhaustive_with_samples(capsys):
    # the plan is the one that used to run a sampled sweep under --exhaustive
    argv = ["verify", "--group", "2,3", "--sizes", "2", "--exhaustive", "--samples", "3"]
    argv += ["--seed", "1"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert "--exhaustive" in error and "--samples" in error


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "--budget", "0"], "--budget"),
        (["spectrum", "--budget", "0"], "--budget"),
        (["complement", "--budget", "-1"], "--budget"),
        (["decompose", "--budget", "0"], "--budget"),
        (["enumerate-tiles", "--group", "2,3", "--size", "2", "--budget", "0"], "--budget"),
        (["enumerate-tiles", "--group", "2,3", "--size", "0"], "--size"),
        (["enumerate-tiles", "--group", "2,3", "--size", "-2"], "--size"),
        (["verify", "--group", "2,3", "--sizes", "2", "--budget", "0"], "--budget"),
        (["probe-case5", "--group", "3,3,5,5", "--seed", "1", "--budget", "0"], "--budget"),
    ],
    ids=[
        "analyze", "spectrum", "complement", "decompose", "enumerate-tiles-budget",
        "enumerate-tiles-size-0", "enumerate-tiles-size-negative", "verify", "probe-case5",
    ],
)
def test_nonpositive_budget_or_size_is_a_usage_error(capsys, argv, flag):
    # refused before a set document is read from stdin
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "command, option",
    [
        ("analyze", "--seed"),
        ("spectrum", "--seed"),
        ("complement", "--seed"),
        ("decompose", "--seed"),
        ("decompose", "--budget"),
    ],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, option):
    # no draw or search reads these, so they are not options of the command,
    # even with a valid set document
    f = tmp_path / "set.json"
    f.write_text(_doc([2, 3], [[0, 0], [1, 0]]))
    assert main([command, "--set", str(f), option, "5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert option in json.loads(captured.err)["error"]


def test_verify_refuses_canonicalize_with_samples(capsys):
    # the plan is the one whose sampled sweep used to ignore --canonicalize
    argv = ["verify", "--group", "2,2,3", "--sizes", "3", "--samples", "5", "--seed", "1"]
    assert main(argv + ["--canonicalize"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "canonicalize" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("extra", [[], ["--canonicalize"]], ids=["plain", "canonicalize"])
def test_verify_refuses_an_exhaustive_plan_that_cannot_finish(subprocess_env, extra):
    # the default --sizes all on Z_2^2 x Z_3^2 means 2^35 candidates; the
    # timeout turns a sweep that starts anyway into a failure
    out = subprocess.run(
        [sys.executable, "-m", "spectile.cli", "verify", "--group", "2,2,3,3", *extra],
        capture_output=True, text=True, env=subprocess_env, timeout=60,
    )
    assert out.returncode == EXIT_USAGE
    assert out.stdout == ""
    error = json.loads(out.stderr)["error"]
    assert "34359738368 candidates" in error and "--samples" in error


@pytest.mark.parametrize(
    "argv, count",
    [
        (["verify", "--group", "2,2,3,3", "--sizes", "9,12", "--samples", "10000000000"], 20000000000),
        (["probe-case5", "--group", "3,3,5,5", "--samples", "1000000000000"], 1000000000000),
        (["enumerate-tiles", "--group", "2,2,3,3", "--size", "18"], 4537567650),
        (["enumerate-tiles", "--group", "2,2,3,3", "--size", "6", "--samples", "1000000000"], 1000000000),
    ],
    ids=["verify-sampled", "probe-case5", "enumerate-tiles", "enumerate-tiles-sampled"],
)
def test_plans_over_the_candidate_cap_are_refused(capsys, monkeypatch, argv, count):
    import spectile.harness
    import spectile.tiling

    # refused before a single candidate is drawn
    monkeypatch.setattr(spectile.tiling, "index_tables", None)
    monkeypatch.setattr(spectile.tiling, "candidate_draws", None)
    monkeypatch.setattr(spectile.harness, "candidate_draws", None)
    monkeypatch.setattr(spectile.tiling.SeededDraws, "sums", None)
    monkeypatch.setattr(spectile.tiling.SeededDraws, "fibers", None)
    monkeypatch.setattr(spectile.harness, "leaf_tables", None)
    assert main(argv + ["--seed", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{count} candidates" in json.loads(captured.err)["error"]


def test_reports_survive_json_round_trip(capsys):
    G = make_group([2, 2, 3])
    report = verify_fuglede(VerificationPlan(group=G, sizes=(2, 3, 4)))
    for d in (report.to_dict(), report.subgroup_tiling_dict()):
        assert json.loads(json.dumps(d)) == d

    rc = main(["verify", "--group", "2,3", "--sizes", "2,3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == EXIT_OK
    assert json.loads(json.dumps(out)) == out


def test_import_loads_no_test_only_dependency(subprocess_env):
    # numpy, networkx and sympy are installed for tests; the package uses none
    code = "import sys, spectile; print(sorted({'numpy', 'networkx', 'sympy'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify"],
        ["verify", "--group", "2,3", "--samples", "x"],
        ["verify", "--group", "2,3", "--bogus"],
        ["bogus"],
    ],
    ids=["missing-group", "non-integer-samples", "unknown-flag", "unknown-command"],
)
def test_argparse_usage_errors_exit_1_with_a_json_error(capsys, argv):
    # argparse alone exits 2, the exit code of a theorem mismatch
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])
    assert exc.value.code == 0
    assert "--group" in capsys.readouterr().out


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["missing", "not-utf-8"])
def test_unreadable_set_document_is_a_usage_error(capsys, tmp_path, content):
    path = tmp_path / "set.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["analyze", "--set", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read the set document" in json.loads(captured.err)["error"]


def test_readme_library_example_runs(subprocess_env):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=subprocess_env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0] == "((0, 0, 0, 0), (1, 0, 0, 0))"
    assert lines[-1] == "True 74520"
