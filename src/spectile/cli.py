"""Command-line surface: set documents, reports, and sweep drivers.

Set documents are JSON: {"group": [2, 2, 3, 3], "set": [[0,0,0,0], ...]},
optionally with "multiplicities" aligned to "set". All reports are JSON with
stable key order. Exit codes: 0 all checks passed, 1 usage or parse error
(or stdout closed before the report was written), 2 a theorem mismatch was
found, 3 an undecided (budget-bound) entry exists. A verify violation (a tile
with no subgroup complement) is a mismatch only on the paper's Z_p^2 x Z_q^2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from typing import Optional

from .cyclotomic import cube_decompose, zero_set
from .errors import (
    DEFAULT_BUDGET,
    UNDECIDED,
    InvalidElement,
    ParseError,
    SpectileError,
)
from .groups import (
    Group,
    Multiset,
    determined_directions,
    direction_rep,
    make_group,
)
from .harness import (
    VerificationPlan,
    case5_nonexistence_probe,
    probe_sizes,
    verify_fuglede,
)
from .spectra import find_spectrum
from .structure import leaf_decomposition, pq_shape
from .tiling import enumerate_tiles, find_complement, find_tiling_complement

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_UNDECIDED = 3


# ---------------------------------------------------------------------------
# set documents


def parse_set_document(text: str) -> tuple[Group, Multiset]:
    """Parse a JSON set document into (group, multiset).

    Each element and multiplicity is checked once, in document order, here:
    the first fault raises InvalidElement (arity, then range) or ParseError
    (multiplicity). The checked counts then become the multiset without the
    constructor's second check (Multiset._of).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "group" not in doc or "set" not in doc:
        raise ParseError('document must be an object with "group" and "set"')
    try:
        group = make_group(doc["group"])
    except (SpectileError, TypeError) as exc:
        raise ParseError(f"bad group: {exc}") from exc
    elems = doc["set"]
    if not isinstance(elems, list):
        raise ParseError('"set" must be a list of coordinate tuples')
    mults = doc.get("multiplicities")
    if mults is not None and (not isinstance(mults, list) or len(mults) != len(elems)):
        raise ParseError('"multiplicities" must align with "set"')
    counts: dict = {}
    for i, e in enumerate(elems):
        if not isinstance(e, list) or len(e) != len(group.moduli):
            raise InvalidElement(f"element {e!r} has wrong arity for {list(group.moduli)}")
        x = tuple(e)
        if not group.contains(x):  # refuses JSON true/false too
            raise InvalidElement(f"element {e!r} out of range for {list(group.moduli)}")
        m = 1 if mults is None else mults[i]
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ParseError(f"multiplicity {m!r} must be a positive integer")
        counts[x] = counts.get(x, 0) + m
    indices = tuple(sorted(map(group.index_of, counts)))
    return group, Multiset._of(group, indices, sum(counts.values()), counts)


def serialize_set_document(A: Multiset) -> str:
    support = A.support
    doc = {"group": list(A.group.moduli), "set": [list(x) for x in support]}
    if not A.is_set:
        doc["multiplicities"] = [A.mult[x] for x in support]
    return json.dumps(doc, indent=2)


class _ReaderGone(Exception):
    """stdout was closed before the report was written."""


def _out(text: str) -> None:
    """Write one line of the report to stdout."""
    try:
        print(text)
    except BrokenPipeError:
        raise _ReaderGone from None


def _emit(doc: dict) -> None:
    _out(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args: argparse.Namespace) -> int:
    group, A = _load_set(args)
    if not A.is_set:
        raise ParseError("analyze expects a set (all multiplicities 1)")
    report: dict = {
        "group": list(group.moduli),
        "set": [list(x) for x in A.support],
        "size": A.mass,
        "gcd_class": math.gcd(A.mass, group.order),
    }
    zs = zero_set(group, A)
    by_direction: dict[str, list[list[int]]] = {}
    for g in sorted(zs.elements):
        d = direction_rep(group, g)
        by_direction.setdefault(str(list(d.rep)), []).append(list(g))
    report["zero_set"] = {
        "size": len(zs),
        "by_direction": {k: sorted(v) for k, v in sorted(by_direction.items())},
    }
    report["determined_directions"] = sorted(
        [list(d.rep) for d in determined_directions(A)]
    )

    undecided = []
    wit = find_spectrum(A, args.budget)
    if wit is UNDECIDED:
        report["spectral"] = None
        undecided.append("spectral")
    else:
        report["spectral"] = wit is not None
        report["spectrum"] = (
            [list(x) for x in wit.lam.support] if wit is not None else None
        )

    cwit = find_tiling_complement(A, args.budget)
    if cwit is UNDECIDED:
        report["tile"] = None
        undecided.append("tile")
    else:
        report["tile"] = cwit is not None
        report["complement"] = (
            [list(x) for x in cwit.t.support] if cwit is not None else None
        )
        if cwit is not None:
            report["complement_method"] = cwit.method.value

    try:
        shape = pq_shape(group)
    except SpectileError:
        shape = None
    if shape is not None:
        leaves = leaf_decomposition(shape, A).leaves
        report["leaves"] = {
            str(list(a)): sorted([list(b) for b in K])
            for a, K in sorted(leaves.items())
            if K
        }
    report["undecided"] = undecided
    _emit(report)
    if undecided:
        return EXIT_UNDECIDED
    if report["spectral"] != report["tile"]:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    _, A = _load_set(args)
    wit = find_spectrum(A, args.budget)
    if wit is UNDECIDED:
        _emit({"spectral": None, "undecided": True, "budget": args.budget})
        return EXIT_UNDECIDED
    if wit is None:
        _emit({"spectral": False, "spectrum": None})
    else:
        _emit(
            {
                "spectral": True,
                "spectrum": [list(x) for x in wit.lam.support],
                "checked_pairs": wit.checked_pairs,
            }
        )
    return EXIT_OK


def cmd_complement(args: argparse.Namespace) -> int:
    _, A = _load_set(args)
    wit = find_complement(A, args.budget)
    if wit is UNDECIDED:
        _emit({"tile": None, "undecided": True, "budget": args.budget})
        return EXIT_UNDECIDED
    if wit is None:
        _emit({"tile": False, "complement": None})
    else:
        _emit(
            {
                "tile": True,
                "complement": [list(x) for x in wit.t.support],
                "method": wit.method.value,
            }
        )
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    _, A = _load_set(args)
    out = cube_decompose(A)
    if out is None:
        _emit({"decomposition": None})
    else:
        _emit(
            {
                "decomposition": {
                    "p": out.p,
                    "q": out.q,
                    "row_coeffs": list(out.row_coeffs),
                    "col_coeffs": list(out.col_coeffs),
                }
            }
        )
    return EXIT_OK


def cmd_enumerate_tiles(args: argparse.Namespace) -> int:
    group = make_group(_parse_moduli(args.group))
    if args.size < 1:
        raise ParseError(f"--size must be a positive count, got {args.size}")
    count = _samples(args)
    seed = None if count is None else _require_seed(args)
    found = 0
    for S, wit in enumerate_tiles(group, args.size, seed=seed, count=count, budget=args.budget):
        found += 1
        _out(
            json.dumps(
                {
                    "tile": [list(x) for x in S.support],
                    "complement": [list(x) for x in wit.t.support],
                    "method": wit.method.value,
                }
            )
        )
    _out(json.dumps({"count": found, "size": args.size, "seed": seed}))
    return EXIT_OK


def _parse_sizes(spec: str, group: Group) -> tuple[int, ...]:
    if spec == "all":
        return tuple(range(1, group.order + 1))
    try:
        return tuple(int(tok) for tok in spec.split(","))
    except ValueError as exc:
        raise ParseError(f"bad sizes {spec!r}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    group = make_group(_parse_moduli(args.group))
    sizes = _parse_sizes(args.sizes, group)
    if args.exhaustive and args.samples is not None:
        raise ParseError("--exhaustive and --samples exclude each other")
    count = _samples(args)
    seed = args.seed if count is None else _require_seed(args)
    plan = VerificationPlan(
        group=group,
        sizes=sizes,
        seed=seed,
        count_per_size=count,
        budget=args.budget,
        canonicalize=args.canonicalize,
        workers=args.workers,
    )
    report = verify_fuglede(plan)
    _emit({"fuglede": report.to_dict(), "subgroup_tiling": report.subgroup_tiling_dict()})
    # a subgroup-tiling violation fails the run only where the claim is made;
    # an undecided tile verdict is an undecided Fuglede entry too
    if report.mismatch_count or report.violation_count and report.subgroup_claim:
        return EXIT_MISMATCH
    return EXIT_OK if report.ok else EXIT_UNDECIDED


def cmd_probe_case5(args: argparse.Namespace) -> int:
    group = make_group(_parse_moduli(args.group))
    shape = pq_shape(group)
    sizes = (
        probe_sizes(shape)
        if args.sizes in (None, "all")
        else _parse_sizes(args.sizes, group)
    )
    count = 100 if _samples(args) is None else args.samples
    seed = _require_seed(args)
    report = case5_nonexistence_probe(
        shape, sizes, seed=seed, count_per_size=count, budget=args.budget
    )
    _emit(report.to_dict())
    if report.spectral_hits:
        return EXIT_MISMATCH
    if report.undecided:
        return EXIT_UNDECIDED
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def _parse_moduli(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad group moduli {text!r}") from exc


def _load_set(args: argparse.Namespace) -> tuple[Group, Multiset]:
    try:
        if args.set:
            with open(args.set, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read the set document: {exc}") from exc
    return parse_set_document(text)


def _samples(args: argparse.Namespace) -> Optional[int]:
    """--samples as given (None when absent); a count below 1 is refused."""
    if args.samples is not None and args.samples < 1:
        raise ParseError(f"--samples must be a positive count, got {args.samples}")
    return args.samples


def _require_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    import random as _random

    seed = _random.SystemRandom().randrange(2**31)
    # stdout carries only the report, which records the seed as well
    print(json.dumps({"generated_seed": seed}), file=sys.stderr)
    return seed


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError, so they exit EXIT_USAGE, not argparse's
    2 (EXIT_MISMATCH). Subparsers are built with the same class."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """The spectile parser; main runs subcommand NAME as cmd_NAME, dashes
    read as underscores."""
    parser = _Parser(
        prog="spectile",
        description="Exact spectral-set and tiling decisions on finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budget(text: str) -> int:  # refused as it is parsed, before stdin is read
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"must be a positive count, got {text}")
        return int(text)

    def add_common(p: argparse.ArgumentParser, seeded: bool = True) -> None:
        p.add_argument("--budget", type=budget, default=DEFAULT_BUDGET, help="search node budget")
        if seeded:  # the commands that draw
            p.add_argument("--seed", type=int, default=None, help="seed for randomized modes")

    for name, about in (
        ("analyze", "full report for one set"),
        ("spectrum", "find a spectrum for a set"),
        ("complement", "find a tiling complement for a set"),
        ("decompose", "row/column decomposition on Z_p x Z_q"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("--set", help="path to a JSON set document (default: stdin)")
        if name != "decompose":  # cube_decompose runs no search
            add_common(p, seeded=False)

    p = sub.add_parser("enumerate-tiles", help="stream tiles of a given size")
    p.add_argument("--group", required=True, help="comma-separated moduli")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--samples", type=int, default=None, help="sample instead of exhaust")
    add_common(p)

    p = sub.add_parser("verify", help="spectral <=> tile sweep plus subgroup-tiling check")
    p.add_argument("--group", required=True, help="comma-separated moduli")
    p.add_argument("--sizes", default="all", help="comma-separated sizes or 'all'")
    p.add_argument("--exhaustive", action="store_true", help="exhaustive enumeration (default)")
    p.add_argument(
        "--samples", type=int, default=None,
        help="sampled candidates per size (not with --exhaustive)",
    )
    p.add_argument("--canonicalize", action="store_true", help="reduce by automorphisms")
    p.add_argument("--workers", type=int, default=1)
    add_common(p)

    p = sub.add_parser("probe-case5", help="sampled nonexistence probe in the hard size range")
    p.add_argument("--group", required=True, help="comma-separated moduli (p,p,q,q)")
    p.add_argument("--sizes", default=None, help="comma-separated sizes (default: full range)")
    p.add_argument("--samples", type=int, default=None, help="candidates per size")
    add_common(p)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up when called, so a replaced cmd_* function is the one run
        rc = globals()["cmd_" + args.command.replace("-", "_")](args)
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            raise _ReaderGone from None
        return rc
    except _ReaderGone:
        # the reader closed stdout early (`spectile verify ... | head`): the
        # rest of the report goes to devnull, so that the flush at exit
        # raises no second BrokenPipeError
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except ParseError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except SpectileError as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
