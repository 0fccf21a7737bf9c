"""Compare the verdict tallies of two results files of one workload and seed.

    python3 perfbench/compare.py A.json B.json

A and B are perfbench/results/BENCH_*.json files written by run.py, for
example at two commits. Time-boxed runs decide different numbers of chunks,
so the tallies are compared on the chunks both runs decided. Exits 0 when
those verdicts are identical, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def common_verdicts(a: dict, b: dict) -> tuple[int, list[str]]:
    """Number of chunks (or sets) compared, and the differences found."""
    ta, tb = a["tallies"], b["tallies"]
    if isinstance(ta, dict):  # per_set: one verdict letter per set
        va, vb = ta["verdicts"], tb["verdicts"]
        n = min(len(va), len(vb))
        return n, [f"set {i}: {va[i]} != {vb[i]}" for i in range(n) if va[i] != vb[i]]
    n = min(len(ta), len(tb))
    return n, [f"chunk {i}: {ta[i]} != {tb[i]}" for i in range(n) if ta[i] != tb[i]]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("the files are of different workloads or seeds", file=sys.stderr)
        return 2
    n, diffs = common_verdicts(a, b)
    for d in diffs:
        print(d)
    print(f"{a['workload']} seed {a['seed']}: {n} common chunks, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
