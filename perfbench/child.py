"""One measured process: cold import, set-up, timed work, then checks.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
                               [--chunks K] [--trace] [--setup-only]

Prints "ready" once the package is imported and the workload's per-group
tables are built (run.py times set-up to that line), then, unless
--setup-only, runs chunks until S seconds have passed (or exactly K chunks)
and prints one JSON document. Each chunk's output is checked right after
its call, outside the call's timing, and then dropped. Chunk latencies are
scaled to reference speed (speed.py).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--chunks", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import spectile
    import spectile.cli  # noqa: F401  (workloads call spectile.cli.main)

    if not Path(spectile.__file__).resolve().is_relative_to(src):
        print(f"spectile imported from {spectile.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    state = wl.set_up(spectile)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    # imported only now, so that set-up times as little of the benchmark as possible
    import json
    import resource
    import statistics
    import time

    import gate
    import speed

    inputs = wl.inputs(args.seed)
    intervals = []
    items = failed = 0
    tallies, failures = [], []
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        for i, spec in enumerate(inputs):
            if args.chunks is not None:
                if i >= args.chunks:
                    break
            elif i and time.perf_counter() - start >= args.seconds:
                break
            t0 = time.perf_counter()
            try:
                out = wl.run(state, spec)
            except Exception as exc:  # a failed item is counted, not fatal
                t1 = time.perf_counter()
                verdict = gate.Verdict()
                verdict.fail(f"{type(exc).__name__}: {exc}")
            else:
                t1 = time.perf_counter()
                # checked now and dropped, so retained outputs do not inflate
                # the peak RSS or the heap the next calls run on
                verdict = wl.check(spec, out)
                del out
            intervals.append((t0, t1))
            items += wl.items(spec)
            failed += verdict.failed
            failures.extend(verdict.failures[: 50 - len(failures)])
            tallies.append(verdict.tallies)
        raw_wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [probe.scaled(t0, t1) for t0, t1 in intervals]
    loop_s = [e - s for s, e in zip(probe.starts, probe.ends)]

    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = layers.report(tracer)

    print(json.dumps({
        "chunks": len(intervals),
        "items": items,
        "failed": failed,
        "work_s": sum(latencies),
        "raw_work_s": sum(t1 - t0 for t0, t1 in intervals),
        "raw_wall_s": raw_wall,
        "latencies_s": latencies,
        "reference_loop_s": {"samples": len(loop_s), "median": statistics.median(loop_s)},
        "peak_rss_mb": peak_rss_mb,
        "tallies": wl.summarize(tallies),
        "failures": failures,
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
