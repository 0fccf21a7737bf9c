"""The spectile benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it measures the package under
<checkout>/src and needs nothing installed. Every measured process is a
fresh interpreter (child.py), started one at a time and pinned to one CPU,
so caches start cold as they do for a CLI user and load comes from one
process.

--trace 0 reports the end-to-end metrics. Times of timed calls are scaled to
reference speed (speed.py) to cancel the drift of a shared machine.
    items_per_s   candidates decided (sweeps, probe) or sets processed
                  (per_set) per second spent in the timed calls
    call_p50_ms   median latency of one timed call: one CLI invocation
    call_p99_ms   (sweeps, probe) or one set's pipeline (per_set); p99 by
                  nearest rank, so with fewer than 100 calls it is the max
    setup_s       median over SETUP_SAMPLES fresh interpreters of the time
                  from spawn until the package is imported and the
                  workload's per-group tables are built
    peak_rss_mb   peak resident memory of the measured process
--trace 1 repeats the untraced run, then runs the same chunks again with the
per-layer wrappers of layers.py installed, and reports the per-layer metrics
plus the tracing overhead (traced minus untraced time of the timed calls).

A run whose outputs fail the gate (gate.py) prints "correct": false and no
metrics. Everything else a run learns (verdict tallies, failed_frac,
environment, spans) goes to perfbench/results/BENCH_<workload>_seed<seed>_trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_exhaustive", "sweep_sampled", "per_set", "case5_probe")
SETUP_SAMPLES = 7  # set-up-only interpreters per run
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def _loop_time() -> float:
    return statistics.fmean(e - s for s, e in (speed.sample() for _ in range(20)))


def _child(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run child.py; returns (seconds from spawn to "ready" at reference
    speed, its JSON or None). The speed is sampled on the same CPU just
    before the spawn and after the child has exited, so that the child
    never competes with the sampling."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    before = _loop_time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise ChildFailed(f"{cmd[2:]} did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"{cmd[2:]} exited with {proc.returncode}")
    setup *= speed.REFERENCE_S / ((before + _loop_time()) / 2)
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _environment() -> dict:
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
         if ln.startswith("model name")),
        platform.processor(),
    )
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        head = _read(str(ROOT / ".git" / head[5:])).strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": head or None,
        "src_sha256": digest.hexdigest(),
    }


def _loadavg() -> list[float]:
    return [float(x) for x in _read("/proc/loadavg").split()[:3]]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spectile" / "__init__.py").is_file():
        print(f"no spectile package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _environment()
    # one CPU for the whole run: the reference loop then samples the speed
    # of the core the measured process runs on, and load comes from one process
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    env["loadavg_before"] = _loadavg()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    try:
        if args.trace:
            _, plain = _child(base, deadline)
            _, traced = _child([*base, "--chunks", str(plain["chunks"]), "--trace"], deadline)
            measured = [plain, traced]
        else:
            setups = [_child([*base, "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES)]
            _, plain = _child(base, deadline)
            measured = [plain]
    except (ChildFailed, subprocess.TimeoutExpired, json.JSONDecodeError, TypeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    env["loadavg_after"] = _loadavg()

    attempted = sum(m["items"] for m in measured)
    failed = sum(m["failed"] for m in measured)
    correct = failed == 0
    metrics: dict = {}
    if correct and not args.trace:
        lat_ms = [x * 1000 for x in plain["latencies_s"]]
        metrics = {
            "items_per_s": {"value": plain["items"] / plain["work_s"], "unit": "1/s"},
            "call_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "call_p99_ms": {"value": _nearest_rank(lat_ms, 0.99), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        }
        record["calls"] = len(lat_ms)
        record["setup_samples_s"] = setups
    elif correct:
        layer = traced["trace"]["metrics"]
        absent = [k for k, m in layer.items() if m.get("absent")]
        # layer seconds at reference speed, like every other time reported
        scale = traced["work_s"] / traced["raw_work_s"]
        # the JSON line carries numbers only; absent metrics read 0 there and
        # are named in the results file and in trace.absent_names
        metrics = {
            k: {"value": m.get("value", 0) * (scale if m["unit"] == "s" else 1), "unit": m["unit"]}
            for k, m in layer.items()
        }
        metrics["trace.traced_work_s"] = {"value": traced["work_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced["work_s"] - plain["work_s"], "unit": "s"}
        metrics["trace.absent_names"] = {"value": len(traced["trace"]["absent"]), "unit": "count"}
        record["absent_metrics"] = absent
        record["trace"] = traced["trace"]

    record.update(
        environment=env,
        correct=correct,
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted if attempted else 1.0,
        chunks=[m["chunks"] for m in measured],
        work_s=[m["work_s"] for m in measured],
        raw_work_s=[m["raw_work_s"] for m in measured],
        raw_wall_s=[m["raw_wall_s"] for m in measured],
        reference_loop_s=[m["reference_loop_s"] for m in measured],
        peak_rss_mb=[m["peak_rss_mb"] for m in measured],
        metrics=metrics,
        tallies=plain["tallies"],
        failures=[f for m in measured for f in m["failures"]][:50],
    )
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for f in record["failures"]:
        print(f"check failed: {f}", file=sys.stderr)
    print(f"details: {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
