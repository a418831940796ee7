"""propcalc benchmark: one closed-loop, single-threaded process per workload.

Run from the root of a propcalc checkout:

    python3 perfbench/run.py --workload classes --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

The library is imported from ./src (never from an installed copy), in a
process whose PYTHONHASHSEED is fixed (the script re-executes itself to
set it).  The seed builds the workload's operations; the program only
sees those inputs.  Passes run every operation in a closed loop until
about --seconds of passes have elapsed, each operation checking its
answer exactly; set-up is timed before each of the first SETUP_RUNS
passes.  The answers of the first pass are digested and compared with
pins.json when the seed is pinned there.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of spans.py, from traced passes
alternated with untraced ones (the difference is the tracing overhead).
Run metadata and, for traced runs, the spans of the first traced pass go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("classes", "contract", "circuits", "rewrite")
SETUP_RUNS = 5
HASH_SEED = "0"


def load_library(root: Path):
    src = root / "src"
    if not (src / "propcalc" / "__init__.py").is_file():
        sys.exit(f"error: no propcalc sources under {src}; run from the "
                 "root of a propcalc checkout")
    sys.path.insert(0, str(src))
    import propcalc
    if Path(propcalc.__file__).resolve().parent != (src / "propcalc").resolve():
        sys.exit(f"error: imported propcalc from {propcalc.__file__}, "
                 f"not from {src}")
    for layer in ("graphs", "canonical", "freeprop", "rewrite", "tensor",
                  "pushouts"):
        importlib.import_module(f"propcalc.{layer}")
    return propcalc


# --- run metadata -----------------------------------------------------------

def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    ticks = [int(x) for x in fields[1:]]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def run_metadata(before: dict, ticks0, propcalc) -> dict:
    ticks1 = cpu_ticks()
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    return dict(before, **{
        "loadavg_after": list(os.getloadavg()),
        "steal_share": steal,
        "propcalc": propcalc.__version__,
    })


# --- measuring --------------------------------------------------------------

def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def plain(value):
    """JSON-able form of an operation's pinned values."""
    if hasattr(value, "rows"):
        return value.rows()
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, op):
        self.attempted += 1
        try:
            return op.run()
        except Exception as err:  # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.label}: {type(err).__name__}: {err}")
            return None

    def timed_pass(self, values: list | None = None):
        """(pass seconds, latency per operation); each operation's answer
        goes to `values` when given."""
        latencies = []
        clock = time.perf_counter
        start = clock()
        for op in self.ops:
            t0 = clock()
            result = self.call(op)
            latencies.append(clock() - t0)
            if values is not None:
                values.append(result)
        return clock() - start, latencies

    def digest(self, values: list) -> str:
        """sha256 of the pinned values, by operation label."""
        records = sorted([op.label, plain(v)]
                         for op, v in zip(self.ops, values))
        text = json.dumps(records, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def traced_pass(self) -> float:
        tracer = self.tracer
        clock = time.perf_counter
        start = clock()
        for i, op in enumerate(self.ops):
            tracer.op_id = i
            frame = tracer.enter(f"op.{op.kind}")
            try:
                self.call(op)
            finally:
                tracer.exit(frame)
        return clock() - start


def end_to_end(runner, passes, setup_times, tail_pct) -> tuple[dict, dict]:
    """End-to-end metrics with the host's slowdown per pass taken out.

    The host this was built on switched between two speeds about 1.5x
    apart, for seconds to minutes at a time, so raw medians of a run
    depended on how much of it fell in the slow state.  Each pass gets a
    slowdown factor, the median over operations of the operation's latency
    in that pass divided by its fastest latency in the run, and its
    latencies (and the set-up timed just before it) are divided by that
    factor.  A change that slows an operation slows its fastest latency
    too, so it still shows.  ops_per_s is operations per pass over the sum
    of each operation's median normalized latency; op_p50_ms and op_tail_ms
    are percentiles of all normalized latencies.
    """
    n_ops = len(runner.ops)
    best = [max(min(col), 1e-9) for col in zip(*(lat for _, lat in passes))]
    factors = [statistics.median(x / b for x, b in zip(lat, best))
               for _, lat in passes]
    normalized = [[x / f for x in lat] for (_, lat), f in zip(passes, factors)]
    latencies = [x for lat in normalized for x in lat]
    tail, beyond = percentile(latencies, tail_pct)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": (n_ops / sum(statistics.median(col)
                                  for col in zip(*normalized)), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(s / f for s, f in
                                      zip(setup_times, factors)), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": (1 - runner.failed / runner.attempted, "1"),
    }
    info = {"passes": len(passes), "ops_per_pass": n_ops,
            "latency_samples": len(latencies), "tail_pct": tail_pct,
            "tail_samples_beyond": beyond,
            "pass_s": [t for t, _ in passes], "pass_factors": factors,
            "setup_times_s": setup_times,
            "latency_s_by_pass": [lat for _, lat in passes]}
    return metrics, info


def traced(runner, first, start, seconds, propcalc, spans,
           out_stem) -> tuple[dict, dict]:
    """Alternate untraced and traced passes until `seconds` have elapsed;
    the per-layer metrics come from the traced ones."""
    tracer = runner.tracer
    plain_s, traced_s, layer_runs = [first[0]], [], []
    while time.perf_counter() - start < seconds or not traced_s:
        if len(plain_s) <= len(traced_s):
            plain_s.append(runner.timed_pass()[0])
            continue
        tracer.reset()
        installed = spans.Installed(tracer, propcalc)
        try:
            traced_s.append(runner.traced_pass())
        finally:
            installed.remove()
        layer_runs.append(spans.per_layer_metrics(tracer))
        if len(layer_runs) == 1:
            kept, dropped = tracer.spans, tracer.dropped
    metrics = {}
    for name, (value, unit) in layer_runs[0].items():
        if name.endswith("_s"):  # times vary; counts and ratios repeat
            value = statistics.median(run[name][0] for run in layer_runs)
        metrics[name] = (value, unit)
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / statistics.median(plain_s),
                                       "1")
    metrics["trace.spans"] = (len(kept) + dropped, "count")
    metrics["fail_ratio"] = (runner.failed / runner.attempted, "1")
    repeat = all(run[name] == layer_runs[0][name] for run in layer_runs
                 for name in run if not name.endswith("_s"))
    info = {"traced_passes": len(traced_s), "untraced_passes": len(plain_s),
            "traced_pass_s": traced_s, "untraced_pass_s": plain_s,
            "spans_kept": len(kept), "spans_dropped": dropped,
            "counts_repeat": repeat}
    spans.write_spans(f"{out_stem}.spans.jsonl", kept)
    return metrics, info


def run(args) -> int:
    root = Path.cwd()
    propcalc = load_library(root)
    import numpy
    before = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else None,
              "python": platform.python_version(),
              "numpy": numpy.__version__,
              "loadavg_before": list(os.getloadavg())}
    ticks0 = cpu_ticks()
    sys.path.insert(0, str(HERE))
    workload = importlib.import_module(f"workloads.{args.workload}")

    def timed_setup():
        t0 = time.perf_counter()
        ops = workload.setup(args.seed, tiny=args.tiny)
        return ops, time.perf_counter() - t0

    ops, setup_time = timed_setup()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    runner = Runner(ops, tracer)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.perf_counter()
    values: list = []
    passes = [runner.timed_pass(values)]
    digest = runner.digest(values)
    del values
    if args.trace:
        metrics, info = traced(runner, passes[0], start, args.seconds,
                               propcalc, spans, stem)
    else:
        # set-up is timed again before each of the first SETUP_RUNS passes;
        # a pass starts only when it should end near the deadline
        setup_times = [setup_time]
        measured = passes[0][0]
        while measured + passes[-1][0] / 2 < args.seconds:
            if len(setup_times) < SETUP_RUNS:
                setup_times.append(timed_setup()[1])
            passes.append(runner.timed_pass())
            measured += passes[-1][0]
        metrics, info = end_to_end(runner, passes, setup_times,
                                   workload.TAIL_PCT)
    pins = json.loads((HERE / "pins.json").read_text())
    pinned = None if args.tiny \
        else pins.get(args.workload, {}).get(str(args.seed))

    correct = runner.failed == 0 and pinned in (None, digest)
    meta = run_metadata(before, ticks0, propcalc)
    record = {"meta": meta, "digest": digest,
              "pinned_digest": pinned, "errors": runner.errors, **info}
    (Path(f"{stem}.json")).write_text(json.dumps(
        dict(record, metrics=metrics), indent=1))
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def self_check(seconds: float) -> int:
    """Run every workload at a tiny size, traced and untraced, and check
    that each metric BENCHMARK.json names is present with its unit."""
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 wl["name"], "--seed", "1", "--seconds", str(seconds),
                 "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{wl['name']} trace={trace}: exit "
                                f"{proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{wl['name']} trace={trace}: metrics "
                                f"{sorted(set(got) ^ set(want[trace]))} "
                                "missing or extra, or units differ")
            if not result["correct"] or result["failed"]:
                problems.append(f"{wl['name']} trace={trace}: incorrect")
            print(f"{wl['name']:9s} trace={trace} ok={not problems}",
                  flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (used by --self-check)")
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload tiny and check the metrics")
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing randomized per process moved throughput between
        # processes more than anything else measured; fix it and restart
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if args.self_check:
        return self_check(seconds=0.5)
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
