"""End-to-end IQB benchmark: the real CLI and ``iqb serve``, wall-clock.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tall_34k --seed 1 --seconds 52 --trace 0

Each run generates its workload input from ``--seed`` (see
:mod:`inputs`), drives ``python -m repro`` children, checks every output
(:mod:`checks`, :mod:`loadgen`) and prints one JSON line last::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, all measured with nothing
traced. ``--trace 1`` instead runs the traced per-layer pass
(:mod:`layers`) and reports the per-layer metrics. Metric names and
units are declared here and in ``BENCHMARK.json``; the self-test keeps
the two in step.

``tall_34k``: as many rounds as fit ``--seconds``, at least three. A
round runs ``iqb score`` exact, sketch and ``--from-cache``, then a
read-only window of 100 requests at 100/s against one ``iqb serve
--from-cache`` that lives through the run; each of the first three
rounds starts with an ``iqb cache build``, whose median is
``setup_s``. The latency figures pool every window. ``serve_follow``:
the load is 1000 requests in an open loop at 40/s (25 s) on an ``iqb
serve --follow`` of the generated file while 64-record batches are
appended every 2 s; score rounds fill the rest of ``--seconds``, at
least three before the load and three after it. ``setup_s`` is the
median of three boots (launch to first 200): one before the first
rounds, the loaded server, and one at the end. Every metric is a
median (or a pool) of samples
spread over the whole run, so one slow spell of the host moves one
sample, not the figure.

Work files go under ``.perfbench_work/`` in the current directory and
are removed when the run ends (span dumps of traced runs are kept).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional

WORKLOADS = ("tall_34k", "serve_follow")

#: name -> unit, in ``--trace 0`` runs.
END_TO_END = {
    "setup_s": "s",
    "score_exact_s": "s",
    "score_sketch_s": "s",
    "score_from_cache_s": "s",
    "peak_rss_mb": "MB",
    "serve_p50_ms": "ms",
    "serve_slo_share": "share",
}

#: name -> unit, in ``--trace 1`` runs (see :mod:`layers`).
PER_LAYER = {
    "cli.import_s": "s",
    "io.read_jsonl_s": "s",
    "io.rows_per_s": "1/s",
    "io.records_read": "count",
    "io.records_skipped": "count",
    "columnar.build_s": "s",
    "columnar.aggregate_cube_s": "s",
    "columnar.append_s": "s",
    "sketchplane.extend_s": "s",
    "sketchplane.aggregate_cube_s": "s",
    "sketchplane.cells_over_1pct": "count",
    "kernel.score_cube_values_s": "s",
    "kernel.rebuild_s": "s",
    "kernel.regions": "count",
    "render.to_dict_s": "s",
    "render.json_dumps_s": "s",
    "render.json_bytes": "bytes",
    "cache.build_tiles_s": "s",
    "cache.write_tiles_s": "s",
    "cache.warm_plane_s": "s",
    "cache.tiles_read": "count",
    "cache.bytes_read": "bytes",
    "cache.sketch_mismatch_cells": "count",
    "serve.ingest_s": "s",
    "serve.sweep_values_s": "s",
    "serve.sweep_breakdowns_s": "s",
    "serve.staleness_ms": "ms",
    "serve.dispatch_hit_ms": "ms",
    "serve.cache_hit_share": "share",
    "serve.sweeps": "count",
    "serve.coalesced": "count",
    "serve.follow_records": "count",
    "parallel.read_jsonl_w2_s": "s",
    "parallel.read_jsonl_w2_parent_cpu_s": "s",
    "obs.trace_manifest_overhead_s": "s",
    "trace.overhead_share": "share",
    "trace.coverage_share": "share",
    "serve_p99_ms": "ms",
    "loadgen.max_late_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "failed_share": "share",
    "parity_mismatches": "count",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``serve_follow`` score rounds on each side of the load, at least.
SERVE_ROUNDS = 3


class Run:
    """Everything one benchmark invocation shares."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 scale: str, corrupt: bool = False) -> None:
        from checks import Tally
        from procs import cli_env

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.corrupt = corrupt
        self.env = cli_env(root)
        self.base = os.path.join(root, ".perfbench_work")
        self.work = os.path.join(self.base, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.tally = Tally()
        self.parity_mismatches = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def iqb(self, args: List[str], out: str):
        from procs import iqb_argv, run_timed

        return run_timed(iqb_argv(args), self.env, self.path(out))

    def read(self, out: str) -> bytes:
        with open(self.path(out), "rb") as handle:
            payload = handle.read()
        if self.corrupt and out.startswith("exact"):
            # Self-test hook: damage one byte of the first exact output.
            self.corrupt = False
            payload = payload[:-2] + b"#" + payload[-1:]
        return payload


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def score_round(run: Run, inputs_path: str, cache: str, checker, samples: Dict[str, list]) -> None:
    """One timed pass over the three ``iqb score`` routes, each checked."""
    exact = run.iqb(["score", inputs_path, "--json"], "exact.json")
    checker.exact(run.read("exact.json"), exact.returncode)
    sketch = run.iqb(["--quantiles", "sketch", "score", inputs_path, "--json"], "sketch.json")
    sketch_payload = run.read("sketch.json")
    checker.sketch(sketch_payload, sketch.returncode)
    cached = run.iqb(["score", "--from-cache", cache, "--json"], "cache.json")
    checker.from_cache(run.read("cache.json"), cached.returncode, sketch_payload)
    samples["score_exact_s"].append(exact.wall_s)
    samples["score_sketch_s"].append(sketch.wall_s)
    samples["score_from_cache_s"].append(cached.wall_s)
    samples["peak_rss_mb"].append(exact.maxrss_mb)


def _samples() -> Dict[str, list]:
    return {"score_exact_s": [], "score_sketch_s": [], "score_from_cache_s": [], "peak_rss_mb": []}


def timed_rounds(budget_s: float, minimum: int):
    """Round numbers 0, 1, ...: at least ``minimum`` (>= 1), then as long
    as the next round, at the mean round's length, ends within
    ``budget_s`` of the first round's start."""
    start = time.perf_counter()
    rounds = 0
    while rounds < minimum or (
        (time.perf_counter() - start) * (rounds + 1) / rounds <= budget_s
    ):
        yield rounds
        rounds += 1


def _figures(setups: List[float], samples: Dict[str, list], rss_mb: float,
             report) -> Dict[str, float]:
    return {
        "setup_s": _median(setups),
        "score_exact_s": _median(samples["score_exact_s"]),
        "score_sketch_s": _median(samples["score_sketch_s"]),
        "score_from_cache_s": _median(samples["score_from_cache_s"]),
        "peak_rss_mb": rss_mb,
        "serve_p50_ms": report.p50_ms if report else 0.0,
        "serve_p99_ms": report.p99_ms if report else 0.0,
        "serve_requests": report.sent if report else 0,
        "serve_slo_share": report.slo_share if report else 0.0,
    }


def batch_workload(run: Run) -> Dict[str, float]:
    from checks import RouteChecker, oracle_document
    from inputs import generate
    from serving import BATCH_SERVE, ROUND_REQUESTS, boot_read_only, drive_load, pooled_report

    inputs = generate(run.workload, run.seed, run.scale, run.work)
    checker = RouteChecker(oracle_document(inputs.records), inputs.regions, run.tally)
    setups: List[float] = []
    samples = _samples()
    windows = []
    server = None
    rate = BATCH_SERVE[run.scale][1]
    try:
        # Set-ups, score routes and serve windows alternate, so every
        # metric samples the whole run and a burst of host load lands on
        # one sample of each rather than on all of one.
        for rounds in timed_rounds(run.seconds, SETUP_REPEATS):
            if rounds < SETUP_REPEATS:
                cache = run.path(f"cache{rounds}")
                built = run.iqb(["cache", "build", inputs.path, "--cache", cache], "build.out")
                run.tally.record(built.returncode == 0, "cache build failed")
                setups.append(built.wall_s)
            score_round(run, inputs.path, cache, checker, samples)
            if rounds == 0:
                server = boot_read_only(run, cache)
            if server is not None:
                windows.append(drive_load(
                    server, inputs.regions, ROUND_REQUESTS[run.scale], rate,
                    run.seed + rounds,
                ))
    finally:
        if server is not None:
            run.tally.record(server.stop(), "serve did not drain cleanly")
    run.parity_mismatches = checker.parity_mismatches
    report = pooled_report(run, windows, inputs.regions)
    return _figures(setups, samples, _median(samples["peak_rss_mb"]), report)


def serve_workload(run: Run) -> Dict[str, float]:
    from checks import RouteChecker, oracle_document
    from inputs import generate
    from serving import boot_once, check_final_scores, follow_phase, follow_seconds

    inputs = generate(run.workload, run.seed, run.scale, run.work)
    # Score rounds and the unloaded boots read this copy; the loaded
    # server's file grows.
    initial = run.path("initial.jsonl")
    shutil.copyfile(inputs.path, initial)
    checker = RouteChecker(oracle_document(inputs.records), inputs.regions, run.tally)
    cache = run.path("cache")
    built = run.iqb(["cache", "build", initial, "--cache", cache], "build.out")
    run.tally.record(built.returncode == 0, "cache build failed")
    samples = _samples()
    rounds_s = max(0.0, run.seconds - follow_seconds(run.scale)) / 2
    boots = [boot_once(run, initial)]
    for _ in timed_rounds(rounds_s, SERVE_ROUNDS):
        score_round(run, initial, cache, checker, samples)
    loaded, report, final, _, appended, rss = follow_phase(run, inputs)
    boots.append(loaded)
    for _ in timed_rounds(rounds_s, SERVE_ROUNDS):
        score_round(run, initial, cache, checker, samples)
    boots.append(boot_once(run, initial))
    records = list(inputs.records)
    for batch in appended:
        records.extend(batch)
    check_final_scores(run, final, oracle_document(records))
    run.parity_mismatches = checker.parity_mismatches
    return _figures([b for b in boots if b is not None], samples, rss, report)


def execute(root: str, workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full", corrupt: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    run = Run(root, workload, seed, seconds, scale, corrupt)
    try:
        if trace:
            from layers import traced_run

            values = traced_run(run)
            units = PER_LAYER
        else:
            values = (serve_workload if workload == "serve_follow" else batch_workload)(run)
            units = END_TO_END
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for reason in run.tally.reasons:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    if not trace:
        # Per-layer metrics, shown here too: a defect is never silent,
        # and the tail is stated with its sample count.
        print(f"perfbench: parity_mismatches={run.parity_mismatches}", file=sys.stderr)
        print(f"perfbench: serve_p99_ms={values['serve_p99_ms']:.3f} "
              f"over {values['serve_requests']} requests", file=sys.stderr)
    return {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: self-test inputs (seconds, not minutes)")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the finally blocks stop every child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("perfbench: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    result = execute(root, args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
