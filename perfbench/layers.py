"""The traced run: per-layer numbers from spans around each public call.

The in-process passes replay what the CLI routes do, one public call
per span, so each layer's self time is attributable:

* ``pass.exact``  — ``iqb score --json``: ``read_jsonl`` →
  ``ColumnarStore`` → ``aggregate_cube`` → ``score_cube_values`` /
  ``score_cube`` → ``to_dict`` → ``json.dumps``.
* ``pass.sketch`` — ``--quantiles sketch``: ``SketchPlane.extend`` →
  ``aggregate_cube``.
* ``pass.cache``  — ``iqb cache build`` / ``--from-cache``:
  ``build_tiles``, ``write_tiles`` (which builds again, as the CLI
  does), ``warm_plane``.

``kernel.rebuild_s`` is ``score_cube`` minus ``score_cube_values``: the
breakdown reconstruction the scores-only path skips. The same exact
pass also runs once untraced (after a warm-up pass); the gap is
``trace.overhead_share``. Serve numbers come from an in-process
``ScoringService`` (ingest, sweeps, ``ServeServer.dispatch``) and from a
live ``iqb serve`` under the workload's load; ``parallel`` and ``obs``
numbers come from their own calls. A layer a workload does not exercise
reads 0 (for example ``serve.follow_records`` on ``tall_34k``).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict

import numpy as np

from repro.cache import LocalCache, build_tiles, tile_entries, warm_plane, write_tiles
from repro.core.config import paper_config
from repro.core.kernel import score_cube, score_cube_values
from repro.core.metrics import Metric
from repro.measurements.columnar import ColumnarStore
from repro.measurements.io import IngestStats, read_jsonl
from repro.measurements.sketchplane import SketchPlane
from repro.parallel import read_jsonl_parallel
from repro.serve import ScoringService, ServeServer

from checks import RouteChecker, differing_cells, oracle_document, over_bound
from inputs import append_batches, generate
from serving import check_final_scores, follow_phase, read_only_window
from tracing import Tracer

#: In-process ingest/sweep cycles and cached dispatches measured.
SERVE_CYCLES = 5
DISPATCHES = 200


def cube_cells(cube, datasets) -> Dict[tuple, object]:
    """(region, metric, dataset) -> aggregate (None when unobserved)."""
    cells = {}
    metrics = Metric.ordered()
    for g, region in enumerate(cube.regions):
        for d, dataset in enumerate(datasets):
            for r, metric in enumerate(metrics):
                value = cube.aggregates[g, d, r]
                cells[(region, metric.value, dataset)] = (
                    None if np.isnan(value) else float(value)
                )
    return cells


def exact_pass(tracer: Tracer, path: str, config, out: dict) -> None:
    """``iqb score --json`` (exact) as public calls under one root span."""
    cc = config.compiled()
    with tracer.span("pass.exact"):
        stats = IngestStats()
        with tracer.span("io.read_jsonl"):
            records = read_jsonl(path, stats=stats)
        with tracer.span("columnar.build"):
            store = ColumnarStore.from_measurements(records)
        with tracer.span("columnar.aggregate_cube"):
            cube = store.aggregate_cube(cc.datasets, cc.percentiles)
        with tracer.span("kernel.score_cube_values"):
            score_cube_values(cube.regions, cube.aggregates, cube.counts, config)
        with tracer.span("kernel.score_cube"):
            breakdowns = score_cube(cube.regions, cube.aggregates, cube.counts, config)
        with tracer.span("render.to_dict"):
            document = {
                "kernel": "vectorized",
                "regions": {r: b.to_dict() for r, b in breakdowns.items()},
            }
        with tracer.span("render.json_dumps"):
            text = json.dumps(document, indent=2, sort_keys=True)
    out.update(stats=stats, records=records, cube=cube, text=text)


def traced_run(run) -> Dict[str, float]:
    inputs = generate(run.workload, run.seed, run.scale, run.work)
    config = paper_config()
    cc = config.compiled()
    metrics: Dict[str, float] = {}
    metrics["cli.import_s"] = statistics.median(_import_times(run, 3))

    tracer = Tracer()
    cache_dir = run.path("cache")
    if run.workload == "serve_follow":
        # Live first: the follower grows the file the passes then read.
        _, report, final, counters, appended, _ = follow_phase(run, inputs)
        records = list(inputs.records)
        for batch in appended:
            records.extend(batch)
        oracle = oracle_document(records)
        check_final_scores(run, final, oracle)
    else:
        oracle = oracle_document(inputs.records)

    # Warm-up, traced, untraced: the overhead compares two warm passes,
    # each started from a collected heap.
    exact_pass(Tracer(enabled=False), inputs.path, config, {})
    gc.collect()
    out: dict = {}
    exact_pass(tracer, inputs.path, config, out)
    gc.collect()
    start = time.perf_counter()
    exact_pass(Tracer(enabled=False), inputs.path, config, {})
    untraced = time.perf_counter() - start
    run.tally.record((out["text"] + "\n").encode() == oracle, "in-process exact pass != oracle")
    records = out["records"]

    with tracer.span("pass.sketch"):
        plane = SketchPlane()
        with tracer.span("sketchplane.extend"):
            plane.extend(records)
        with tracer.span("sketchplane.aggregate_cube"):
            sketch_cube = plane.aggregate_cube(cc.datasets, cc.percentiles)
    with tracer.span("pass.cache"):
        with tracer.span("cache.build_tiles"):
            build_tiles(records)
        cache = LocalCache(cache_dir)
        with tracer.span("cache.write_tiles"):
            write_tiles(cache, records)
        with tracer.span("cache.warm_plane"):
            warmed = warm_plane(LocalCache(cache_dir))
    warm_cube = warmed.aggregate_cube(cc.datasets, cc.percentiles)
    entries = tile_entries(cache)

    exact_cells = cube_cells(out["cube"], cc.datasets)
    sketch_cells = cube_cells(sketch_cube, cc.datasets)
    inclusive = tracer.inclusive()
    self_s = tracer.self_times()
    stats = out["stats"]
    metrics.update({
        "io.read_jsonl_s": self_s["io.read_jsonl"],
        "io.rows_per_s": stats.read / self_s["io.read_jsonl"],
        "io.records_read": stats.read,
        "io.records_skipped": stats.skipped,
        "columnar.build_s": self_s["columnar.build"],
        "columnar.aggregate_cube_s": self_s["columnar.aggregate_cube"],
        "sketchplane.extend_s": self_s["sketchplane.extend"],
        "sketchplane.aggregate_cube_s": self_s["sketchplane.aggregate_cube"],
        "sketchplane.cells_over_1pct": sum(
            over_bound(exact_cells[k], sketch_cells.get(k)) for k in exact_cells
        ),
        "kernel.score_cube_values_s": self_s["kernel.score_cube_values"],
        "kernel.rebuild_s": max(
            0.0, self_s["kernel.score_cube"] - self_s["kernel.score_cube_values"]
        ),
        "kernel.regions": len(out["cube"].regions),
        "render.to_dict_s": self_s["render.to_dict"],
        "render.json_dumps_s": self_s["render.json_dumps"],
        "render.json_bytes": len(out["text"].encode()) + 1,
        "cache.build_tiles_s": self_s["cache.build_tiles"],
        "cache.write_tiles_s": self_s["cache.write_tiles"],
        "cache.warm_plane_s": self_s["cache.warm_plane"],
        "cache.tiles_read": len(entries),
        "cache.bytes_read": sum(e.bytes for e in entries),
        "cache.sketch_mismatch_cells": len(
            differing_cells(sketch_cells, cube_cells(warm_cube, cc.datasets))
        ),
        "trace.overhead_share": (inclusive["pass.exact"] - untraced) / untraced,
        "trace.coverage_share": tracer.coverage("pass.exact", "pass.sketch", "pass.cache"),
    })
    del out, plane, warmed

    metrics.update(_serve_in_process(run, tracer, records, inputs.regions, config))
    del records

    if run.workload != "serve_follow":
        report, counters = read_only_window(run, cache_dir, inputs.regions)
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    metrics.update({
        "serve.staleness_ms": report.staleness_ms if report else 0.0,
        "serve.cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
        "serve.sweeps": counters.get("serve.compute.sweeps", 0),
        "serve.coalesced": counters.get("serve.coalesced", 0),
        "serve.follow_records": counters.get("serve.follow.records", 0),
        "serve_p99_ms": report.p99_ms if report else 0.0,
        "loadgen.max_late_ms": report.max_late_ms if report else 0.0,
        "loadgen.sent": report.sent if report else 0,
        "loadgen.ok": report.ok if report else 0,
        "loadgen.failed": report.failed if report else 0,
    })

    start, cpu = time.perf_counter(), time.process_time()
    parallel = read_jsonl_parallel(inputs.path, 2, stats=IngestStats())
    metrics["parallel.read_jsonl_w2_s"] = time.perf_counter() - start
    metrics["parallel.read_jsonl_w2_parent_cpu_s"] = time.process_time() - cpu
    run.tally.record(len(parallel) == stats.read, "parallel read lost records")
    del parallel

    checker = RouteChecker(oracle, inputs.regions, run.tally)
    # Two pairs in ABBA order, so a drift in host speed cancels.
    walls = {"plain": [], "observed": []}
    for kind in ("plain", "observed", "observed", "plain"):
        flags = [] if kind == "plain" else [
            "--trace-out", run.path("trace.json"), "--manifest-out", run.path("manifest.json"),
        ]
        done = run.iqb([*flags, "score", inputs.path, "--json"], f"exact-{kind}.json")
        checker.exact(run.read(f"exact-{kind}.json"), done.returncode)
        walls[kind].append(done.wall_s)
    metrics["obs.trace_manifest_overhead_s"] = (
        statistics.fmean(walls["observed"]) - statistics.fmean(walls["plain"])
    )
    sketch = run.iqb(["--quantiles", "sketch", "score", inputs.path, "--json"], "sketch.json")
    sketch_payload = run.read("sketch.json")
    checker.sketch(sketch_payload, sketch.returncode)
    cached = run.iqb(["score", "--from-cache", cache_dir, "--json"], "cache.json")
    checker.from_cache(run.read("cache.json"), cached.returncode, sketch_payload)

    metrics["failed_share"] = run.tally.failed_share
    metrics["parity_mismatches"] = checker.parity_mismatches
    os.makedirs(run.base, exist_ok=True)
    trace_path = os.path.join(run.base, f"trace-{run.workload}-{run.seed}.json")
    tracer.dump(trace_path)
    print(f"perfbench: spans written to {trace_path}", file=sys.stderr)
    return metrics


def _serve_in_process(run, tracer: Tracer, records, regions, config) -> Dict[str, float]:
    """Ingest → sweep cycles and cached dispatches, no sockets involved."""
    service = ScoringService(ColumnarStore(list(records)), config)
    server = ServeServer(service)
    paths = ["/v1/scores/" + regions[i % len(regions)] for i in range(DISPATCHES)]
    server.dispatch(paths[0], {})  # the breakdown sweep; every later call hits
    hits = []
    for path in paths:
        start = time.perf_counter()
        response = server.dispatch(path, {})
        hits.append((time.perf_counter() - start) * 1000.0)
        run.tally.record(response.status == 200, f"dispatch {path} -> {response.status}")
    store = ColumnarStore(list(records))
    for batch in append_batches(run.seed, regions, SERVE_CYCLES):
        with tracer.span("serve.ingest"):
            service.ingest(batch)
        with tracer.span("serve.sweep_values"):
            service.scores()
        with tracer.span("serve.sweep_breakdowns"):
            service.breakdowns()
        with tracer.span("columnar.append"):
            store.append(batch)
    median = {name: statistics.median(tracer.durations(name)) for name in (
        "serve.ingest", "serve.sweep_values", "serve.sweep_breakdowns", "columnar.append",
    )}
    return {
        "serve.dispatch_hit_ms": statistics.median(hits),
        "serve.ingest_s": median["serve.ingest"],
        "serve.sweep_values_s": median["serve.sweep_values"],
        "serve.sweep_breakdowns_s": median["serve.sweep_breakdowns"],
        "columnar.append_s": median["columnar.append"],
    }


def _import_times(run, repeats: int):
    """Seconds ``import repro.cli`` takes in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], env=run.env, capture_output=True, timeout=60
        )
        if run.tally.record(done.returncode == 0, "import repro.cli failed"):
            times.append(float(done.stdout))
    return times or [0.0]
