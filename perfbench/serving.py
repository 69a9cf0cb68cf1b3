"""Serve phases shared by the end-to-end and the traced runs.

Two shapes of load on a real ``iqb serve`` child:

* read-only, on a server warmed ``--from-cache`` (``tall_34k``): one
  short window per score round, pooled, in the end-to-end run; one
  long window in the traced run;
* ``--follow``: the server tails the workload file while the load
  generator appends a batch every ``APPEND_EVERY_S`` seconds
  (``serve_follow``).

Every request, boot, drain and final-state check is one operation on
the run's tally.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from loadgen import LoadReport, LoadResult, check_load, run_load, schedule
from procs import ServeProcess

#: The traced read-only serve window of ``tall_34k``: requests, per
#: second. Half the server's capacity on a slow host: at 200/s a slow
#: spell tipped it into overload and p50 jumped from ~4 ms to ~500 ms.
BATCH_SERVE = {"full": (1000, 100.0), "tiny": (40, 40.0)}
#: Requests in each per-round read-only window (at ``BATCH_SERVE``'s rate).
ROUND_REQUESTS = {"full": 100, "tiny": 10}
#: ``serve_follow`` offered load and ingest cadence: 1000 requests leave
#: ten samples beyond p99.
FOLLOW_RATE = 40.0
FOLLOW_REQUESTS = {"full": 1000, "tiny": 60}
APPEND_EVERY_S = 2.0
#: Client connections: one process, at most two (the machine's cores).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))


def drive_load(server, regions, requests: int, rate: float, seed: int,
               follow: Optional[str] = None, appends=()) -> LoadResult:
    """Warm the server's caches, then drive one open-loop load."""
    for warm in ("/v1/scores", "/v1/national", "/v1/scores/" + regions[0]):
        server.get(warm)
    plan = schedule(rate, requests, regions, seed)
    return run_load(
        server.host, server.port, plan, CONNECTIONS,
        append_path=follow, appends=appends, append_every_s=APPEND_EVERY_S,
    )


def tally_load(run, result: LoadResult, regions) -> LoadReport:
    """Check every response; each request is one operation on the tally."""
    report, problems = check_load(result, regions)
    for _ in range(report.ok):
        run.tally.record(True)
    for problem in problems + ["request failed"] * (report.failed - len(problems)):
        run.tally.record(False, problem)
    return report


def pooled_report(run, results: List[LoadResult], regions) -> Optional[LoadReport]:
    """One report over several read-only windows (None: no window ran)."""
    if not results:
        return None
    samples = [sample for result in results for sample in result.samples]
    return tally_load(run, LoadResult(samples, []), regions)


def boot_read_only(run, cache: str):
    """A booted ``iqb serve --from-cache`` child, or None if it never answered."""
    server = ServeProcess(["--from-cache", cache], run.env, run.path("serve.err"))
    if run.tally.record(server.first_200() is not None, "serve boot failed"):
        return server
    run.tally.record(server.stop(), "serve did not drain cleanly")
    return None


def read_only_window(run, cache: str, regions):
    """Boot ``iqb serve --from-cache``, drive one read-only window, drain.

    Returns (load report, server counters); (None, {}) if it never booted.
    """
    requests, rate = BATCH_SERVE[run.scale]
    server = boot_read_only(run, cache)
    if server is None:
        return None, {}
    try:
        report = tally_load(
            run, drive_load(server, regions, requests, rate, run.seed), regions
        )
        status, body = server.get("/metrics.json")
        return report, json.loads(body)["counters"] if status == 200 else {}
    finally:
        run.tally.record(server.stop(), "serve did not drain cleanly")


def follow_seconds(scale: str) -> float:
    """How long the ``serve_follow`` load lasts."""
    return FOLLOW_REQUESTS[scale] / FOLLOW_RATE


def follow_phase(run, inputs):
    """Boot ``iqb serve --follow`` and load it while the file grows.

    Returns (boot time or None, load report, final ``/v1/scores``
    regions, server counters, appended batches, server peak RSS MB).
    """
    from inputs import APPEND_BATCH, append_batches, jsonl_bytes

    seconds = follow_seconds(run.scale)
    server = ServeProcess([inputs.path, "--follow", "0.1"], run.env, run.path("serve.err"))
    booted = server.first_200()
    if not run.tally.record(booted is not None, "serve boot failed"):
        run.tally.record(server.stop(), "serve did not drain cleanly")
        return None, None, None, {}, [], 0.0
    try:
        batches = append_batches(run.seed, inputs.regions, int((seconds - 0.5) // APPEND_EVERY_S))
        result = drive_load(
            server, inputs.regions, FOLLOW_REQUESTS[run.scale], FOLLOW_RATE,
            run.seed, follow=inputs.path, appends=[jsonl_bytes(b) for b in batches],
        )
        report = tally_load(run, result, inputs.regions)
        appended = batches[:len(result.appends)]
        counters = _await_follow(server, APPEND_BATCH * len(appended))
        run.tally.record(
            counters.get("serve.follow.records") == APPEND_BATCH * len(appended),
            "follower did not ingest every append",
        )
        status, body = server.get("/v1/scores")
        run.tally.record(status == 200, "final /v1/scores failed")
        final = json.loads(body)["regions"] if status == 200 else {}
    finally:
        run.tally.record(server.stop(), "serve did not drain cleanly")
    return booted, report, final, counters, appended, server.maxrss_mb


def boot_once(run, path: str) -> Optional[float]:
    """One ``iqb serve --follow`` boot: launch to first 200, then drain."""
    server = ServeProcess([path, "--follow", "0.1"], run.env, run.path("boot.err"))
    booted = server.first_200()
    run.tally.record(booted is not None, "serve boot failed")
    run.tally.record(server.stop(), "serve did not drain cleanly")
    return booted


def _await_follow(server, records: int, timeout_s: float = 20.0) -> Dict[str, float]:
    """Server counters once the follower has ingested ``records``."""
    deadline = time.perf_counter() + timeout_s
    while True:
        status, body = server.get("/metrics.json")
        counters = json.loads(body)["counters"] if status == 200 else {}
        if counters.get("serve.follow.records", 0) >= records or time.perf_counter() > deadline:
            return counters
        time.sleep(0.05)


def check_final_scores(run, served: Optional[dict], oracle: bytes) -> None:
    """The last ``/v1/scores`` must equal a batch score of the final file."""
    exact = json.loads(oracle)["regions"]
    run.tally.record(
        served == {region: exact[region]["score"] for region in exact},
        "final /v1/scores differs from iqb score of the final file",
    )
