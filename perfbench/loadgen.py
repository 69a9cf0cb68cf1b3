"""Open-loop HTTP load for ``iqb serve``, with optional live appends.

Requests are due on a fixed schedule (``rate`` per second) whatever
the server does, so a stall queues the requests behind it instead of
slowing the offered load. At most ``connections`` requests are in
flight (one process, one thread per connection); a request that finds
every connection busy waits, and that wait counts: latency runs from
when the request was *due*, not when it was sent.

The route mix is seeded: 70% ``/v1/scores/{region}``, 20%
``/v1/scores``, 10% ``/v1/national``. When ``appends`` is given, the
same clock appends one batch to the followed file every
``append_every_s`` seconds, so reads and ingest sweeps interleave.

Bodies are kept and checked after the run, not during it, so checking
does not steal CPU from the server being measured.
"""

from __future__ import annotations

import gc
import json
import random
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from procs import http_get

#: ``serve_default_rules``' per-route p99 budget.
SLO_MS = 250.0


class Sample(NamedTuple):
    path: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    connection: int


def schedule(
    rate: float, count: int, regions: Sequence[str], seed: int
) -> List[Tuple[float, str]]:
    """(offset seconds, path) for each request, in due order."""
    rng = random.Random(seed)
    plan = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.7:
            path = "/v1/scores/" + rng.choice(regions)
        elif roll < 0.9:
            path = "/v1/scores"
        else:
            path = "/v1/national"
        plan.append((i / rate, path))
    return plan


class LoadResult(NamedTuple):
    samples: List[Sample]
    appends: List[float]  # perf_counter time of each completed append


def run_load(
    host: str,
    port: int,
    plan: List[Tuple[float, str]],
    connections: int,
    append_path: Optional[str] = None,
    appends: Sequence[bytes] = (),
    append_every_s: float = 2.0,
) -> LoadResult:
    """Drive ``plan`` against the server; returns every sample."""
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []
    appended: List[float] = []
    start = time.perf_counter() + 0.05
    stop = threading.Event()

    def worker(connection: int) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(plan):
                return
            offset, path = plan[index]
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, body = http_get(host, port, path)
            except OSError:
                status, body = 0, b""
            done = time.perf_counter()
            with lock:
                samples.append(
                    Sample(path, due, sent, done, status, body, connection)
                )

    def appender() -> None:
        for k, payload in enumerate(appends, start=1):
            if stop.wait(max(0.0, start + k * append_every_s - time.perf_counter())):
                return
            with open(append_path, "ab") as handle:
                handle.write(payload)
                handle.flush()
            appended.append(time.perf_counter())

    threads = [
        threading.Thread(target=worker, args=(c,), daemon=True)
        for c in range(connections)
    ]
    if appends:
        threads.append(threading.Thread(target=appender, daemon=True))
    # A collection pause in the client would be charged to the server.
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads[:connections]:
            thread.join()
        stop.set()
        for thread in threads[connections:]:
            thread.join()
    finally:
        gc.enable()
    samples.sort(key=lambda s: s.due)
    return LoadResult(samples, appended)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class LoadReport(NamedTuple):
    sent: int
    ok: int
    failed: int
    p50_ms: float
    p99_ms: float
    slo_share: float
    max_late_ms: float
    staleness_ms: float


def check_load(
    result: LoadResult, regions: Sequence[str]
) -> Tuple[LoadReport, List[str]]:
    """Validate every response and summarise latency.

    A response is ok when it is a 200 whose body parses and carries
    the full region set (``/v1/scores``, ``/v1/national``) or the asked
    region's breakdown, and whose generation is not older than the one
    the same connection saw before. Failed requests count as SLO misses.
    """
    expected = set(regions)
    problems: List[str] = []
    last_gen: Dict[int, int] = {}
    seen: List[Tuple[float, int]] = []  # (done, generation) of ok samples
    latencies: List[float] = []
    within = 0
    ok = 0
    for sample in sorted(result.samples, key=lambda s: s.sent):
        latency_ms = (sample.done - sample.due) * 1000.0
        latencies.append(latency_ms)
        problem, generation = _check_body(sample, expected)
        if problem is None:
            if generation < last_gen.get(sample.connection, -1):
                problem = f"generation went backwards on {sample.path}"
            else:
                last_gen[sample.connection] = generation
                seen.append((sample.done, generation))
        if problem is None:
            ok += 1
            within += latency_ms <= SLO_MS
        elif len(problems) < 20:
            problems.append(problem)
    sent = len(result.samples)
    late = [(s.sent - s.due) * 1000.0 for s in result.samples]
    report = LoadReport(
        sent=sent,
        ok=ok,
        failed=sent - ok,
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        slo_share=within / sent,
        max_late_ms=max(late),
        staleness_ms=_staleness_ms(result.appends, seen),
    )
    return report, problems


def _check_body(sample: Sample, expected: set) -> Tuple[Optional[str], int]:
    """(problem or None, generation) for one response."""
    if sample.status != 200:
        return f"{sample.path} -> {sample.status}", -1
    try:
        document = json.loads(sample.body)
    except ValueError:
        return f"{sample.path}: body is not JSON", -1
    generation = document.get("generation")
    if not isinstance(generation, int):
        return f"{sample.path}: no generation", -1
    if sample.path == "/v1/scores":
        got = set(document.get("regions", {}))
    elif sample.path == "/v1/national":
        got = {entry.get("region") for entry in document.get("regions", [])}
    else:
        region = sample.path.rsplit("/", 1)[1]
        if document.get("region") != region or "breakdown" not in document:
            return f"{sample.path}: wrong or missing breakdown", generation
        return None, generation
    if got != expected:
        return f"{sample.path}: {len(got)} of {len(expected)} regions", generation
    return None, generation


def _staleness_ms(appends: Sequence[float], seen: List[Tuple[float, int]]) -> float:
    """Median time from an append to the first response at a newer generation.

    "Newer" is relative to the highest generation any response had
    shown by the time of the append, so a batch the follower split
    across two polls cannot make a later append look fresh early.
    0.0 when nothing was appended or no newer generation was seen.
    """
    if not appends:
        return 0.0
    seen = sorted(seen)
    gaps = []
    for at in appends:
        before = max((g for done, g in seen if done <= at), default=-1)
        after = [done for done, g in seen if done > at and g > before]
        if after:
            gaps.append((min(after) - at) * 1000.0)
    return percentile(gaps, 50) if gaps else 0.0
