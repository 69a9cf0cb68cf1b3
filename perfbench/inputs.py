"""Seeded workload inputs: the measurement files the program reads.

Every input is a pure function of ``(workload, seed, scale)``; the
program under test only ever sees the generated files. Two shapes,
each loading different layers (see ``BENCHMARK.json``):

* ``tall_34k``     — the six netsim presets, 1900 tests per dataset per
  region: 34,200 rows over 6 regions. Ingest-bound.
* ``serve_follow`` — one ``mixed-urban`` campaign (60 rows) cloned across
  192 region names: 11,520 rows, plus a pre-generated stream of 64-record
  batches that the load phase appends to the file while serving. Its
  batch routes are bound by per-region rebuild and render.

Both are sized so that one ``iqb score`` takes one to two seconds: a
run then holds enough samples of every route for its medians to hold
still on a shared host, where single runs of the same process differ
by 20% or more.

Cloning mirrors ``benchmarks/test_bench_serve.py``: the campaign is
simulated once and its records re-labelled per region, so region count
grows without growing simulation cost.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, NamedTuple, Tuple

from repro.measurements.io import write_jsonl
from repro.measurements.record import Measurement
from repro.netsim import CampaignConfig, region_preset, simulate_region, simulate_regions
from repro.netsim.population import REGION_PRESETS

#: Records appended per ``serve_follow`` ingest batch.
APPEND_BATCH = 64

#: The preset cloned by the serve workload.
CLONED_PRESET = "mixed-urban"


class Shape(NamedTuple):
    regions: int
    tests_per_client: int
    subscribers: int


#: workload -> scale -> shape. ``tiny`` is the self-test scale.
SHAPES: Dict[str, Dict[str, Shape]] = {
    "tall_34k": {
        "full": Shape(len(REGION_PRESETS), 1900, 150),
        "tiny": Shape(len(REGION_PRESETS), 40, 20),
    },
    "serve_follow": {
        "full": Shape(192, 20, 3),
        "tiny": Shape(8, 20, 3),
    },
}


class Inputs(NamedTuple):
    """One generated workload input."""

    path: str
    records: List[Measurement]
    regions: Tuple[str, ...]


def _cloned(seed: int, shape: Shape) -> List[Measurement]:
    base = list(
        simulate_region(
            region_preset(CLONED_PRESET),
            seed=seed,
            config=CampaignConfig(
                subscribers=shape.subscribers,
                tests_per_client=shape.tests_per_client,
            ),
        )
    )
    width = len(str(shape.regions - 1))
    records: List[Measurement] = []
    for i in range(shape.regions):
        name = f"region-{i:0{width}d}"
        records.extend(dataclasses.replace(r, region=name) for r in base)
    return records


def generate(workload: str, seed: int, scale: str, workdir: str) -> Inputs:
    """Simulate the workload's records and write them as JSONL."""
    shape = SHAPES[workload][scale]
    if workload == "tall_34k":
        records = list(
            simulate_regions(
                [region_preset(name) for name in sorted(REGION_PRESETS)],
                seed=seed,
                config=CampaignConfig(
                    subscribers=shape.subscribers,
                    tests_per_client=shape.tests_per_client,
                ),
            )
        )
    else:
        records = _cloned(seed, shape)
    path = os.path.join(workdir, f"{workload}.jsonl")
    write_jsonl(records, path)
    regions = tuple(sorted({r.region for r in records}))
    return Inputs(path, records, regions)


def append_batches(
    seed: int, regions: Tuple[str, ...], count: int
) -> List[List[Measurement]]:
    """``count`` batches of ``APPEND_BATCH`` new records for live ingest.

    Drawn from a fresh campaign (derived seed) and spread round-robin
    over the existing regions, so the served region set never changes
    and every append moves real aggregates.
    """
    if count <= 0:
        return []
    needed = count * APPEND_BATCH
    tests = -(-needed // 3)  # three datasets per campaign
    fresh = list(
        simulate_region(
            region_preset(CLONED_PRESET),
            seed=seed + 1_000_003,
            config=CampaignConfig(subscribers=3, tests_per_client=tests),
        )
    )[:needed]
    stamped = [
        dataclasses.replace(r, region=regions[i % len(regions)])
        for i, r in enumerate(fresh)
    ]
    return [
        stamped[i * APPEND_BATCH:(i + 1) * APPEND_BATCH] for i in range(count)
    ]


def jsonl_bytes(records: List[Measurement]) -> bytes:
    """Records in ``write_jsonl``'s exact line format."""
    return "".join(
        json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records
    ).encode("utf-8")
