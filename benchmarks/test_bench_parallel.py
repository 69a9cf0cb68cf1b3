"""Bench ext-parallel — sharded ingest vs the serial scoring path.

Paper artifact: none directly; a deployed barometer refreshing many
regions wants wall-clock. These benches measure, at the largest
scale-bench volume:

* serial ``score_regions`` over a cold columnar store (scoring always
  runs in-process: a region-sharded fan-out measured slower in
  wall-clock time than this path on a 2-vCPU VM, and was removed);
* sharded JSONL ingest of the same batch (the ``--workers`` fan-out).
"""

import pytest

from repro.core import score_regions
from repro.measurements import ColumnarStore, MeasurementSet
from repro.measurements.io import write_jsonl
from repro.netsim import CampaignConfig, region_preset, simulate_region
from repro.netsim.population import REGION_PRESETS
from repro.parallel import read_jsonl_parallel

#: Matches the largest volume in test_bench_scale.py's volume sweep.
TESTS_PER_CLIENT = 1600
WORKERS = 4


@pytest.fixture(scope="module")
def large_batch():
    """All six presets at the largest scale-bench volume."""
    campaign = CampaignConfig(
        subscribers=50, tests_per_client=TESTS_PER_CLIENT
    )
    combined = MeasurementSet()
    for name in sorted(REGION_PRESETS):
        combined = combined + simulate_region(
            region_preset(name), seed=42, config=campaign
        )
    return list(combined)


@pytest.fixture(scope="module")
def large_jsonl(large_batch, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench_parallel") / "large.jsonl"
    write_jsonl(MeasurementSet(large_batch), path)
    return path


def test_bench_score_regions_serial(benchmark, config, large_batch):
    """Baseline: the columnar batch path, one process."""

    def serial():
        return score_regions(ColumnarStore(large_batch), config)

    breakdowns = benchmark(serial)
    assert len(breakdowns) == len(REGION_PRESETS)


def test_bench_ingest_parallel(benchmark, large_jsonl, large_batch):
    """Sharded JSONL ingest of the full batch at 4 workers."""

    def parallel_read():
        return read_jsonl_parallel(large_jsonl, WORKERS)

    loaded = benchmark(parallel_read)
    assert len(loaded) == len(large_batch)
