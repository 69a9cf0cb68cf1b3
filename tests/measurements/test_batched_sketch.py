"""Bit-identity of the batched sketch path.

``TDigest.extend``, ``SketchPlane.extend`` and ``build_tiles`` feed
whole column chunks instead of one value at a time. These tests pin
them to the per-value / per-record loops they replace (kept here as
references): same ``to_state``, same tile bytes. They also pin the
small-cell rule of ``TDigest.quantile``: a digest whose centroids are
all single samples answers exactly as the exact plane does.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.cache.layout import period_key
from repro.cache.tiles import (
    GRANULARITIES,
    TILE_VERSION,
    build_tiles,
    tile_key,
    tile_payload,
)
from repro.core.aggregation import percentile_of
from repro.measurements.batch import RecordBatch
from repro.measurements.columnar import ColumnarStore
from repro.measurements.record import Measurement
from repro.measurements.sketchplane import SketchPlane, SketchView
from repro.measurements.tdigest import DEFAULT_DELTA, TDigest

BOUND = 4 * DEFAULT_DELTA


def _values(n, seed=3):
    rng = random.Random(seed)
    return [rng.lognormvariate(3.0, 1.0) for _ in range(n)]


def _records(n, seed=5):
    rng = random.Random(seed)
    records = []
    for i in range(n):
        records.append(
            Measurement(
                region=rng.choice(["alpha", "beta", "a/b", "gamma"]),
                source=rng.choice(["ndt", "ookla", "cloudflare"]),
                timestamp=rng.uniform(0.0, 30 * 86400.0),
                download_mbps=rng.choice([None, rng.uniform(1, 900)]),
                upload_mbps=rng.uniform(0.5, 300),
                latency_ms=rng.choice([None, rng.uniform(2, 200)]),
                packet_loss=rng.choice([None, rng.uniform(0, 0.05)]),
                isp=rng.choice(["", "b/fiberco", "coppernet", "unknown"]),
                access_tech=rng.choice(["", "fiber", "dsl"]),
                meta={"i": i} if i % 7 == 0 else {},
            )
        )
    return records


def _add_loop(values, digest=None):
    digest = digest or TDigest()
    for value in values:
        digest.add(value)
    return digest


class TestTDigestExtend:
    @pytest.mark.parametrize(
        "n", [0, 1, BOUND - 1, BOUND, BOUND + 1, 10 * BOUND + 7]
    )
    def test_extend_equals_add_loop(self, n):
        values = _values(n)
        batched = TDigest()
        batched.extend(values)
        assert batched.to_state() == _add_loop(values).to_state()

    @pytest.mark.parametrize("split", [1, BOUND - 3, BOUND + 5])
    def test_extend_after_partial_buffer(self, split):
        values = _values(3 * BOUND)
        batched = _add_loop(values[:split])
        batched.extend(values[split:])
        assert batched.to_state() == _add_loop(values).to_state()

    def test_extend_after_restore_equals_add_loop(self):
        head, tail = _values(BOUND + 17), _values(2 * BOUND, seed=9)
        state = _add_loop(head).to_state()
        batched = TDigest.from_state(state)
        batched.extend(tail)
        expected = _add_loop(tail, TDigest.from_state(state))
        assert batched.to_state() == expected.to_state()


def _reference_centroids(values, delta=DEFAULT_DELTA):
    """The merging t-digest's buffer-and-compress rule, written plainly."""

    def compress(points):
        points = sorted(points)
        total = sum(weight for _, weight in points)
        out = []
        mean, weight = points[0]
        cumulative = 0.0
        for next_mean, next_weight in points[1:]:
            q = (cumulative + weight / 2.0) / total
            limit = max(1.0, 4.0 * total * q * (1.0 - q) / delta)
            if weight + next_weight <= limit:
                merged = weight + next_weight
                mean = (mean * weight + next_mean * next_weight) / merged
                weight = merged
            else:
                out.append((mean, weight))
                cumulative += weight
                mean, weight = next_mean, next_weight
        out.append((mean, weight))
        return out

    centroids, buffer = [], []
    for value in values:
        buffer.append((float(value), 1.0))
        if len(buffer) >= 4 * delta:
            centroids, buffer = compress(centroids + buffer), []
    return [[mean, weight] for mean, weight in centroids + buffer]


class TestCompression:
    @pytest.mark.parametrize("n", [BOUND - 1, 10 * BOUND + 7])
    def test_centroids_follow_the_reference_rule(self, n):
        values = _values(n, seed=21)
        for digest in (_add_loop(values), TDigest()):
            if not len(digest):
                digest.extend(values)
            assert digest.to_state()["centroids"] == _reference_centroids(values)


def _observe_loop(records, delta=DEFAULT_DELTA):
    plane = SketchPlane(delta=delta)
    for record in records:
        plane.add(record)
    return plane


class TestSketchPlaneExtend:
    def test_batch_equals_per_record_add(self):
        records = _records(5000)
        plane = SketchPlane()
        plane.extend(RecordBatch.from_measurements(records))
        reference = _observe_loop(records)
        assert plane.to_state() == reference.to_state()
        assert list(plane._views) == list(reference._views)

    def test_list_input_and_chunked_feeds_agree(self):
        records = _records(3000, seed=11)
        plane = SketchPlane()
        for start in range(0, len(records), 700):
            plane.extend(records[start:start + 700])
        assert plane.to_state() == _observe_loop(records).to_state()

    def test_store_sketch_plane_is_the_per_record_plane(self):
        records = _records(2000, seed=2)
        store = ColumnarStore(records)
        assert store.sketch_plane().to_state() == _observe_loop(records).to_state()


def _reference_tiles(records, granularity, period_s=7 * 86400.0):
    """The per-record tile fold the batched builder replaces."""
    cells = {}
    for record in records:
        period = period_key(record.timestamp, period_s)
        views = cells.setdefault((period, record.source), {})
        view = views.setdefault(tile_key(record, granularity), SketchView())
        view.observe(record)
    tiles = {}
    for (period, source), views in sorted(cells.items()):
        plane = {
            "delta": DEFAULT_DELTA,
            "records": sum(len(view) for view in views.values()),
            "views": [
                [key, source, view.to_state()]
                for key, view in sorted(views.items())
            ],
        }
        tiles[(period, source)] = {
            "tile_version": TILE_VERSION,
            "period": period,
            "source": source,
            "granularity": granularity,
            "records": plane["records"],
            "plane": plane,
        }
    return tiles


class TestBuildTiles:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_batch_tiles_are_byte_identical(self, granularity):
        records = _records(4000, seed=7)
        expected = {
            key: tile_payload(document)
            for key, document in _reference_tiles(records, granularity).items()
        }
        for source in (records, RecordBatch.from_measurements(records)):
            built = build_tiles(source, granularity=granularity)
            assert list(built) == list(expected)
            assert {
                key: tile_payload(document) for key, document in built.items()
            } == expected

    def test_colliding_key_spellings_share_a_cell(self):
        # "a/b" + "c" and "a" + "b/c" spell the same region_isp key.
        records = [
            Measurement(region="a/b", source="ndt", timestamp=1.0,
                        download_mbps=1.0, isp="c"),
            Measurement(region="a", source="ndt", timestamp=2.0,
                        download_mbps=2.0, isp="b/c"),
        ]
        built = build_tiles(records, granularity="region_isp")
        expected = _reference_tiles(records, "region_isp")
        assert {k: tile_payload(d) for k, d in built.items()} == {
            k: tile_payload(d) for k, d in expected.items()
        }
        (document,) = built.values()
        assert [view[0] for view in document["plane"]["views"]] == ["a/b/c"]


def _exact_cube(records, percentiles):
    store = ColumnarStore(records)
    return store.aggregate_cube(("ndt", "ookla"), percentiles)


class TestSmallCellQuantiles:
    """Cells whose centroids are all single samples answer exactly."""

    PERCENTILES = (5.0, 50.0, 95.0, 99.0)

    def _small(self, n, seed):
        rng = random.Random(seed)
        return [
            Measurement(
                region=f"r{i % 3}",
                source=("ndt", "ookla")[i % 2],
                timestamp=float(i),
                download_mbps=rng.uniform(1, 500),
                upload_mbps=rng.uniform(1, 50),
                latency_ms=rng.uniform(1, 90),
                packet_loss=rng.choice([0.0, 0.001, 0.02]),
            )
            for i in range(n)
        ]

    def _assert_bit_equal(self, plane, records):
        for percentiles in (self.PERCENTILES, (95.0, 5.0, 50.0, 99.0)):
            exact = _exact_cube(records, percentiles)
            sketch = plane.aggregate_cube(("ndt", "ookla"), percentiles)
            assert sketch.regions == exact.regions
            np.testing.assert_array_equal(sketch.counts, exact.counts)
            assert sketch.aggregates.tobytes() == exact.aggregates.tobytes()

    def test_fresh_small_cells_match_exact(self):
        records = self._small(120, seed=1)
        self._assert_bit_equal(_observe_loop(records), records)

    def test_restored_small_cells_match_exact(self):
        records = self._small(120, seed=2)
        state = json.loads(json.dumps(_observe_loop(records).to_state()))
        self._assert_bit_equal(SketchPlane.from_state(state), records)

    def test_merged_small_cells_match_exact(self):
        records = self._small(150, seed=3)
        left, right = records[:70], records[70:]
        merged = _observe_loop(left).merge(_observe_loop(right))
        self._assert_bit_equal(merged, records)

    def test_every_percentile_of_a_single_sample_digest(self):
        digest = _add_loop([4.0, 1.0, 3.0])
        for percentile in (0.0, 10.0, 50.0, 90.0, 100.0):
            assert digest.quantile(percentile) == percentile_of(
                [1.0, 3.0, 4.0], percentile
            )
