"""Unit tests for repro.serve.service (ScoringService)."""

import dataclasses
import threading

import pytest

from repro.core.exceptions import DataError
from repro.core.kernel import score_values
from repro.core.scoring import score_regions
from repro.measurements.columnar import ColumnarStore
from repro.measurements.sketchplane import SketchPlane
from repro.obs.registry import REGISTRY
from repro.serve import ScoringService


def _sweeps():
    return REGISTRY.counter("serve.compute.sweeps").value


class TestScores:
    def test_values_match_kernel_fast_path(self, store, config, records):
        service = ScoringService(store, config)
        result = service.scores()
        expected = score_values(ColumnarStore(list(records)), config)
        assert result.values == expected
        assert result.generation == 0
        assert result.quantile_source == "exact"

    def test_second_read_is_a_cache_hit(self, store, config):
        service = ScoringService(store, config)
        before = _sweeps()
        first = service.scores()
        assert _sweeps() == before + 1
        second = service.scores()
        assert second is first  # the very same immutable result object
        assert _sweeps() == before + 1

    def test_unknown_quantiles_rejected(self, store, config):
        with pytest.raises(ValueError):
            ScoringService(store, config, quantiles="fuzzy")


class TestInvalidation:
    def test_ingest_bumps_generation_once_per_batch(
        self, store, config, records
    ):
        service = ScoringService(store, config)
        assert service.generation == 0
        added = service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        assert added == 1
        assert service.generation == 1
        service.ingest([records[0], records[1]])
        assert service.generation == 2

    def test_ingest_empty_batch_changes_nothing(self, store, config):
        service = ScoringService(store, config)
        assert service.ingest([]) == 0
        assert service.generation == 0

    def test_ingest_retires_cached_scores(self, store, config, records):
        service = ScoringService(store, config)
        stale = service.scores()
        before = _sweeps()
        service.ingest(
            [dataclasses.replace(records[0], region="region-new")]
        )
        fresh = service.scores()
        assert _sweeps() == before + 1
        assert fresh.generation == 1
        assert "region-new" in fresh.values
        assert "region-new" not in stale.values

    def test_etag_tracks_generation_and_digest(self, store, config):
        service = ScoringService(store, config)
        first = service.etag()
        assert service.config_sha256[:12] in first
        assert first.endswith('-0"')
        service.ingest([store.records()[0]])
        assert service.etag() != first
        assert service.etag().endswith('-1"')
        assert service.etag(0) == first


class TestBreakdowns:
    def test_bit_identical_to_score_regions(self, store, config, records):
        service = ScoringService(store, config)
        result = service.breakdowns()
        expected = score_regions(ColumnarStore(list(records)), config)
        assert set(result.regions) == set(expected)
        for region in expected:
            assert (
                result.regions[region].to_dict()
                == expected[region].to_dict()
            )

    def test_single_region_rides_the_shared_sweep(self, store, config):
        service = ScoringService(store, config)
        before = _sweeps()
        gen_a, a = service.breakdown("region-000")
        gen_b, b = service.breakdown("region-001")
        assert _sweeps() == before + 1  # one sweep answered both
        assert gen_a == gen_b == 0
        assert a.value != b.value or a.to_dict() != {}

    def test_unknown_region_raises_keyerror(self, store, config):
        service = ScoringService(store, config)
        with pytest.raises(KeyError):
            service.breakdown("atlantis")


class TestNational:
    def test_uniform_weights_by_default(self, store, config):
        service = ScoringService(store, config)
        result = service.national()
        values = service.scores().values
        expected = sum(values.values()) / len(values)
        assert result.national.value == pytest.approx(expected, abs=1e-12)
        assert result.generation == 0

    def test_population_weighting(self, store, config):
        populations = {
            "region-000": 100.0,
            "region-001": 1.0,
            "region-002": 1.0,
            "region-003": 1.0,
        }
        service = ScoringService(store, config, populations=populations)
        result = service.national()
        values = service.scores().values
        total = sum(populations.values())
        expected = sum(
            values[region] * populations[region] / total
            for region in values
        )
        assert result.national.value == pytest.approx(expected, abs=1e-12)

    def test_missing_population_is_a_data_error(self, store, config):
        service = ScoringService(
            store, config, populations={"region-000": 1.0}
        )
        with pytest.raises(DataError):
            service.national()

    def test_cached_per_generation(self, store, config):
        service = ScoringService(store, config)
        first = service.national()
        assert service.national() is first


class TestSketchPlane:
    def test_serves_from_a_bare_sketch_plane(self, config, records):
        plane = SketchPlane()
        plane.extend(records)
        service = ScoringService(plane, config)
        result = service.scores()
        assert result.quantile_source == "sketch"
        assert set(result.values) == {f"region-{i:03d}" for i in range(4)}
        assert result.generation == len(records)

    def test_sketch_plane_rejects_exact_quantiles(self, config, records):
        plane = SketchPlane()
        plane.extend(records)
        with pytest.raises(ValueError):
            ScoringService(plane, config, quantiles="exact")

    def test_sketch_add_bumps_generation_per_record(self, config, records):
        plane = SketchPlane()
        plane.extend(records)
        service = ScoringService(plane, config)
        before = service.generation
        service.ingest([records[0]])
        assert service.generation == before + 1

    def test_columnar_with_sketch_override(self, store, config):
        service = ScoringService(store, config, quantiles="sketch")
        result = service.scores()
        assert result.quantile_source == "sketch"
        gen, breakdown = service.breakdown("region-000")
        assert breakdown.quantile_source == "sketch"


class TestCoalescing:
    def test_concurrent_misses_share_one_sweep(self, store, config):
        service = ScoringService(store, config, batch_window_s=0.05)
        before = _sweeps()
        results = []
        barrier = threading.Barrier(8)

        def read():
            barrier.wait(timeout=5.0)
            results.append(service.scores())

        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(results) == 8
        assert _sweeps() == before + 1
        assert all(r.values == results[0].values for r in results)
        assert all(r.generation == 0 for r in results)


class TestConfigDocument:
    def test_document_shape(self, store, config):
        service = ScoringService(store, config, cache_size=8)
        document = service.config_document()
        assert document["config_sha256"] == service.config_sha256
        assert document["kernel"] == "vectorized"
        assert document["cache_size"] == 8
        assert "version" in document["config"]
        assert "thresholds" in document["config"]
