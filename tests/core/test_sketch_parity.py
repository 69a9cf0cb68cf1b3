"""Exact-vs-sketch parity: the streaming quantile plane vs the oracle.

The sketch plane replaces sorted-column interpolation with t-digest
estimates, so parity is a *bounded-error* contract, not bit equality:

* **Counts and structure**: exact. Digests track true sample counts,
  so the NaN pattern, degraded-dataset sets, and every missing-data
  policy (including STRICT's error messages) behave identically on
  both planes — hypothesis asserts this over ragged random batches.
* **Percentile values**: the documented relative-error bounds at the
  IQB's aggregation rule — ≤ 1% at p50 / p95 / p99 on realistic
  measurement distributions (see ``docs/methodology.md``, "Streaming
  scoring").
* **`quantiles="exact"`**: bit-identical to the historical output —
  the override must be a no-op on scores, and `quantile_source` must
  stay out of serialized breakdowns.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import percentile_of
from repro.core.config import (
    MissingDataPolicy,
    QuantileMode,
    QuantilePolicy,
    ScoreMode,
    paper_config,
)
from repro.core.exceptions import DataError
from repro.core.scoring import ScoreBreakdown, score_regions
from repro.measurements.collection import MeasurementSet
from repro.measurements.columnar import ColumnarStore
from repro.measurements.record import Measurement
from repro.measurements.sketchplane import SketchPlane, sketch_records
from repro.measurements.tdigest import TDigest

from tests.core.test_kernel_parity import batches

#: Documented sketch bound at the scoring percentiles (p50/p95/p99).
REL_ERROR_BOUND = 0.01


def _spread_records(n, seed=7, region="alpha", source="ndt"):
    """Realistic per-metric distributions: lognormal speeds, latency."""
    rng = np.random.default_rng(seed)
    download = rng.lognormal(mean=4.0, sigma=0.6, size=n)
    upload = rng.lognormal(mean=2.5, sigma=0.7, size=n)
    latency = rng.lognormal(mean=3.2, sigma=0.5, size=n)
    loss = rng.beta(1.2, 90.0, size=n)
    return [
        Measurement(
            region=region,
            source=source,
            timestamp=float(i),
            download_mbps=float(download[i]),
            upload_mbps=float(upload[i]),
            latency_ms=float(latency[i]),
            packet_loss=float(loss[i]),
        )
        for i in range(n)
    ]


class TestQuantileErrorBounds:
    """The headline contract: ≤1% relative error at p50/p95/p99."""

    @pytest.mark.parametrize("percentile", [50.0, 95.0, 99.0])
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda rng, n: rng.lognormal(mean=4.0, sigma=0.8, size=n),
            lambda rng, n: rng.normal(loc=50.0, scale=9.0, size=n),
            lambda rng, n: rng.uniform(1.0, 2000.0, size=n),
        ],
        ids=["lognormal", "normal", "uniform"],
    )
    def test_digest_tracks_exact_percentile(self, percentile, sampler):
        rng = np.random.default_rng(11)
        values = np.abs(sampler(rng, 20_000)) + 1e-9
        digest = TDigest()
        for value in values:
            digest.add(float(value))
        exact = percentile_of(values, percentile)
        estimate = digest.quantile(percentile)
        assert abs(estimate - exact) / abs(exact) <= REL_ERROR_BOUND

    @pytest.mark.parametrize("percentile", [50.0, 95.0, 99.0])
    def test_plane_cell_tracks_exact_percentile(self, percentile):
        records = _spread_records(8000)
        store = ColumnarStore(list(records))
        plane = sketch_records(records)
        view = plane.view("alpha", "ndt")
        from repro.core.metrics import Metric

        for metric in Metric.ordered():
            values = [
                getattr(r, metric.field_name)
                for r in records
                if getattr(r, metric.field_name) is not None
            ]
            exact = percentile_of(values, percentile)
            estimate = view.quantile(metric, percentile)
            assert estimate is not None
            assert abs(estimate - exact) / abs(exact) <= REL_ERROR_BOUND
            assert view.sample_count(metric) == len(values)
        # The kernel-facing cube carries the same estimates.
        cc = paper_config().compiled()
        sketch_cube = plane.aggregate_cube(cc.datasets, cc.percentiles)
        exact_cube = store.aggregate_cube(cc.datasets, cc.percentiles)
        assert (sketch_cube.counts == exact_cube.counts).all()


class TestCubeStructureParity:
    """Counts, NaN patterns, and policies are exact on any batch."""

    @settings(max_examples=50, deadline=None)
    @given(records=batches())
    def test_counts_and_nan_pattern_match_exact_plane(self, records):
        cc = paper_config().compiled()
        store = ColumnarStore(list(records))
        sketch_cube = store.sketch_plane().aggregate_cube(
            cc.datasets, cc.percentiles
        )
        exact_cube = store.aggregate_cube(cc.datasets, cc.percentiles)
        assert sketch_cube.regions == exact_cube.regions
        assert (sketch_cube.counts == exact_cube.counts).all()
        assert sketch_cube.cells == exact_cube.cells
        assert (
            np.isnan(sketch_cube.aggregates)
            == np.isnan(exact_cube.aggregates)
        ).all()
        # Estimates never leave the observed range, so every estimate
        # sits between the cell's true extremes (both cubes agree on
        # which cells exist; exact values bound them).
        finite = ~np.isnan(exact_cube.aggregates)
        assert np.isfinite(sketch_cube.aggregates[finite]).all()

    @settings(max_examples=40, deadline=None)
    @given(
        records=batches(),
        policy=st.sampled_from(tuple(MissingDataPolicy)),
        mode=st.sampled_from(tuple(ScoreMode)),
    )
    def test_policy_and_error_parity(self, records, policy, mode):
        """Sketch scoring raises exactly when exact scoring raises."""
        config = paper_config().with_(missing_data=policy, score_mode=mode)
        try:
            exact = score_regions(records, config, quantiles="exact")
        except DataError as exact_error:
            with pytest.raises(DataError) as caught:
                score_regions(records, config, quantiles="sketch")
            assert str(caught.value) == str(exact_error)
            return
        sketch = score_regions(records, config, quantiles="sketch")
        assert list(sketch) == list(exact)
        for region in exact:
            assert (
                sketch[region].degraded_datasets
                == exact[region].degraded_datasets
            )
            assert sketch[region].quantile_source == "sketch"
            assert exact[region].quantile_source == "exact"


class TestScoreParity:
    def _records(self, n=400):
        return MeasurementSet(
            _spread_records(n, region="alpha")
            + _spread_records(n, seed=8, region="beta")
            + _spread_records(n // 2, seed=9, region="beta", source="ookla")
        )

    def test_exact_override_is_bit_identical_to_default(self):
        records = self._records()
        config = paper_config()
        for kernel in ("vectorized", "exact"):
            default = score_regions(records, config, kernel=kernel)
            forced = score_regions(
                records, config, kernel=kernel, quantiles="exact"
            )
            assert forced == default
            for breakdown in forced.values():
                # Exact provenance stays out of serialized archives.
                assert "quantile_source" not in breakdown.to_dict()

    def test_sketch_scores_close_to_exact_both_kernels(self):
        records = self._records()
        config = paper_config().with_(score_mode=ScoreMode.CONTINUOUS)
        exact = score_regions(records, config, quantiles="exact")
        for kernel in ("vectorized", "exact"):
            sketch = score_regions(
                records, config, kernel=kernel, quantiles="sketch"
            )
            assert list(sketch) == list(exact)
            for region in exact:
                assert math.isclose(
                    sketch[region].value,
                    exact[region].value,
                    rel_tol=0.05,
                    abs_tol=0.05,
                )

    def test_vectorized_and_exact_kernels_agree_on_sketch_plane(self):
        """Both kernels read the same digests → same breakdowns."""
        records = self._records(200)
        config = paper_config()
        vec = score_regions(records, config, quantiles="sketch")
        scalar = score_regions(
            records, config, kernel="exact", quantiles="sketch"
        )
        assert list(vec) == list(scalar)
        for region in vec:
            assert vec[region].value == pytest.approx(
                scalar[region].value, abs=1e-12
            )

    def test_sketch_plane_input_scores_directly(self):
        records = self._records(200)
        plane = sketch_records(list(records))
        config = paper_config()
        from_plane = score_regions(plane, config)
        from_records = score_regions(records, config, quantiles="sketch")
        assert from_plane == from_records
        for breakdown in from_plane.values():
            assert breakdown.quantile_source == "sketch"

    def test_sketch_plane_input_rejects_exact_override(self):
        plane = sketch_records(_spread_records(50))
        with pytest.raises(ValueError, match="no exact quantile plane"):
            score_regions(plane, paper_config(), quantiles="exact")

    def test_unknown_quantile_source_rejected(self):
        records = self._records(20)
        with pytest.raises(ValueError, match="unknown quantile source"):
            score_regions(records, paper_config(), quantiles="p2")

    def test_breakdown_roundtrip_keeps_sketch_stamp(self):
        records = self._records(100)
        sketch = score_regions(records, paper_config(), quantiles="sketch")
        for breakdown in sketch.values():
            document = json.loads(json.dumps(breakdown.to_dict()))
            assert document["quantile_source"] == "sketch"
            rebuilt = ScoreBreakdown.from_dict(document)
            assert rebuilt == breakdown


class TestMixedPolicy:
    def _config(self):
        policy = QuantilePolicy(
            default=QuantileMode.EXACT,
            overrides=(("ndt", QuantileMode.SKETCH),),
        )
        return paper_config().with_(quantiles=policy)

    def test_config_policy_drives_mixed_scoring(self):
        config = self._config()
        cc = config.compiled()
        assert config.quantiles.mode_for("ndt") is QuantileMode.SKETCH
        assert config.quantiles.mode_for("ookla") is QuantileMode.EXACT
        assert config.quantiles.uses_sketch(cc.datasets)
        records = MeasurementSet(
            _spread_records(200)
            + _spread_records(100, seed=5, source="ookla")
        )
        for kernel in ("vectorized", "exact"):
            mixed = score_regions(records, config, kernel=kernel)
            assert mixed["alpha"].quantile_source == "mixed"
        # The global override still wins over the config policy.
        forced = score_regions(records, config, quantiles="exact")
        baseline = score_regions(records, paper_config())
        assert forced["alpha"].value == baseline["alpha"].value

    def test_policy_survives_config_serialization(self):
        config = self._config()
        document = json.loads(config.to_json())
        assert document["quantiles"] == {
            "default": "exact",
            "overrides": {"ndt": "sketch"},
        }
        from repro.core.config import IQBConfig

        rebuilt = IQBConfig.from_dict(document)
        assert rebuilt.quantiles == config.quantiles
        # Pre-streaming documents (no "quantiles" key) default to exact.
        document.pop("quantiles")
        legacy = IQBConfig.from_dict(document)
        assert legacy.quantiles == QuantilePolicy()
        assert not legacy.quantiles.uses_sketch(("ndt", "ookla"))


class TestPlaneStateAndMerge:
    def test_state_roundtrip_preserves_scores(self):
        records = _spread_records(300)
        plane = sketch_records(records)
        rebuilt = SketchPlane.from_state(
            json.loads(json.dumps(plane.to_state()))
        )
        config = paper_config()
        assert score_regions(rebuilt, config) == score_regions(plane, config)

    def test_sharded_merge_matches_single_pass_counts(self):
        alpha = _spread_records(120, region="alpha")
        beta = _spread_records(80, seed=3, region="beta")
        merged = sketch_records(alpha).merge(sketch_records(beta))
        single = sketch_records(alpha + beta)
        assert len(merged) == len(single) == 200
        assert merged.regions() == single.regions()
        cc = paper_config().compiled()
        merged_cube = merged.aggregate_cube(cc.datasets, cc.percentiles)
        single_cube = single.aggregate_cube(cc.datasets, cc.percentiles)
        assert (merged_cube.counts == single_cube.counts).all()
