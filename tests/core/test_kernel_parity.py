"""Property-based parity: the vectorized kernel against the scalar oracle.

The batched numpy kernel (:mod:`repro.core.kernel`) must reproduce the
scalar path's ScoreBreakdown trees for *any* batch, not just the
fixtures the unit tests use. Hypothesis generates adversarial batches —
regions with missing datasets and metrics, single-sample columns,
lopsided sample counts — and these tests assert:

* **BINARY**: exact float equality, tier by tier (dataclass ``==`` on
  the full breakdown trees compares every float bitwise).
* **GRADED / CONTINUOUS**: the documented ≤1e-12 tolerance. The paper
  configuration's axes (6 use cases, 4 requirements, ≤ a handful of
  datasets) are all short enough that numpy reduces in the scalar
  ``sum``'s sequential order, so in practice these modes are bit-equal
  too; the tolerance exists to keep the contract honest for configs
  with enough datasets to cross numpy's pairwise-summation cutoff.
* **Errors**: DataError parity — same exception, same message, for
  every missing-data policy (SKIP / FAIL / STRICT).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MissingDataPolicy, ScoreMode, paper_config
from repro.core.exceptions import DataError
from repro.core.scoring import ScoreBreakdown, score_regions
from repro.measurements.collection import MeasurementSet
from repro.measurements.record import Measurement

DATASETS = ("cloudflare", "ndt", "ookla")
REGIONS = ("alpha", "beta", "gamma")

#: Documented agreement bound for the graded/continuous modes.
TOLERANCE = 1e-12


def _metric_values(draw, allow_missing: bool):
    """One record's metric fields; possibly observing only a subset."""
    maybe = (
        (lambda s: st.none() | s) if allow_missing else (lambda s: s)
    )
    fields = {
        "download_mbps": maybe(
            st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)
        ),
        "upload_mbps": maybe(
            st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
        ),
        "latency_ms": maybe(
            st.floats(min_value=0.1, max_value=2000.0, allow_nan=False)
        ),
        "packet_loss": maybe(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        ),
    }
    values = {name: draw(strategy) for name, strategy in fields.items()}
    if all(v is None for v in values.values()):
        values["latency_ms"] = draw(
            st.floats(min_value=0.1, max_value=2000.0, allow_nan=False)
        )
    return values


@st.composite
def batches(draw):
    """A measurement batch: 1-3 regions, ragged datasets and metrics.

    Every shape the kernel must survive is reachable: a dataset absent
    from a region (degraded mode), a metric observed by nobody (missing
    requirement → policy-dependent), single-sample columns (the
    quantile edge where lo == hi), and metric subsets per record.
    """
    records = []
    stamp = 0
    n_regions = draw(st.integers(min_value=1, max_value=3))
    for region in REGIONS[:n_regions]:
        present = draw(
            st.lists(
                st.sampled_from(DATASETS),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        for dataset in present:
            n_records = draw(st.integers(min_value=1, max_value=5))
            for _ in range(n_records):
                values = _metric_values(draw, allow_missing=True)
                records.append(
                    Measurement(
                        region=region,
                        source=dataset,
                        timestamp=float(stamp),
                        **values,
                    )
                )
                stamp += 1
    return MeasurementSet(records)


def _assert_close_trees(vec, exact):
    """Structural equality with ≤ TOLERANCE on every float tier."""
    assert set(vec) == set(exact)
    for region in vec:
        v, e = vec[region].to_dict(), exact[region].to_dict()
        assert math.isclose(
            v["score"], e["score"], rel_tol=0.0, abs_tol=TOLERANCE
        )
        assert v["degraded_datasets"] == e["degraded_datasets"]
        assert len(v["use_cases"]) == len(e["use_cases"])
        for uc_v, uc_e in zip(v["use_cases"], e["use_cases"]):
            assert uc_v["use_case"] == uc_e["use_case"]
            assert uc_v["weight"] == uc_e["weight"]
            assert math.isclose(
                uc_v["score"], uc_e["score"], rel_tol=0.0, abs_tol=TOLERANCE
            )
            for req_v, req_e in zip(
                uc_v["requirements"], uc_e["requirements"]
            ):
                assert req_v["metric"] == req_e["metric"]
                assert req_v["threshold"] == req_e["threshold"]
                assert req_v["weight"] == req_e["weight"]
                if req_e["score"] is None:
                    assert req_v["score"] is None
                else:
                    assert math.isclose(
                        req_v["score"],
                        req_e["score"],
                        rel_tol=0.0,
                        abs_tol=TOLERANCE,
                    )
                assert len(req_v["verdicts"]) == len(req_e["verdicts"])
                for ver_v, ver_e in zip(
                    req_v["verdicts"], req_e["verdicts"]
                ):
                    # Everything below the requirement tier is computed
                    # cell-local (no reductions): exact equality.
                    assert ver_v == ver_e


def _both_kernels(records, config):
    """(vectorized, exact) results, asserting DataError parity.

    Also checks the scores-only fast path (:func:`score_values`)
    against the exact composites — same errors, same values.
    """
    from repro.core.kernel import score_values
    from repro.measurements.columnar import ColumnarStore

    store = ColumnarStore(list(records))
    try:
        exact = score_regions(records, config, kernel="exact")
    except DataError as exact_error:
        with pytest.raises(DataError) as caught:
            score_regions(records, config, kernel="vectorized")
        assert str(caught.value) == str(exact_error)
        with pytest.raises(DataError) as caught_values:
            score_values(store, config)
        assert str(caught_values.value) == str(exact_error)
        return None
    vec = score_regions(records, config, kernel="vectorized")
    assert list(vec) == list(exact)
    values = score_values(store, config)
    assert list(values) == list(exact)
    for region, breakdown in vec.items():
        # Same tensor pass as the vectorized kernel: bit equality.
        assert values[region] == breakdown.value
    for region, breakdown in exact.items():
        assert math.isclose(
            values[region], breakdown.value, rel_tol=0.0, abs_tol=TOLERANCE
        )
    return vec, exact


class TestPropertyParity:
    @settings(max_examples=60, deadline=None)
    @given(records=batches())
    def test_binary_bit_equality(self, records):
        config = paper_config()
        result = _both_kernels(records, config)
        if result is not None:
            vec, exact = result
            assert vec == exact  # dataclass ==: bitwise on every float

    @settings(max_examples=40, deadline=None)
    @given(
        records=batches(),
        mode=st.sampled_from((ScoreMode.GRADED, ScoreMode.CONTINUOUS)),
    )
    def test_graded_and_continuous_within_tolerance(self, records, mode):
        config = paper_config().with_(score_mode=mode)
        result = _both_kernels(records, config)
        if result is not None:
            _assert_close_trees(*result)

    @settings(max_examples=40, deadline=None)
    @given(
        records=batches(),
        policy=st.sampled_from(tuple(MissingDataPolicy)),
        mode=st.sampled_from(tuple(ScoreMode)),
    )
    def test_missing_data_policies_and_error_parity(
        self, records, policy, mode
    ):
        config = paper_config().with_(missing_data=policy, score_mode=mode)
        result = _both_kernels(records, config)
        if result is not None:
            vec, exact = result
            if mode is ScoreMode.BINARY:
                assert vec == exact
            else:
                _assert_close_trees(vec, exact)


class TestTargetedEdges:
    def _records(self, cells):
        """Build a batch from (region, dataset, metric-values) tuples."""
        return MeasurementSet(
            [
                Measurement(
                    region=region,
                    source=dataset,
                    timestamp=float(i),
                    **values,
                )
                for i, (region, dataset, values) in enumerate(cells)
            ]
        )

    def test_degraded_region_parity(self):
        # cloudflare configured but dark in beta: degraded there only.
        records = self._records(
            [
                ("alpha", "ndt", {"download_mbps": 120.0,
                                  "upload_mbps": 30.0,
                                  "latency_ms": 20.0,
                                  "packet_loss": 0.001}),
                ("alpha", "cloudflare", {"download_mbps": 110.0,
                                         "upload_mbps": 25.0,
                                         "latency_ms": 25.0,
                                         "packet_loss": 0.002}),
                ("beta", "ndt", {"download_mbps": 8.0,
                                 "upload_mbps": 1.0,
                                 "latency_ms": 80.0,
                                 "packet_loss": 0.01}),
            ]
        )
        config = paper_config()
        vec = score_regions(records, config, kernel="vectorized")
        exact = score_regions(records, config, kernel="exact")
        assert vec == exact
        assert vec["alpha"].degraded_datasets == ("ookla",)
        assert set(vec["beta"].degraded_datasets) == {"cloudflare", "ookla"}

    def test_single_sample_columns(self):
        # One observation per column: the quantile path where lo == hi.
        records = self._records(
            [
                ("alpha", "ndt", {"download_mbps": 55.5,
                                  "upload_mbps": 7.25,
                                  "latency_ms": 33.0,
                                  "packet_loss": 0.004}),
            ]
        )
        for mode in ScoreMode:
            config = paper_config().with_(score_mode=mode)
            vec = score_regions(records, config, kernel="vectorized")
            exact = score_regions(records, config, kernel="exact")
            assert vec == exact

    def test_lower_is_better_boundary_values(self):
        # Latency/loss exactly on the paper thresholds: the inclusive
        # `<=` compare must agree between numpy and Metric.meets.
        records = self._records(
            [
                ("alpha", "ndt", {"latency_ms": 100.0,
                                  "packet_loss": 0.01}),
                ("alpha", "ndt", {"latency_ms": 100.0,
                                  "packet_loss": 0.01}),
                ("alpha", "cloudflare", {"download_mbps": 10.0,
                                         "upload_mbps": 1.0}),
            ]
        )
        for mode in ScoreMode:
            config = paper_config().with_(score_mode=mode)
            vec = score_regions(records, config, kernel="vectorized")
            exact = score_regions(records, config, kernel="exact")
            assert vec == exact

    def test_strict_policy_error_messages_match(self):
        # ookla observes no packet loss → STRICT raises; the kernel must
        # raise the scalar path's first error, verbatim.
        records = self._records(
            [
                ("alpha", "ookla", {"download_mbps": 100.0,
                                    "upload_mbps": 20.0,
                                    "latency_ms": 30.0}),
            ]
        )
        config = paper_config().with_(missing_data=MissingDataPolicy.STRICT)
        with pytest.raises(DataError) as exact_error:
            score_regions(records, config, kernel="exact")
        with pytest.raises(DataError) as vec_error:
            score_regions(records, config, kernel="vectorized")
        assert str(vec_error.value) == str(exact_error.value)

    def test_unknown_kernel_rejected(self):
        records = self._records(
            [("alpha", "ndt", {"download_mbps": 10.0})]
        )
        with pytest.raises(ValueError, match="unknown scoring kernel"):
            score_regions(records, paper_config(), kernel="numba")


class TestParallelParity:
    def test_serialization_roundtrip_of_kernel_output(self):
        records = MeasurementSet(
            [
                Measurement(
                    region="alpha",
                    source="ndt",
                    timestamp=float(i),
                    download_mbps=40.0 + i,
                    upload_mbps=9.0 + i,
                    latency_ms=25.0,
                    packet_loss=0.002,
                )
                for i in range(5)
            ]
        )
        vec = score_regions(records, paper_config(), kernel="vectorized")
        document = vec["alpha"].to_dict()
        # Kernel-built breakdowns serialize to pure-JSON types and
        # survive the strict from_dict validators bit-for-bit.
        import json

        rebuilt = ScoreBreakdown.from_dict(
            json.loads(json.dumps(document))
        )
        assert rebuilt == vec["alpha"]
