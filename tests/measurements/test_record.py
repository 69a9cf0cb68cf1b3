"""Unit tests for repro.measurements.record."""

import math

import pytest

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric
from repro.measurements.record import Measurement


def make(**overrides):
    base = dict(
        region="r",
        source="ndt",
        timestamp=100.0,
        download_mbps=50.0,
        upload_mbps=10.0,
        latency_ms=20.0,
        packet_loss=0.01,
    )
    base.update(overrides)
    return Measurement(**base)


class TestValidation:
    def test_valid_record(self):
        record = make()
        assert record.region == "r"
        assert record.value(Metric.DOWNLOAD) == 50.0

    def test_region_required(self):
        with pytest.raises(SchemaError, match="region"):
            make(region="")

    def test_source_required(self):
        with pytest.raises(SchemaError, match="source"):
            make(source="")

    def test_at_least_one_metric_required(self):
        with pytest.raises(SchemaError, match="no metric"):
            make(
                download_mbps=None,
                upload_mbps=None,
                latency_ms=None,
                packet_loss=None,
            )

    def test_single_metric_is_enough(self):
        record = make(
            download_mbps=None,
            upload_mbps=None,
            latency_ms=30.0,
            packet_loss=None,
        )
        assert record.value(Metric.LATENCY) == 30.0
        assert record.value(Metric.DOWNLOAD) is None

    def test_negative_throughput_rejected(self):
        with pytest.raises(SchemaError, match="negative"):
            make(download_mbps=-1.0)
        with pytest.raises(SchemaError, match="negative"):
            make(upload_mbps=-0.5)

    def test_zero_throughput_allowed(self):
        assert make(download_mbps=0.0).download_mbps == 0.0

    def test_non_positive_latency_rejected(self):
        with pytest.raises(SchemaError, match="latency"):
            make(latency_ms=0.0)

    def test_loss_bounds(self):
        with pytest.raises(SchemaError, match="packet_loss"):
            make(packet_loss=1.5)
        with pytest.raises(SchemaError, match="packet_loss"):
            make(packet_loss=-0.01)
        assert make(packet_loss=0.0).packet_loss == 0.0
        assert make(packet_loss=1.0).packet_loss == 1.0

    @pytest.mark.parametrize(
        "field",
        [
            "timestamp",
            "download_mbps",
            "upload_mbps",
            "latency_ms",
            "packet_loss",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        # NaN slips past every `<`/`<=` bound, so each field needs an
        # explicit finiteness check.
        with pytest.raises(SchemaError, match=f"non-finite {field}"):
            make(**{field: value})


class TestSerialization:
    def test_round_trip(self):
        record = make(isp="CoaxCo", access_tech="cable", meta={"streams": 4})
        rebuilt = Measurement.from_dict(record.to_dict())
        assert rebuilt == record

    def test_none_metrics_omitted_from_dict(self):
        record = make(packet_loss=None)
        assert "packet_loss" not in record.to_dict()

    def test_empty_optional_fields_omitted(self):
        doc = make().to_dict()
        assert "isp" not in doc
        assert "meta" not in doc

    def test_from_dict_missing_required_field(self):
        doc = make().to_dict()
        del doc["region"]
        with pytest.raises(SchemaError, match="malformed"):
            Measurement.from_dict(doc)

    def test_from_dict_bad_types(self):
        doc = make().to_dict()
        doc["timestamp"] = "not-a-number"
        with pytest.raises(SchemaError):
            Measurement.from_dict(doc)

    def test_from_dict_validates_content(self):
        doc = make().to_dict()
        doc["packet_loss"] = 7.0
        with pytest.raises(SchemaError):
            Measurement.from_dict(doc)

    def test_from_dict_coerces_numeric_strings(self):
        doc = make().to_dict()
        doc["download_mbps"] = "55.5"
        assert Measurement.from_dict(doc).download_mbps == 55.5


class TestValueAccess:
    @pytest.mark.parametrize(
        "metric,expected",
        [
            (Metric.DOWNLOAD, 50.0),
            (Metric.UPLOAD, 10.0),
            (Metric.LATENCY, 20.0),
            (Metric.PACKET_LOSS, 0.01),
        ],
    )
    def test_value_maps_metrics_to_fields(self, metric, expected):
        assert make().value(metric) == expected

    def test_records_are_frozen(self):
        with pytest.raises(AttributeError):
            make().region = "other"

    def test_records_are_hashable_equatable(self):
        assert make() == make()
        assert make() != make(download_mbps=51.0)
