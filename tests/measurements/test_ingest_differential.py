"""Differential property: the batch readers equal a per-line reference.

The readers decode files in chunks into column batches and check the
record contract on whole columns (``repro.measurements.io``). The
reference below is the plain per-line decoder: ``json.loads`` (or
``csv.DictReader``) and ``Measurement.from_dict`` for every line. On
files built from adversarial lines — invalid JSON, non-object and blank
lines, missing keys, list/dict/bool/numeric-string values, NaN and
Infinity tokens, negative, zero and out-of-range values, unicode names
— both must produce the same records, the same error text in raise
mode, and the same read/skip counts and counters in skip mode.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric
from repro.measurements import io as io_module
from repro.measurements.collection import MeasurementSet
from repro.measurements.io import (
    CSV_FIELDS,
    IngestStats,
    iter_csv,
    iter_jsonl,
    read_csv,
    read_jsonl,
)
from repro.measurements.record import Measurement
from repro.obs import counter
from repro.parallel import read_csv_parallel, read_jsonl_parallel

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NAMES = ["metro-fiber", "rural-dsl", "région-é", "東京", "a/b", "x y", ""]
METRIC_FIELDS = [metric.field_name for metric in Metric.ordered()]

junk = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["k", "v"]), st.integers(0, 3), max_size=1),
)
names = st.one_of(st.sampled_from(NAMES), junk)
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 0.0, -0.0, 0.5, 1, 1.0, 1.5, -1, -0.5, 2, 1e308]),
    st.integers(-5, 10**6),
    st.sampled_from(["12.5", "nan", "inf", "abc", "", " 7 ", "1_0"]),
    st.just(10**400),
    junk,
)
good_numbers = st.floats(0.001, 1000.0)
metas = st.one_of(
    st.dictionaries(
        st.sampled_from(["streams", "probes"]), st.integers(0, 9), max_size=2
    ),
    st.just([["streams", 1]]),
    st.just("oops"),
    st.just(3),
    st.none(),
)

valid_documents = st.fixed_dictionaries(
    {
        "region": st.sampled_from(NAMES[:-1]),
        "source": st.sampled_from(["ndt", "ookla", "cloudflare"]),
        "timestamp": st.one_of(st.floats(0, 1e9), st.integers(0, 10**9)),
    },
    optional={
        "download_mbps": good_numbers,
        "upload_mbps": good_numbers,
        "latency_ms": good_numbers,
        "packet_loss": st.floats(0.0, 1.0),
        "isp": st.sampled_from(["ispA", "ispB", ""]),
        "access_tech": st.sampled_from(["fiber", "dsl"]),
        "meta": st.dictionaries(st.just("streams"), st.integers(1, 4), max_size=1),
    },
).filter(lambda doc: any(field in doc for field in METRIC_FIELDS))

adversarial_documents = st.fixed_dictionaries(
    {},
    optional={
        "region": names,
        "source": names,
        "timestamp": numbers,
        "download_mbps": numbers,
        "upload_mbps": numbers,
        "latency_ms": numbers,
        "packet_loss": numbers,
        "isp": names,
        "access_tech": names,
        "meta": metas,
    },
)


@st.composite
def near_valid_documents(draw):
    """A valid document with one field broken, replaced or dropped."""
    document = dict(draw(valid_documents))
    field = draw(
        st.sampled_from(
            ["region", "source", "timestamp", *METRIC_FIELDS,
             "isp", "access_tech", "meta"]
        )
    )
    if draw(st.booleans()) and field in document:
        del document[field]
    elif field in ("region", "source", "isp", "access_tech"):
        document[field] = draw(names)
    elif field == "meta":
        document[field] = draw(metas)
    else:
        document[field] = draw(numbers)
    return document


JUNK_LINES = [
    "{not json",
    "[1, 2",
    "",
    "   ",
    "null",
    "42",
    '"text"',
    "[]",
    "{}",
    '{"region": "r"} trailing',
    "﻿{}",
]


@st.composite
def jsonl_texts(draw):
    lines = draw(
        st.lists(
            st.one_of(
                st.tuples(valid_documents, st.booleans()).map(
                    lambda pair: json.dumps(pair[0], ensure_ascii=pair[1])
                ),
                st.tuples(adversarial_documents, st.booleans()).map(
                    lambda pair: json.dumps(pair[0], ensure_ascii=pair[1])
                ),
                st.tuples(near_valid_documents(), st.booleans()).map(
                    lambda pair: json.dumps(pair[0], ensure_ascii=pair[1])
                ),
                st.sampled_from(JUNK_LINES),
            ),
            max_size=24,
        )
    )
    trailing = draw(st.booleans())
    return "\n".join(lines) + ("\n" if trailing and lines else "")


CELLS = st.one_of(
    st.sampled_from(
        ["", "nan", "inf", "-inf", "-1", "0", "-0.0", "0.5", "1", "2", "abc",
         "1e999", " 5 ", "1_0", "12.5", "NaN", "Infinity"]
    ),
    st.floats(0.001, 1000.0).map(repr),
)


@st.composite
def csv_texts(draw):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    rows = draw(st.integers(0, 20))
    for _ in range(rows):
        kind = draw(st.sampled_from(["valid", "adversarial", "short", "long"]))
        if kind == "short":
            writer.writerow(["r1", "ndt"])
            continue
        if kind == "long":
            writer.writerow(["r1", "ndt", "1.0", "5", "", "", "", "", "", "extra"])
            continue
        row = {
            "region": draw(st.sampled_from(NAMES)),
            "source": draw(st.sampled_from(["ndt", "ookla", ""])),
            "isp": draw(st.sampled_from(["", "ispA"])),
            "access_tech": draw(st.sampled_from(["", "fiber"])),
        }
        for field in ["timestamp", *METRIC_FIELDS]:
            row[field] = draw(
                st.floats(0.001, 0.9).map(repr) if kind == "valid" else CELLS
            )
        writer.writerow([row[field] for field in CSV_FIELDS])
    return out.getvalue()


def reference_read(path, on_error, fmt):
    """Per-line decode: (records, read, skipped, error)."""
    records, read, skipped = [], 0, 0
    newline = "" if fmt == "csv" else None
    with open(path, "r", encoding="utf-8", newline=newline) as handle:
        if fmt == "csv":
            lines = enumerate(csv.DictReader(handle), start=2)
        else:
            lines = enumerate(handle, start=1)
        for lineno, line in lines:
            try:
                if fmt == "csv":
                    document = {
                        key: value
                        for key, value in line.items()
                        if value not in ("", None)
                    }
                else:
                    line = line.strip()
                    if not line:
                        continue
                    document = json.loads(line)
                record = Measurement.from_dict(document)
            except (json.JSONDecodeError, SchemaError) as exc:
                if on_error == "skip":
                    skipped += 1
                    continue
                return records, read, skipped, SchemaError(f"{path}:{lineno}: {exc}")
            except Exception as exc:  # noqa: BLE001 - propagates as itself
                return records, read, skipped, exc
            records.append(record)
            read += 1
    return records, read, skipped, None


COUNTERS = {
    "jsonl": ("ingest.jsonl.lines", "ingest.jsonl.skipped"),
    "csv": ("ingest.csv.rows", "ingest.csv.skipped"),
}


def assert_same_as_reference(path, fmt, on_error):
    expected, read, skipped, error = reference_read(path, on_error, fmt)
    reader = read_jsonl if fmt == "jsonl" else read_csv
    read_name, skip_name = COUNTERS[fmt]
    before = (counter(read_name).value, counter(skip_name).value)
    stats = IngestStats()
    if error is not None:
        with pytest.raises(type(error)) as caught:
            reader(path, on_error=on_error, stats=stats)
        assert str(caught.value) == str(error)
    else:
        loaded = reader(path, on_error=on_error, stats=stats)
        reference = MeasurementSet(expected)
        # Batch-backed answers first, before anything materializes.
        assert len(loaded) == len(reference)
        assert loaded.regions() == reference.regions()
        assert loaded.sources() == reference.sources()
        assert loaded.isps() == reference.isps()
        for metric in Metric:
            assert [repr(v) for v in loaded.values(metric)] == [
                repr(v) for v in reference.values(metric)
            ]
        assert [repr(r) for r in loaded] == [repr(r) for r in expected]
    assert (stats.read, stats.skipped) == (read, skipped)
    assert (
        counter(read_name).value - before[0],
        counter(skip_name).value - before[1],
    ) == (read, skipped)
    # The streaming reader yields every record before the bad line.
    streamed = []
    iterator = (iter_jsonl if fmt == "jsonl" else iter_csv)(path, on_error=on_error)
    try:
        for record in iterator:
            streamed.append(repr(record))
    except Exception as exc:  # noqa: BLE001 - compared with the reference
        assert (type(exc), str(exc)) == (type(error), str(error))
    else:
        assert error is None
    assert streamed == [repr(r) for r in expected]


def write(directory, name, text):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


class TestJsonlDifferential:
    @SETTINGS
    @given(
        text=jsonl_texts(),
        on_error=st.sampled_from(["raise", "skip"]),
        chunk=st.integers(1, 8),
    )
    def test_matches_per_line_reference(self, text, on_error, chunk):
        with tempfile.TemporaryDirectory() as directory:
            path = write(directory, "data.jsonl", text)
            with mock.patch.object(io_module, "CHUNK_LINES", chunk):
                assert_same_as_reference(path, "jsonl", on_error)


class TestCsvDifferential:
    @SETTINGS
    @given(
        text=csv_texts(),
        on_error=st.sampled_from(["raise", "skip"]),
        chunk=st.integers(1, 8),
    )
    def test_matches_per_row_reference(self, text, on_error, chunk):
        with tempfile.TemporaryDirectory() as directory:
            path = write(directory, "data.csv", text)
            with mock.patch.object(io_module, "CHUNK_LINES", chunk):
                assert_same_as_reference(path, "csv", on_error)


class TestParallelEqualsSerial:
    """Two-worker reads equal the serial reader (records and counts).

    Raise-mode line numbers are range-relative by design (see
    ``repro.parallel.ingest``), so only the error type is compared.
    """

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        text=st.one_of(jsonl_texts(), csv_texts()),
        on_error=st.sampled_from(["raise", "skip"]),
    )
    def test_two_workers_match_serial(self, text, on_error):
        fmt = "csv" if text.startswith(",".join(CSV_FIELDS)) else "jsonl"
        if fmt == "jsonl":
            text = text.replace(str(10**400), "1")  # serial-only failure mode
        serial_reader, parallel_reader = {
            "jsonl": (read_jsonl, read_jsonl_parallel),
            "csv": (read_csv, read_csv_parallel),
        }[fmt]
        with tempfile.TemporaryDirectory() as directory:
            path = write(directory, f"data.{fmt}", text)
            serial_stats, parallel_stats = IngestStats(), IngestStats()
            try:
                serial = serial_reader(path, on_error=on_error, stats=serial_stats)
            except SchemaError:
                with pytest.raises(SchemaError):
                    parallel_reader(path, 2, on_error=on_error)
                return
            parallel = parallel_reader(path, 2, on_error=on_error, stats=parallel_stats)
            assert [repr(r) for r in parallel] == [repr(r) for r in serial]
            assert parallel_stats == serial_stats
