"""Reading and writing measurement records (JSONL and CSV).

JSON Lines is the primary interchange format: one measurement document
per line, append-friendly, and the natural shape for the probing
framework's streaming sinks. CSV import/export exists for spreadsheet
interoperability; the CSV dialect is plain (header row, comma, no
quoting surprises) with ``meta`` omitted.

Readers decode a file in bounded chunks of :data:`CHUNK_LINES` lines
straight into :class:`~.batch.RecordBatch` columns (see
``docs/methodology.md``, "Ingest"). Each line is decoded with
:func:`json.loads` (or :mod:`csv`) as before; the record contract is
then checked on whole columns, and any row the column check flags — or
whose values are not plain strings and numbers — is re-decoded through
:meth:`Measurement.from_dict <.record.Measurement.from_dict>`, so every
coercion and every error text still comes from the one record
contract. ``read_jsonl``/``read_csv`` return a batch-backed
:class:`~.collection.MeasurementSet`; ``Measurement`` objects are built
only for callers that walk the records.

Readers are strict by default — a malformed line raises
:class:`~repro.core.exceptions.SchemaError` naming the line number — and
tolerant on request (``on_error="skip"``), because real measurement
dumps do contain garbage rows. Skips are never silent: they increment
the ``ingest.*.skipped`` counters and the whole-file readers log one
WARNING with the drop count (see :mod:`repro.obs`). Counters move once
per chunk by the chunk's totals; each whole-file read is one
``ingest`` span carrying its row and skip counts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.exceptions import SchemaError
from repro.core.metrics import Metric
from repro.obs import Counter, counter, get_logger, span

from .batch import LABELS, METRICS, RecordBatch, intern
from .collection import MeasurementSet
from .record import Measurement

_PathLike = Union[str, Path]

_logger = get_logger(__name__)

_JSONL_READ = counter("ingest.jsonl.lines")
_JSONL_SKIPPED = counter("ingest.jsonl.skipped")
_CSV_READ = counter("ingest.csv.rows")
_CSV_SKIPPED = counter("ingest.csv.skipped")

#: Lines decoded per chunk: bounds the decoder's transient memory (the
#: parsed documents of one chunk) while keeping per-chunk numpy work
#: amortized.
CHUNK_LINES = 4096

#: (line number, exception) for one undecodable line or row.
LineError = Tuple[int, Exception]


@dataclass
class IngestStats:
    """Per-call accounting of one reader invocation.

    ``read`` counts records successfully decoded; ``skipped`` counts
    malformed lines/rows dropped under ``on_error="skip"`` (always 0 in
    ``"raise"`` mode, where the first bad line aborts the read).
    """

    read: int = 0
    skipped: int = 0

CSV_FIELDS = (
    "region",
    "source",
    "timestamp",
    "download_mbps",
    "upload_mbps",
    "latency_ms",
    "packet_loss",
    "isp",
    "access_tech",
)


def write_jsonl(records: MeasurementSet, path: _PathLike) -> int:
    """Write records as JSON Lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


# -- the chunk decoder -------------------------------------------------------


class _Absent:
    """Marks a document without a ``meta`` key (``null`` is an error)."""


_NO_META = _Absent()
_NUMBER = frozenset((float, int))
_NUMBER_OR_MISSING = frozenset((float, int, type(None)))
_METRIC_FIELDS = tuple((metric, metric.field_name) for metric in METRICS)


def _float_column(
    values: List[Any], missing_ok: bool, flagged: Set[int]
) -> np.ndarray:
    """float64 column of ``values`` (None → NaN when ``missing_ok``).

    Conversion is ``float(value)``, exactly what the record contract
    applies. Rows whose value does not convert, is missing where it is
    required, is not a plain number or string, or converts to NaN are
    added to ``flagged`` (their cell is NaN).
    """
    column: Optional[np.ndarray] = None
    if set(map(type, values)) <= (_NUMBER_OR_MISSING if missing_ok else _NUMBER):
        try:
            column = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer beyond float range
            column = None
    if column is None:
        column = np.empty(len(values), dtype=np.float64)
        for row, value in enumerate(values):
            if type(value) in _NUMBER or type(value) is str:
                try:
                    column[row] = float(value)
                    continue
                except (ValueError, OverflowError):
                    pass
            column[row] = math.nan
            if value is not None or not missing_ok:
                flagged.add(row)
    nan_rows = np.flatnonzero(np.isnan(column))
    if nan_rows.size != values.count(None):
        # A NaN read from the file, not a missing cell.
        flagged.update(row for row in nan_rows.tolist() if values[row] is not None)
    return column


def _label_column(
    values: List[Any], required: bool, flagged: Set[int]
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Interned codes for a string field; non-strings (and empty
    required names) are flagged."""
    if set(map(type, values)) != {str}:
        flagged.update(
            row for row, value in enumerate(values) if type(value) is not str
        )
        values = [value if type(value) is str else "" for value in values]
    codes, names = intern(values)
    if required and "" in names:
        flagged.update(np.flatnonzero(codes == names.index("")).tolist())
    return codes, names


def _violations(timestamp: np.ndarray, metrics: Dict[Metric, np.ndarray]) -> np.ndarray:
    """Rows breaking the record contract's value rules (vectorized)."""
    bad = ~np.isfinite(timestamp)
    observed = np.zeros(timestamp.size, dtype=bool)
    for column in metrics.values():
        seen = ~np.isnan(column)
        observed |= seen
        bad |= seen & ~np.isfinite(column)
    bad |= ~observed
    bad |= metrics[Metric.DOWNLOAD] < 0
    bad |= metrics[Metric.UPLOAD] < 0
    bad |= metrics[Metric.LATENCY] <= 0
    loss = metrics[Metric.PACKET_LOSS]
    bad |= (loss < 0) | (loss > 1)
    return np.flatnonzero(bad)


def decode_documents(
    documents: List[Any], linenos: List[int]
) -> Tuple[RecordBatch, np.ndarray, List[LineError]]:
    """Decode parsed documents into a batch under the record contract.

    Returns the batch of accepted rows, their line numbers, and one
    ``(line, exception)`` per rejected document, in line order. A
    document is accepted exactly when ``Measurement.from_dict`` accepts
    it, with the same field values; a rejection carries the exception
    ``from_dict`` raises.
    """
    if not documents:
        return RecordBatch.empty(), np.empty(0, dtype=np.int64), []
    flagged: Set[int] = set()
    docs = documents
    if set(map(type, documents)) != {dict}:
        flagged.update(
            row for row, doc in enumerate(documents) if type(doc) is not dict
        )
        docs = [doc if type(doc) is dict else {} for doc in documents]
    codes: Dict[str, np.ndarray] = {}
    names: Dict[str, Tuple[str, ...]] = {}
    for label in LABELS:
        required = label in ("region", "source")
        codes[label], names[label] = _label_column(
            [doc.get(label) if required else doc.get(label, "") for doc in docs],
            required,
            flagged,
        )
    timestamp = _float_column(
        [doc.get("timestamp") for doc in docs], False, flagged
    )
    metrics = {
        metric: _float_column(
            [doc.get(field) for doc in docs], True, flagged
        )
        for metric, field in _METRIC_FIELDS
    }
    metas = [doc.get("meta", _NO_META) for doc in docs]
    kinds = set(map(type, metas))
    meta: Optional[List[Optional[dict]]] = None
    if kinds != {_Absent}:
        if not kinds <= {_Absent, dict}:
            flagged.update(
                row
                for row, value in enumerate(metas)
                if not isinstance(value, (_Absent, dict))
            )
        meta = [value if type(value) is dict and value else None for value in metas]
    flagged.update(_violations(timestamp, metrics).tolist())
    batch = RecordBatch(timestamp, metrics, codes, names, meta)
    if not flagged:
        return batch, np.asarray(linenos, dtype=np.int64), []
    return _redecode(batch, documents, linenos, sorted(flagged))


def _redecode(
    batch: RecordBatch,
    documents: List[Any],
    linenos: List[int],
    flagged: List[int],
) -> Tuple[RecordBatch, np.ndarray, List[LineError]]:
    """Re-decode flagged rows through ``Measurement.from_dict``.

    Rows it rejects are dropped and reported; rows it accepts (after a
    coercion such as a numeric string or a non-string name) take the
    record's fields, in their original row position.
    """
    errors: List[LineError] = []
    accepted: List[int] = []
    records: List[Measurement] = []
    for row in flagged:
        try:
            records.append(Measurement.from_dict(documents[row]))
        except Exception as exc:  # noqa: BLE001 - re-raised in line order
            errors.append((linenos[row], exc))
            continue
        accepted.append(row)
    clean = np.setdiff1d(np.arange(len(batch)), flagged)
    merged = RecordBatch.concat(
        [batch.take(clean), RecordBatch.from_measurements(records)]
    )
    positions = np.concatenate([clean, np.asarray(accepted, dtype=clean.dtype)])
    order = np.argsort(positions, kind="stable")
    return (
        merged.take(order),
        np.asarray(linenos, dtype=np.int64)[positions[order]],
        errors,
    )


def decode_jsonl_lines(
    lines: Iterable[str], first_lineno: int
) -> Tuple[RecordBatch, np.ndarray, List[LineError]]:
    """One chunk of JSONL text lines → (batch, line numbers, errors)."""
    documents: List[Any] = []
    linenos: List[int] = []
    parse_errors: List[LineError] = []
    loads = json.loads
    for lineno, line in enumerate(lines, first_lineno):
        line = line.strip()
        if not line:
            continue
        try:
            documents.append(loads(line))
        except Exception as exc:  # noqa: BLE001 - re-raised in line order
            # checked_batches raises (or skips) it once every earlier
            # line of the chunk has been judged, as a line loop would.
            parse_errors.append((lineno, exc))
            continue
        linenos.append(lineno)
    batch, kept, errors = decode_documents(documents, linenos)
    if parse_errors:
        errors = sorted(errors + parse_errors, key=lambda error: error[0])
    return batch, kept, errors


def _csv_document(row: "dict") -> "dict":
    """A CSV row as a record document: empty cells dropped."""
    return {key: value for key, value in row.items() if value not in ("", None)}


def decode_csv_rows(
    rows: Sequence["dict"], first_lineno: int
) -> Tuple[RecordBatch, np.ndarray, List[LineError]]:
    """One chunk of ``csv.DictReader`` rows → (batch, line numbers, errors)."""
    return decode_documents(
        [_csv_document(row) for row in rows],
        list(range(first_lineno, first_lineno + len(rows))),
    )


def checked_batches(
    chunks: Iterable[Tuple[RecordBatch, np.ndarray, List[LineError]]],
    on_error: str,
    stats: IngestStats,
    read_counter: Counter,
    skip_counter: Counter,
    where: Callable[[int], str],
    log_ctx: Dict[str, object],
    noun: str = "line",
) -> Iterator[RecordBatch]:
    """Apply the ``on_error`` policy to decoded chunks, counting as we go.

    Skip mode drops every line the record contract rejects. Raise mode
    yields the rows before the first bad line (they count as read, as
    they would one by one) and then raises ``SchemaError("<where>:
    <reason>")``. Anything other than a JSON or schema error (say, an
    integer too large for a float) propagates as itself in both modes.
    """
    for batch, linenos, errors in chunks:
        skipped = 0
        for lineno, exc in errors:
            schema = isinstance(exc, (json.JSONDecodeError, SchemaError))
            if schema and on_error == "skip":
                skipped += 1
                if _logger.isEnabledFor(10):  # logging.DEBUG
                    _logger.debug(
                        f"skipped malformed {noun}",
                        extra={"ctx": {**log_ctx, "line": lineno}},
                    )
                continue
            head = int(np.searchsorted(linenos, lineno))
            _count(stats, read_counter, skip_counter, head, skipped)
            if head:
                yield batch.take(np.arange(head))
            if schema:
                raise SchemaError(f"{where(lineno)}: {exc}") from exc
            raise exc
        _count(stats, read_counter, skip_counter, len(batch), skipped)
        if len(batch):
            yield batch


def _count(
    stats: IngestStats,
    read_counter: Counter,
    skip_counter: Counter,
    read: int,
    skipped: int,
) -> None:
    stats.read += read
    stats.skipped += skipped
    if read:
        read_counter.inc(read)
    if skipped:
        skip_counter.inc(skipped)


def _check_policy(on_error: str) -> None:
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip': {on_error!r}")


def _jsonl_batches(
    path: _PathLike, on_error: str, stats: IngestStats
) -> Iterator[RecordBatch]:
    _check_policy(on_error)
    with open(path, "r", encoding="utf-8") as handle:
        chunks = decode_chunks(handle, decode_jsonl_lines, 1)
        yield from checked_batches(
            chunks,
            on_error,
            stats,
            _JSONL_READ,
            _JSONL_SKIPPED,
            lambda lineno: f"{path}:{lineno}",
            {"path": str(path)},
        )


def _csv_batches(
    path: _PathLike, on_error: str, stats: IngestStats
) -> Iterator[RecordBatch]:
    _check_policy(on_error)
    with open(path, "r", encoding="utf-8", newline="") as handle:
        chunks = decode_chunks(csv.DictReader(handle), decode_csv_rows, 2)
        yield from checked_batches(
            chunks,
            on_error,
            stats,
            _CSV_READ,
            _CSV_SKIPPED,
            lambda lineno: f"{path}:{lineno}",
            {"path": str(path)},
            "row",
        )


def decode_chunks(
    lines: Iterable, decode: Callable, first_lineno: int
) -> Iterator:
    """Decode ``lines`` in chunks of :data:`CHUNK_LINES`."""
    iterator = iter(lines)
    while True:
        chunk = list(islice(iterator, CHUNK_LINES))
        if not chunk:
            return
        yield decode(chunk, first_lineno)
        first_lineno += len(chunk)


def _read_whole(
    batches: Callable[[_PathLike, str, IngestStats], Iterator[RecordBatch]],
    fmt: str,
    noun: str,
    path: _PathLike,
    on_error: str,
    stats: Optional[IngestStats],
) -> MeasurementSet:
    if stats is None:
        stats = IngestStats()
    before = IngestStats(stats.read, stats.skipped)
    with span("ingest", format=fmt) as stage:
        batch = RecordBatch.concat(list(batches(path, on_error, stats)))
        stage.annotate(
            rows=stats.read - before.read, skipped=stats.skipped - before.skipped
        )
    if stats.skipped:
        _logger.warning(
            "skipped %d malformed %s(s) reading %s",
            stats.skipped,
            noun,
            path,
            extra={"ctx": {"read": stats.read, "skipped": stats.skipped}},
        )
    return MeasurementSet.from_batch(batch)


# -- JSONL -------------------------------------------------------------------


def iter_jsonl(
    path: _PathLike,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
) -> Iterator[Measurement]:
    """Stream records from a JSONL file, one decoded chunk at a time.

    Args:
        on_error: ``"raise"`` (default) aborts on the first bad line,
            after yielding every record before it; ``"skip"`` drops
            undecodable or invalid lines. Every drop increments the
            ``ingest.jsonl.skipped`` counter and logs the offending
            line number at DEBUG.
        stats: optional :class:`IngestStats` updated in place, for
            callers that need this call's exact read/skip counts.
    """
    _check_policy(on_error)
    for batch in _jsonl_batches(path, on_error, stats or IngestStats()):
        yield from batch.measurements()


def read_jsonl(
    path: _PathLike,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
) -> MeasurementSet:
    """Load a whole JSONL file into a batch-backed MeasurementSet.

    In ``on_error="skip"`` mode, a file with malformed lines loads the
    good records and logs one WARNING with the skip count (also visible
    as the ``ingest.jsonl.skipped`` counter). Pass ``stats`` to receive
    this call's exact read/skip counts (run-provenance manifests record
    them per input file).
    """
    return _read_whole(_jsonl_batches, "jsonl", "line", path, on_error, stats)


# -- CSV ---------------------------------------------------------------------


def write_csv(records: MeasurementSet, path: _PathLike) -> int:
    """Write records as CSV (``meta`` is not representable and dropped)."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for record in records:
            row = {field: "" for field in CSV_FIELDS}
            row["region"] = record.region
            row["source"] = record.source
            row["timestamp"] = repr(record.timestamp)
            for metric in Metric:
                value = record.value(metric)
                if value is not None:
                    row[metric.field_name] = repr(value)
            row["isp"] = record.isp
            row["access_tech"] = record.access_tech
            writer.writerow(row)
            count += 1
    return count


def csv_row_to_measurement(row: "dict") -> Measurement:
    """Decode one CSV row (a ``csv.DictReader`` mapping) into a record.

    Empty cells and unknown extra columns are dropped before schema
    validation — the same document the chunked CSV readers decode.

    Raises:
        SchemaError: on a row that does not form a valid measurement.
    """
    return Measurement.from_dict(_csv_document(row))


def iter_csv(
    path: _PathLike,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
) -> Iterator[Measurement]:
    """Stream records from a CSV produced by :func:`write_csv`.

    Streaming parity with :func:`iter_jsonl`: one decoded chunk at a
    time, strict by default, tolerant with ``on_error="skip"`` (drops
    increment ``ingest.csv.skipped`` and log the row number at DEBUG).
    Line numbers count the header as line 1, matching :func:`read_csv`.

    Args:
        on_error: ``"raise"`` (default) aborts on the first bad row;
            ``"skip"`` drops rows that do not decode.
        stats: optional :class:`IngestStats` updated in place.
    """
    _check_policy(on_error)
    for batch in _csv_batches(path, on_error, stats or IngestStats()):
        yield from batch.measurements()


def read_csv(
    path: _PathLike,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
) -> MeasurementSet:
    """Load measurements from a CSV produced by :func:`write_csv`.

    Unknown extra columns are ignored; missing metric cells become None.
    In ``on_error="skip"`` mode, dropped rows are counted
    (``ingest.csv.skipped``) and reported with one WARNING. ``stats``
    receives this call's read/skip counts, as in :func:`read_jsonl`.
    """
    return _read_whole(_csv_batches, "csv", "row", path, on_error, stats)
