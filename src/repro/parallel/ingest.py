"""Parallel file ingest: byte-range splitting + sharded JSONL/CSV readers.

A measurement dump is a line-oriented file, so it splits for free: pick
``workers`` byte offsets, slide each forward to the next newline, and
every worker decodes a disjoint, line-aligned byte range with exactly
the serial chunk decoder (:mod:`repro.measurements.io`) into a
:class:`~repro.measurements.batch.RecordBatch`. The parent concatenates
the per-range batches in range order, so the resulting
:class:`~repro.measurements.collection.MeasurementSet` is
record-for-record identical to the serial readers.

Accounting mirrors the serial readers: workers bump the same
``ingest.*`` counters (their registry snapshots merge into the parent
via the pool), per-range :class:`~repro.measurements.io.IngestStats`
are summed into the caller's ``stats``, and skip mode logs one WARNING
with the total drop count.

Error semantics differ in one documented way: a malformed line in
``"raise"`` mode reports its line number *within the failing byte
range* (prefixed with the range's offsets) rather than a global line
number, because no worker knows how many lines precede its range.

Known constraint: the splitter assumes one record per line. That is
always true for JSONL and for CSV files written by
:func:`~repro.measurements.io.write_csv`; CSV files with embedded
newlines inside quoted fields must use the serial reader.
"""

from __future__ import annotations

import csv
import io
import os
from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.core.exceptions import SchemaError
from repro.measurements.batch import RecordBatch
from repro.measurements.collection import MeasurementSet
from repro.measurements.io import (
    IngestStats,
    checked_batches,
    decode_chunks,
    decode_csv_rows,
    decode_jsonl_lines,
    read_csv,
    read_jsonl,
)
from repro.obs import Span, counter, get_logger, span

from .pool import ShardError, run_sharded

_PathLike = Union[str, "os.PathLike[str]"]

_logger = get_logger(__name__)

ByteRange = Tuple[int, int]


def split_line_ranges(
    path: _PathLike, parts: int, offset: int = 0
) -> List[ByteRange]:
    """Split ``path`` into at most ``parts`` line-aligned byte ranges.

    Every range starts at a line boundary and ends at one (or EOF), the
    ranges are disjoint, and together they cover ``[offset, filesize)``
    exactly. Short files yield fewer ranges than requested — possibly
    just one — never an empty range.

    Args:
        offset: where coverage starts; the CSV reader passes the byte
            just past the header line.

    Raises:
        ValueError: when ``parts`` is not positive.
        OSError: when the file cannot be stat'ed or read.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1: {parts}")
    size = os.path.getsize(path)
    if offset >= size:
        return []
    boundaries = [offset]
    with open(path, "rb") as handle:
        for index in range(1, parts):
            target = offset + ((size - offset) * index) // parts
            if target <= boundaries[-1]:
                continue
            handle.seek(target)
            handle.readline()  # slide forward to the next line boundary
            position = handle.tell()
            if position >= size:
                break
            if position > boundaries[-1]:
                boundaries.append(position)
    boundaries.append(size)
    return [
        (boundaries[index], boundaries[index + 1])
        for index in range(len(boundaries) - 1)
    ]


def _range_label(path: str, start: int, end: int, lineno: int) -> str:
    return f"{path}: line {lineno} of byte range [{start}, {end})"


def _decode_range(
    path: str,
    shard: ByteRange,
    rows: Iterable,
    decode: Callable,
    on_error: str,
    fmt: str,
) -> Tuple[RecordBatch, IngestStats]:
    """Decode one range's lines/rows in chunks (worker side)."""
    start, end = shard
    read_name, skip_name = {
        "jsonl": ("ingest.jsonl.lines", "ingest.jsonl.skipped"),
        "csv": ("ingest.csv.rows", "ingest.csv.skipped"),
    }[fmt]
    stats = IngestStats()
    batches = list(
        checked_batches(
            decode_chunks(rows, decode, 1),
            on_error,
            stats,
            counter(read_name),
            counter(skip_name),
            lambda lineno: _range_label(path, start, end, lineno),
            {"path": path, "range": [start, end]},
            "line" if fmt == "jsonl" else "row",
        )
    )
    return RecordBatch.concat(batches), stats


def _read_range(path: str, shard: ByteRange) -> str:
    start, end = shard
    with open(path, "rb") as handle:
        handle.seek(start)
        return handle.read(end - start).decode("utf-8")


def _read_jsonl_range(
    payload: Tuple[str, str], shard: ByteRange
) -> Tuple[RecordBatch, IngestStats]:
    """Decode one byte range of a JSONL file (worker side)."""
    path, on_error = payload
    lines = _read_range(path, shard).split("\n")
    return _decode_range(
        path, shard, lines, decode_jsonl_lines, on_error, "jsonl"
    )


def _read_csv_range(
    payload: Tuple[str, Tuple[str, ...], str], shard: ByteRange
) -> Tuple[RecordBatch, IngestStats]:
    """Decode one byte range of a CSV file (worker side).

    The header line is excluded from every range; the parent reads it
    once and ships the field names in the payload.
    """
    path, fieldnames, on_error = payload
    reader = csv.DictReader(
        io.StringIO(_read_range(path, shard), newline=""),
        fieldnames=list(fieldnames),
    )
    rows = (
        {key: value for key, value in row.items() if key is not None}
        for row in reader
    )
    return _decode_range(path, shard, rows, decode_csv_rows, on_error, "csv")


def _merge_range_results(
    parts: List[Tuple[RecordBatch, IngestStats]],
    stats: IngestStats,
    path: _PathLike,
    noun: str,
    stage: Span,
) -> MeasurementSet:
    rows = sum(part_stats.read for _, part_stats in parts)
    skipped = sum(part_stats.skipped for _, part_stats in parts)
    stage.annotate(rows=rows, skipped=skipped)
    stats.read += rows
    stats.skipped += skipped
    if stats.skipped:
        _logger.warning(
            "skipped %d malformed %s(s) reading %s",
            stats.skipped,
            noun,
            path,
            extra={"ctx": {"read": stats.read, "skipped": stats.skipped}},
        )
    return MeasurementSet.from_batch(
        RecordBatch.concat([batch for batch, _ in parts])
    )


def _unwrap_shard_error(exc: ShardError) -> None:
    """Re-raise an ingest ShardError as its file-level cause.

    The CLI contract maps :class:`SchemaError` and :class:`OSError` to
    exit code 2 with a one-line message; a sharded read must not change
    that, so those causes propagate as themselves (the ShardError rides
    along as ``__cause__`` for anyone who wants the shard context).
    """
    if isinstance(exc.cause, (SchemaError, OSError)):
        raise exc.cause from exc


def read_jsonl_parallel(
    path: _PathLike,
    workers: int,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
) -> MeasurementSet:
    """Sharded :func:`~repro.measurements.io.read_jsonl`.

    Identical records, counters, stats, and skip WARNING; see the
    module docstring for the one difference in raise-mode line numbers.
    ``workers <= 1`` delegates to the serial reader outright.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip': {on_error!r}")
    if stats is None:
        stats = IngestStats()
    if workers <= 1:
        return read_jsonl(path, on_error=on_error, stats=stats)
    with span("ingest", format="jsonl", workers=workers) as stage:
        ranges = split_line_ranges(path, workers)
        stage.annotate(ranges=len(ranges))
        if not ranges:
            return MeasurementSet()
        try:
            parts = run_sharded(
                _read_jsonl_range,
                (str(path), on_error),
                ranges,
                workers=workers,
            )
        except ShardError as exc:
            _unwrap_shard_error(exc)
            raise
        return _merge_range_results(parts, stats, path, "line", stage)


def read_csv_parallel(
    path: _PathLike,
    workers: int,
    on_error: str = "raise",
    stats: Optional[IngestStats] = None,
) -> MeasurementSet:
    """Sharded :func:`~repro.measurements.io.read_csv`.

    The header row is read once in the parent; workers decode disjoint
    line-aligned byte ranges of the body. Requires one record per line
    (always true for :func:`~repro.measurements.io.write_csv` output).
    ``workers <= 1`` delegates to the serial reader outright.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip': {on_error!r}")
    if stats is None:
        stats = IngestStats()
    if workers <= 1:
        return read_csv(path, on_error=on_error, stats=stats)
    with span("ingest", format="csv", workers=workers) as stage:
        with open(path, "rb") as handle:
            header = handle.readline()
            body_start = handle.tell()
        if not header.strip():
            return MeasurementSet()
        fieldnames = tuple(
            next(csv.reader([header.decode("utf-8")]))
        )
        ranges = split_line_ranges(path, workers, offset=body_start)
        stage.annotate(ranges=len(ranges))
        if not ranges:
            return MeasurementSet()
        try:
            parts = run_sharded(
                _read_csv_range,
                (str(path), fieldnames, on_error),
                ranges,
                workers=workers,
            )
        except ShardError as exc:
            _unwrap_shard_error(exc)
            raise
        return _merge_range_results(parts, stats, path, "row", stage)
