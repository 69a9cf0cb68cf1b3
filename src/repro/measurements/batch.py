"""RecordBatch: measurements as typed columns, the ingest-to-plane layout.

The readers (:mod:`.io`) decode a file straight into one
:class:`RecordBatch`, and every batch consumer reads its columns
directly: :class:`~.columnar.ColumnarStore` (exact planes),
:class:`~.sketchplane.SketchPlane` (t-digests) and the dataset cache's
tile builder. :class:`~.record.Measurement` objects are rebuilt from a
batch only at the API edges that walk records one at a time.

Layout, one row per measurement:

* ``timestamp`` and one column per :class:`~repro.core.metrics.Metric`:
  float64, NaN meaning "not observed" (NaN is never an observed value;
  the record contract rejects it);
* ``region``, ``source``, ``isp``, ``access_tech``: int32 codes into a
  per-batch name table, names in order of first appearance. Tables
  hold only names some row uses;
* ``meta``: the per-row ``meta`` mapping (``None`` when empty), kept
  only to rebuild records; ``None`` for the whole batch when no row
  carries one.

Batches are immutable by convention: nothing in the package writes to
a batch's arrays after construction, so stores and views share them.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.metrics import Metric

from .record import Measurement

#: Interned string fields, in ``Measurement`` field order.
LABELS = ("region", "source", "isp", "access_tech")

#: Metric columns, in :meth:`Metric.ordered` order.
METRICS = Metric.ordered()


def intern(values: Sequence[Hashable]) -> Tuple[np.ndarray, Tuple]:
    """(codes, names) for a column of keys; names in first-appearance order."""
    table: Dict[Hashable, int] = dict.fromkeys(values, 0)
    for code, name in enumerate(table):
        table[name] = code
    codes = np.fromiter(
        map(table.__getitem__, values), dtype=np.int32, count=len(values)
    )
    return codes, tuple(table)


def compact(
    codes: np.ndarray, names: Sequence[str]
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Drop unused names and renumber them by first appearance."""
    if codes.size == 0:
        return codes.astype(np.int32), ()
    used, first = np.unique(codes, return_index=True)
    order = used[np.argsort(first, kind="stable")]
    if order.size == len(names) and np.array_equal(
        order, np.arange(order.size)
    ):
        return codes, tuple(names)
    remap = np.zeros(len(names), dtype=np.int32)
    remap[order] = np.arange(order.size, dtype=np.int32)
    return remap[codes], tuple(names[int(code)] for code in order)


def group_rows(codes: np.ndarray, size: int) -> List[np.ndarray]:
    """Row indexes per code ``0..size-1`` (ascending), via one stable sort."""
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=size)
    return np.split(order, np.cumsum(counts)[:-1])


class RecordBatch:
    """Columns for a run of measurement rows (see module docstring)."""

    __slots__ = ("timestamp", "metrics", "codes", "names", "meta")

    def __init__(
        self,
        timestamp: np.ndarray,
        metrics: Mapping[Metric, np.ndarray],
        codes: Mapping[str, np.ndarray],
        names: Mapping[str, Tuple[str, ...]],
        meta: Optional[List[Optional[dict]]] = None,
    ) -> None:
        self.timestamp = timestamp
        self.metrics: Dict[Metric, np.ndarray] = dict(metrics)
        self.codes: Dict[str, np.ndarray] = dict(codes)
        self.names: Dict[str, Tuple[str, ...]] = dict(names)
        self.meta = meta

    @classmethod
    def empty(cls) -> "RecordBatch":
        return cls(
            np.empty(0, dtype=np.float64),
            {metric: np.empty(0, dtype=np.float64) for metric in METRICS},
            {label: np.empty(0, dtype=np.int32) for label in LABELS},
            {label: () for label in LABELS},
        )

    @classmethod
    def from_measurements(
        cls, records: Iterable[Measurement]
    ) -> "RecordBatch":
        """Transpose validated records into a batch (row order kept)."""
        rows = records if isinstance(records, list) else list(records)
        if not rows:
            return cls.empty()
        codes: Dict[str, np.ndarray] = {}
        names: Dict[str, Tuple[str, ...]] = {}
        for label in LABELS:
            codes[label], names[label] = intern(
                [getattr(record, label) for record in rows]
            )
        metas = [record.meta or None for record in rows]
        return cls(
            np.array([record.timestamp for record in rows], dtype=np.float64),
            {
                metric: np.array(
                    [getattr(record, metric.field_name) for record in rows],
                    dtype=np.float64,
                )
                for metric in METRICS
            },
            codes,
            names,
            metas if any(meta is not None for meta in metas) else None,
        )

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """Rows of every batch, in order; name tables merged."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        codes: Dict[str, np.ndarray] = {}
        names: Dict[str, Tuple[str, ...]] = {}
        for label in LABELS:
            table: Dict[str, int] = {}
            parts = []
            for batch in batches:
                remap = np.fromiter(
                    (
                        table.setdefault(name, len(table))
                        for name in batch.names[label]
                    ),
                    dtype=np.int32,
                    count=len(batch.names[label]),
                )
                parts.append(remap[batch.codes[label]])
            codes[label] = np.concatenate(parts)
            names[label] = tuple(table)
        meta: Optional[List[Optional[dict]]] = None
        if any(batch.meta is not None for batch in batches):
            meta = []
            for batch in batches:
                meta.extend(
                    batch.meta if batch.meta is not None else [None] * len(batch)
                )
        return cls(
            np.concatenate([batch.timestamp for batch in batches]),
            {
                metric: np.concatenate(
                    [batch.metrics[metric] for batch in batches]
                )
                for metric in METRICS
            },
            codes,
            names,
            meta,
        )

    def __len__(self) -> int:
        return int(self.timestamp.size)

    def __repr__(self) -> str:
        return f"RecordBatch({len(self)} rows)"

    def column(self, metric: Metric) -> np.ndarray:
        """The metric's float64 column (NaN where unobserved)."""
        return self.metrics[metric]

    def labels(self, label: str) -> List[str]:
        """One string per row for an interned field."""
        names = self.names[label]
        return [names[code] for code in self.codes[label].tolist()]

    def groups(self, label: str) -> Dict[str, np.ndarray]:
        """name → ascending row indexes, names in first-appearance order."""
        names = self.names[label]
        return dict(zip(names, group_rows(self.codes[label], len(names))))

    def pairs(self) -> Tuple[np.ndarray, Tuple[Tuple[str, str], ...]]:
        """(region, source) pair code per row; pairs in first-appearance order."""
        regions, sources = self.names["region"], self.names["source"]
        combined = self.codes["region"].astype(np.int64) * len(sources)
        combined += self.codes["source"]
        present, first, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(order.size, dtype=np.intp)
        rank[order] = np.arange(order.size, dtype=np.intp)
        keys = tuple(
            (regions[code // len(sources)], sources[code % len(sources)])
            for code in present[order].tolist()
        )
        return rank[inverse.reshape(-1)], keys

    def take(self, rows: np.ndarray) -> "RecordBatch":
        """The selected rows (in the given order), name tables compacted."""
        codes: Dict[str, np.ndarray] = {}
        names: Dict[str, Tuple[str, ...]] = {}
        for label in LABELS:
            codes[label], names[label] = compact(
                self.codes[label][rows], self.names[label]
            )
        meta = None
        if self.meta is not None:
            meta = [self.meta[row] for row in rows.tolist()]
            if all(entry is None for entry in meta):
                meta = None
        return RecordBatch(
            self.timestamp[rows],
            {metric: column[rows] for metric, column in self.metrics.items()},
            codes,
            names,
            meta,
        )

    def measurements(self) -> List[Measurement]:
        """Rebuild one :class:`Measurement` per row (the API-edge path)."""
        n = len(self)
        if n == 0:
            return []
        # NaN != NaN: the unobserved cells become None again.
        download, upload, latency, loss = (
            [None if value != value else value for value in column.tolist()]
            for column in (self.metrics[metric] for metric in METRICS)
        )
        metas = self.meta if self.meta is not None else [None] * n
        return [
            Measurement(
                region=region,
                source=source,
                timestamp=timestamp,
                download_mbps=down,
                upload_mbps=up,
                latency_ms=rtt,
                packet_loss=lost,
                isp=isp,
                access_tech=tech,
                meta=dict(meta) if meta else {},
            )
            for (
                region, source, isp, tech, timestamp,
                down, up, rtt, lost, meta,
            ) in zip(
                *(self.labels(label) for label in LABELS),
                self.timestamp.tolist(),
                download, upload, latency, loss,
                metas,
            )
        ]


def as_batch(records: Any) -> RecordBatch:
    """``records`` as a batch: a batch as-is, a batch-backed set's own
    batch, anything else transposed from its ``Measurement`` objects."""
    if isinstance(records, RecordBatch):
        return records
    to_batch = getattr(records, "to_batch", None)
    if to_batch is not None:
        return to_batch()
    return RecordBatch.from_measurements(records)
