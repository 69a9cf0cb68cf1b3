"""Columnar measurement plane: the scoring hot path's fast layout.

The IQB scoring rule is percentile-centric, so barometer-scale cost is
dominated by repeated quantile aggregation over the same measurements.
The row-oriented :class:`~repro.measurements.collection.MeasurementSet`
is the right *ingest* shape — one frozen record per test — but scoring
six use cases over four metrics re-reads every record dozens of times.

:class:`ColumnarStore` holds a :class:`~.batch.RecordBatch` — per-metric
float64 columns plus interned region / source / ISP codes, as the
readers decode them — builds group indexes from the codes, then hands
out :class:`ColumnarView` objects — lightweight row-index
selections that implement the QuantileSource protocol. Views share the
store's columns (no record copying) and memoize every
(metric, percentile) answer.

Sorting happens once per metric, store-wide: :meth:`_pair_plane` groups
a metric column by (region, dataset) pair with one ``lexsort`` and
keeps the segment offsets, so a pair view's ``sorted_values`` is a
zero-copy slice of the shared plane instead of a per-view re-sort.
The same planes feed :meth:`aggregate_cube`, the batched aggregate
``A[region, dataset, metric]`` (plus sample counts) that the
vectorized scoring kernel (:mod:`repro.core.kernel`) consumes: every
cell's percentile is computed in one vectorized pass with exactly the
:func:`~repro.core.aggregation._interpolate_sorted` arithmetic.

Numerical contract: every quantile a view answers — and every cell of
the aggregate cube — is bit-identical to ``MeasurementSet.quantile``
over the same records (all reduce to the single
:func:`~repro.core.aggregation.percentile_of` definition), which is
what lets :func:`repro.core.scoring.score_regions` swap in for the
per-region re-group loop without changing a single ScoreBreakdown.

The exact plane is batch-shaped: build it from a finished batch, and
treat :meth:`ColumnarStore.append` as a batch boundary — it concatenates
the new rows onto the batch, drops every derived column/index/plane/view (stale views
must be re-fetched), and incrementally feeds the store's attached
:class:`~.sketchplane.SketchPlane` (if one was requested via
:meth:`ColumnarStore.sketch_plane`), which is how the streaming scoring
path stays O(1) per arrival while the exact plane stays a rebuild-on-
read batch artifact. Accumulating sinks rebuild (cheaply, one pass)
when they need fresh columns — see
:class:`repro.probing.sinks.MemorySink`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.aggregation import percentile_of
from repro.core.metrics import Metric
from repro.obs import counter

from .batch import RecordBatch, as_batch, group_rows
from .record import Measurement

# Columnar quantile-plane telemetry: these are what make PR 1's
# memoization verifiable in production — a healthy batch-scoring run
# shows hits ≫ misses and sorts bounded by the number of metric planes
# (or, for ad-hoc views, groups × metrics).
_HITS = counter("quantile_cache.columnar.hits")
_MISSES = counter("quantile_cache.columnar.misses")
_SORTS = counter("quantile_cache.columnar.sorts")

#: Group axes the store indexes out of the box.
AXES = ("region", "source", "isp")


class _MetricPlane:
    """One metric column grouped by (region, dataset) pair, sorted once.

    ``values`` holds every non-missing observation of the metric,
    ordered by pair slot then ascending value; pair ``slot``'s segment
    is ``values[starts[slot] : starts[slot] + counts[slot]]``.
    """

    __slots__ = ("values", "starts", "counts")

    def __init__(
        self, values: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> None:
        self.values = values
        self.starts = starts
        self.counts = counts


class AggregateCube:
    """Batched percentile aggregates: ``A[region, dataset, metric]``.

    ``aggregates`` is NaN where a (region, dataset) pair has no
    observations for a metric (including datasets absent from the
    batch); ``counts`` carries the matching sample counts. ``cells`` is
    the number of non-empty cells — the quantile answers the cube
    effectively memoizes, reported on the columnar cache counters.
    """

    __slots__ = ("regions", "aggregates", "counts", "cells")

    def __init__(
        self,
        regions: Tuple[str, ...],
        aggregates: np.ndarray,
        counts: np.ndarray,
        cells: int,
    ) -> None:
        self.regions = regions
        self.aggregates = aggregates
        self.counts = counts
        self.cells = cells


class ColumnarView:
    """A row selection of a :class:`ColumnarStore` (QuantileSource).

    Holds only a reference to the parent store and an integer row-index
    array; per-metric sorted value arrays and quantile answers are
    materialized on first use and cached for the life of the view.
    Views covering exactly one (region, dataset) pair additionally know
    their pair slot, so their sorted values are shared slices of the
    store-wide metric planes.
    """

    __slots__ = ("_store", "_rows", "_sorted", "_quantiles", "_pair")

    def __init__(
        self,
        store: "ColumnarStore",
        rows: np.ndarray,
        pair: Optional[int] = None,
    ) -> None:
        self._store = store
        self._rows = rows
        self._sorted: Dict[Metric, np.ndarray] = {}
        self._quantiles: Dict[Tuple[Metric, float], Optional[float]] = {}
        self._pair = pair

    def __len__(self) -> int:
        return int(self._rows.size)

    def __repr__(self) -> str:
        return f"ColumnarView({self._rows.size} rows)"

    def sorted_values(self, metric: Metric) -> np.ndarray:
        """Sorted non-missing values of ``metric`` in this view (cached).

        Pair views slice the store's shared per-metric plane (sorted
        once store-wide); ad-hoc views fall back to a per-view sort.
        """
        cached = self._sorted.get(metric)
        if cached is None:
            if self._pair is not None:
                plane = self._store._pair_plane(metric)
                start = int(plane.starts[self._pair])
                stop = start + int(plane.counts[self._pair])
                cached = plane.values[start:stop]
            else:
                _SORTS.inc()
                column = self._store.column(metric)
                values = column[self._rows] if self._rows.size else column[:0]
                values = values[~np.isnan(values)]
                values.sort()
                cached = values
            self._sorted[metric] = cached
        return cached

    def values(self, metric: Metric) -> np.ndarray:
        """Non-missing values of ``metric``, in record order (ndarray).

        Returns the float64 array directly — this sits on the scoring
        hot path. Callers that need a Python list (serialization,
        ``==`` against literals) should use :meth:`value_list`.
        """
        column = self._store.column(metric)
        selected = column[self._rows] if self._rows.size else column[:0]
        return selected[~np.isnan(selected)]

    def value_list(self, metric: Metric) -> List[float]:
        """:meth:`values` as a plain Python list (compat shim)."""
        return self.values(metric).tolist()

    # -- QuantileSource protocol ------------------------------------------

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        """Memoized percentile over the view's sorted column."""
        key = (metric, percentile)
        if key in self._quantiles:
            _HITS.inc()
            return self._quantiles[key]
        _MISSES.inc()
        values = self.sorted_values(metric)
        answer: Optional[float]
        if values.size == 0:
            answer = None
        else:
            answer = percentile_of(values, percentile, assume_sorted=True)
        self._quantiles[key] = answer
        return answer

    def sample_count(self, metric: Metric) -> int:
        """Observation count for the metric (QuantileSource)."""
        return int(self.sorted_values(metric).size)


class ColumnarStore:
    """Per-metric columns + group indexes over one measurement batch.

    Accepts a :class:`~.batch.RecordBatch`, a batch-backed
    ``MeasurementSet`` (its batch is shared, not copied) or any
    ``Measurement`` iterable (transposed once, O(records)). Every
    index, plane, and view is built lazily on first request and shared
    thereafter; the store never mutates its input.
    """

    #: Native quantile plane (kernel provenance): exact sorted columns.
    QUANTILE_SOURCE = "exact"

    def __init__(
        self, records: Union[Iterable[Measurement], RecordBatch] = ()
    ) -> None:
        self._batch = as_batch(records)
        self._indexes: Dict[str, Dict[str, np.ndarray]] = {}
        self._pair_index: Optional[Dict[Tuple[str, str], np.ndarray]] = None
        self._pair_keys: Optional[Tuple[Tuple[str, str], ...]] = None
        self._pair_slots: Optional[Dict[Tuple[str, str], int]] = None
        self._pair_ids: Optional[np.ndarray] = None
        self._planes: Dict[Metric, _MetricPlane] = {}
        self._cubes: Dict[
            Tuple[Tuple[str, ...], Tuple[float, ...]], AggregateCube
        ] = {}
        self._all_view: Optional[ColumnarView] = None
        self._axis_views: Dict[Tuple[str, str], ColumnarView] = {}
        self._pair_views: Dict[Tuple[str, str], ColumnarView] = {}
        self._by_region: Optional[Dict[str, Dict[str, ColumnarView]]] = None
        self._sketch = None  # type: Optional["SketchPlane"]
        self.generation = 0

    @classmethod
    def from_measurements(
        cls, records: Union[Iterable[Measurement], RecordBatch]
    ) -> "ColumnarStore":
        """Build a store from any record iterable (incl. MeasurementSet)."""
        return cls(records)

    def __len__(self) -> int:
        return len(self._batch)

    def __repr__(self) -> str:
        return f"ColumnarStore({len(self._batch)} records)"

    @property
    def batch(self) -> RecordBatch:
        """The store's rows as columns (shared; do not mutate)."""
        return self._batch

    def records(self) -> Tuple[Measurement, ...]:
        """The underlying records (row order preserved), built per call."""
        return tuple(self._batch.measurements())

    # -- streaming ingest --------------------------------------------------

    def append(
        self, records: Union[Iterable[Measurement], RecordBatch]
    ) -> None:
        """Adopt new records: a batch boundary for the exact plane.

        Every derived artifact (columns, indexes, sorted planes, cubes,
        views) is dropped — views handed out before the append are
        frozen snapshots of the old batch and must be re-fetched — but
        the attached sketch plane (see :meth:`sketch_plane`) is fed
        *incrementally*, O(1) amortized per record, which is what lets
        the streaming scoring path re-score after an append without the
        O(n log n) exact-plane rebuild.

        Each non-empty call also bumps :attr:`generation` — but only
        *after* the records are adopted, the stale caches dropped, and
        the sketch plane fed, so a reader that observes the new stamp
        is guaranteed a fully consistent plane. Generation-keyed caches
        (the serving layer's score cache) invalidate on a single
        integer compare.
        """
        new = as_batch(records)
        if not len(new):
            return
        self._batch = RecordBatch.concat([self._batch, new])
        self._indexes.clear()
        self._pair_index = None
        self._pair_keys = None
        self._pair_slots = None
        self._pair_ids = None
        self._planes.clear()
        self._cubes.clear()
        self._all_view = None
        self._axis_views.clear()
        self._pair_views.clear()
        self._by_region = None
        if self._sketch is not None:
            # The plane's own add() notifies the health monitor per
            # record; notifying here too would double-count arrivals.
            self._sketch.extend(new)
        else:
            from repro.obs.health import get_health_monitor

            health = get_health_monitor()
            if health is not None:
                for region, source, timestamp in zip(
                    new.labels("region"),
                    new.labels("source"),
                    new.timestamp.tolist(),
                ):
                    health.record_arrival(region, source, timestamp)
        # Bumped last: the plane is fully consistent (records adopted,
        # caches dropped, sketch fed) before the stamp moves, so a
        # stamp can never name a partially-appended batch.
        self.generation += 1

    def sketch_plane(self, delta: Optional[int] = None) -> "SketchPlane":
        """The store's attached sketch plane, built lazily and kept fed.

        The first call sketches the current records in one pass;
        afterwards :meth:`append` streams new records straight into the
        plane, so re-reading it is free. ``delta`` only takes effect on
        the first call (the plane is built once); later calls with a
        different delta raise rather than silently answer at the wrong
        compression.
        """
        from .sketchplane import SketchPlane
        from .tdigest import DEFAULT_DELTA

        if self._sketch is None:
            self._sketch = SketchPlane(
                delta=delta if delta is not None else DEFAULT_DELTA
            )
            self._sketch.extend(self._batch)
        elif delta is not None and delta != self._sketch.delta:
            raise ValueError(
                f"store sketch plane already built at delta="
                f"{self._sketch.delta}; requested {delta}"
            )
        return self._sketch

    # -- columns & indexes -------------------------------------------------

    def column(self, metric: Metric) -> np.ndarray:
        """The full value column for ``metric`` (NaN where unobserved)."""
        return self._batch.column(metric)

    def index(self, axis: str) -> Dict[str, np.ndarray]:
        """Group index for one axis: key → row-index array.

        Axes are ``"region"``, ``"source"``, ``"isp"``. The ISP index
        excludes empty ISP names, matching ``MeasurementSet.isps``.
        """
        if axis not in AXES:
            raise KeyError(f"unknown group axis: {axis!r} (have {AXES})")
        cached = self._indexes.get(axis)
        if cached is None:
            cached = self._batch.groups(axis)
            cached.pop("", None)
            self._indexes[axis] = cached
        return cached

    def regions(self) -> Tuple[str, ...]:
        """Distinct regions, sorted."""
        return tuple(sorted(self.index("region")))

    def sources(self) -> Tuple[str, ...]:
        """Distinct dataset names, sorted."""
        return tuple(sorted(self.index("source")))

    def isps(self) -> Tuple[str, ...]:
        """Distinct ISPs, sorted (empty names excluded)."""
        return tuple(sorted(self.index("isp")))

    # -- pair planes (store-wide one-sort-per-metric layout) ---------------

    def _ensure_pairs(self) -> None:
        """Build the (region, dataset) pair slots and row → slot map.

        Pairs come from the batch's interned codes; slots are in sorted
        (region, dataset) name order.
        """
        if self._pair_slots is not None:
            return
        codes, keys = self._batch.pairs()
        order = sorted(range(len(keys)), key=keys.__getitem__)
        slot_of = np.empty(len(keys), dtype=np.intp)
        slot_of[order] = np.arange(len(keys), dtype=np.intp)
        self._pair_keys = tuple(keys[i] for i in order)
        self._pair_slots = {
            key: slot for slot, key in enumerate(self._pair_keys)
        }
        self._pair_ids = slot_of[codes]

    def _pair_plane(self, metric: Metric) -> _MetricPlane:
        """The metric's column grouped by pair and sorted, built once.

        One ``lexsort`` replaces a sort per (region, dataset) view: the
        column is ordered by pair slot first, value second, and every
        pair's segment is located by the prefix-sum offsets.
        """
        plane = self._planes.get(metric)
        if plane is None:
            self._ensure_pairs()
            _SORTS.inc()
            column = self.column(metric)
            valid = ~np.isnan(column)
            values = column[valid]
            ids = self._pair_ids[valid]
            order = np.lexsort((values, ids))
            counts = np.bincount(ids, minlength=len(self._pair_keys))
            starts = np.cumsum(counts) - counts
            plane = _MetricPlane(values[order], starts, counts)
            self._planes[metric] = plane
        return plane

    def aggregate_cube(
        self,
        datasets: Sequence[str],
        percentiles: Sequence[float],
    ) -> AggregateCube:
        """Percentile aggregates for every (region, dataset, metric) cell.

        Args:
            datasets: dataset axis of the cube, in order (typically the
                config's sorted dataset names); batch datasets not
                listed are dropped, listed datasets without data yield
                NaN cells.
            percentiles: the percentile to evaluate per metric, aligned
                with :meth:`Metric.ordered` (direction-resolved by the
                caller's aggregation policy).

        Every cell is computed with the vectorized equivalent of
        :func:`~repro.core.aggregation._interpolate_sorted` — the same
        floor/lerp branch structure, so answers are bit-identical to
        ``ColumnarView.quantile`` on the pair's sorted values. Cubes
        are cached per (datasets, percentiles) key; the cache counters
        mirror the per-view memoization they replace (one miss per
        non-empty cell on build, the same number of hits on reuse).
        """
        key = (tuple(datasets), tuple(float(p) for p in percentiles))
        cached = self._cubes.get(key)
        if cached is not None:
            _HITS.inc(cached.cells)
            return cached
        self._ensure_pairs()
        metrics = Metric.ordered()
        if len(key[1]) != len(metrics):
            raise ValueError(
                f"aggregate_cube needs one percentile per metric "
                f"({len(metrics)}), got {len(key[1])}"
            )
        regions = self.regions()
        region_slot = {name: g for g, name in enumerate(regions)}
        dataset_slot = {name: d for d, name in enumerate(key[0])}
        shape = (len(regions), len(key[0]), len(metrics))
        aggregates = np.full(shape, np.nan, dtype=np.float64)
        counts = np.zeros(shape, dtype=np.int64)
        # Pairs that land in the cube: their plane slot and (g, d) cell.
        slots: List[int] = []
        g_idx: List[int] = []
        d_idx: List[int] = []
        for slot, (region, source) in enumerate(self._pair_keys or ()):
            d = dataset_slot.get(source)
            if d is None:
                continue
            slots.append(slot)
            g_idx.append(region_slot[region])
            d_idx.append(d)
        if slots:
            slot_arr = np.asarray(slots, dtype=np.intp)
            g_arr = np.asarray(g_idx, dtype=np.intp)
            d_arr = np.asarray(d_idx, dtype=np.intp)
            for r, metric in enumerate(metrics):
                plane = self._pair_plane(metric)
                n = plane.counts[slot_arr]
                counts[g_arr, d_arr, r] = n
                nz = n > 0
                if not nz.any():
                    continue
                ns = n[nz].astype(np.float64)
                seg_starts = plane.starts[slot_arr][nz]
                pos = (key[1][r] / 100.0) * (ns - 1.0)
                lo = np.floor(pos)
                hi = np.minimum(lo + 1.0, ns - 1.0)
                gamma = pos - lo
                a = plane.values[seg_starts + lo.astype(np.intp)]
                b = plane.values[seg_starts + hi.astype(np.intp)]
                aggregates[g_arr[nz], d_arr[nz], r] = np.where(
                    gamma >= 0.5,
                    b - (b - a) * (1.0 - gamma),
                    a + (b - a) * gamma,
                )
        cube = AggregateCube(
            regions=regions,
            aggregates=aggregates,
            counts=counts,
            cells=int(np.count_nonzero(counts)),
        )
        _MISSES.inc(cube.cells)
        self._cubes[key] = cube
        return cube

    # -- views -------------------------------------------------------------

    def view(
        self,
        region: Optional[str] = None,
        source: Optional[str] = None,
        isp: Optional[str] = None,
    ) -> ColumnarView:
        """A QuantileSource over the selected rows.

        With no arguments, the whole store; with one argument the cached
        per-group view; with several, the intersection of the group
        indexes (row order preserved). (region, source) selections are
        cached pair views sharing the store-wide sorted planes.
        """
        if region is not None and source is not None and isp is None:
            return self._pair_view(region, source)
        selected = [
            (axis, key)
            for axis, key in (
                ("region", region),
                ("source", source),
                ("isp", isp),
            )
            if key is not None
        ]
        if not selected:
            if self._all_view is None:
                self._all_view = ColumnarView(
                    self, np.arange(len(self._batch), dtype=np.intp)
                )
            return self._all_view
        if len(selected) == 1:
            axis, key = selected[0]
            cache_key = (axis, key)
            view = self._axis_views.get(cache_key)
            if view is None:
                rows = self.index(axis).get(
                    key, np.empty(0, dtype=np.intp)
                )
                view = ColumnarView(self, rows)
                self._axis_views[cache_key] = view
            return view
        rows: Optional[np.ndarray] = None
        for axis, key in selected:
            axis_rows = self.index(axis).get(key, np.empty(0, dtype=np.intp))
            rows = (
                axis_rows
                if rows is None
                else np.intersect1d(rows, axis_rows, assume_unique=True)
            )
        return ColumnarView(self, rows)

    def _pair_view(self, region: str, source: str) -> ColumnarView:
        """The cached plane-backed view of one (region, dataset) pair."""
        key = (region, source)
        view = self._pair_views.get(key)
        if view is None:
            self._ensure_pairs()
            if self._pair_index is None:
                assert self._pair_keys is not None and self._pair_ids is not None
                self._pair_index = dict(
                    zip(
                        self._pair_keys,
                        group_rows(self._pair_ids, len(self._pair_keys)),
                    )
                )
            rows = self._pair_index.get(key)
            if rows is None:
                view = ColumnarView(self, np.empty(0, dtype=np.intp))
            else:
                view = ColumnarView(
                    self, rows, pair=self._pair_slots[key]
                )
            self._pair_views[key] = view
        return view

    def sources_by_region(self) -> Dict[str, Dict[str, ColumnarView]]:
        """region → dataset → QuantileSource, grouped in one pass.

        This is the batch-scoring plane: the mapping plugs straight into
        :func:`repro.core.scoring.score_region` per region (or, better,
        :func:`repro.core.scoring.score_regions` consumes it wholesale).
        Views are cached pair views, so repeated scoring shares every
        plane-sorted column.
        """
        if self._by_region is None:
            self._ensure_pairs()
            grouped: Dict[str, Dict[str, ColumnarView]] = {}
            for region, source in self._pair_keys or ():
                grouped.setdefault(region, {})[source] = self._pair_view(
                    region, source
                )
            self._by_region = grouped
        return {region: dict(views) for region, views in self._by_region.items()}

    # -- whole-store QuantileSource ---------------------------------------

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        """Percentile over every record in the store (QuantileSource)."""
        return self.view().quantile(metric, percentile)

    def sample_count(self, metric: Metric) -> int:
        """Store-wide observation count for the metric (QuantileSource)."""
        return self.view().sample_count(metric)
