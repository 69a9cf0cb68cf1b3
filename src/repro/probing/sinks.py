"""Result sinks: where completed probe measurements go.

Sinks receive each measurement as the runner completes it. Three
implementations cover the realistic deployment modes:

* :class:`MemorySink` — accumulate into a MeasurementSet (analysis in
  the same process);
* :class:`JsonlSink` — stream to an append-only JSONL file (durable
  collection; what a long-running prober would actually do);
* :class:`StreamingQuantileSink` — keep only P² quantile state per
  (region, source, metric), so an arbitrarily long campaign can feed
  the IQB scorer in O(1) memory. Its per-(region, source) views
  implement the QuantileSource protocol directly.
* :class:`SketchSink` — feed a live
  :class:`~repro.measurements.sketchplane.SketchPlane`: like the P²
  sink it holds O(1) state per cell, but its t-digests are mergeable
  and serializable, so a campaign can checkpoint/resume sketch state
  (``state_dict`` / ``restore_state``) and score any prefix of the
  stream through the standard ``score_regions`` surface.

:class:`FanOutSink` fans one runner's results out to several sinks
(e.g. durable JSONL plus a live sketch plane).
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

import json

from repro.core.metrics import Metric
from repro.measurements.collection import MeasurementSet
from repro.measurements.columnar import ColumnarStore, ColumnarView
from repro.measurements.quantile import P2Quantile
from repro.measurements.record import Measurement

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import IQBConfig
    from repro.core.scoring import ScoreBreakdown


@runtime_checkable
class ResultSink(Protocol):
    """Anything that accepts completed measurements."""

    def accept(self, measurement: Measurement) -> None:
        """Consume one measurement."""
        ...


class MemorySink:
    """Accumulates measurements in memory.

    Besides the raw :meth:`as_set` snapshot, the sink maintains a lazy
    columnar plane over everything collected so far: :meth:`as_columnar`
    transposes once and is reused until the next :meth:`accept`, so
    periodically re-scoring a live campaign does not re-group the
    ever-growing record list from scratch each refresh.
    """

    def __init__(self) -> None:
        self._records = []
        self._columnar: Optional[ColumnarStore] = None

    def accept(self, measurement: Measurement) -> None:
        self._records.append(measurement)
        self._columnar = None

    def __len__(self) -> int:
        return len(self._records)

    def as_set(self) -> MeasurementSet:
        """Everything collected so far."""
        return MeasurementSet(self._records)

    def as_columnar(self) -> ColumnarStore:
        """Columnar view of everything collected so far (cached)."""
        if self._columnar is None:
            self._columnar = ColumnarStore(list(self._records))
        return self._columnar

    def sources_by_region(self) -> Dict[str, Dict[str, "ColumnarView"]]:
        """region → dataset → QuantileSource over the collected batch."""
        return self.as_columnar().sources_by_region()

    def score_all(
        self,
        config: "IQBConfig",
        quantiles: Optional[str] = None,
    ) -> Dict[str, "ScoreBreakdown"]:
        """Batch-score every region collected so far (columnar path).

        ``quantiles`` overrides the config's quantile policy (exact /
        sketch plane selection).
        """
        from repro.core.scoring import score_regions

        return score_regions(self.as_columnar(), config, quantiles=quantiles)


class SketchSink:
    """Folds measurements into a live t-digest plane as they arrive.

    O(1) amortized per measurement and O(cells · delta) memory like
    :class:`StreamingQuantileSink`, but the plane is mergeable and
    serializable: :meth:`state_dict` / :meth:`restore_state` let a
    campaign journal checkpoint mid-stream, and :meth:`score_all`
    re-scores the stream so far without ever materializing records.
    """

    def __init__(self, delta: Optional[int] = None) -> None:
        from repro.measurements.sketchplane import SketchPlane
        from repro.measurements.tdigest import DEFAULT_DELTA

        self._plane = SketchPlane(
            delta=DEFAULT_DELTA if delta is None else delta
        )

    def accept(self, measurement: Measurement) -> None:
        self._plane.add(measurement)

    def __len__(self) -> int:
        return len(self._plane)

    @property
    def plane(self) -> "object":
        """The live :class:`SketchPlane` (shared, not a copy)."""
        return self._plane

    def score_all(self, config: "IQBConfig") -> Dict[str, "ScoreBreakdown"]:
        """Score every region's live sketches (no batch recompute)."""
        from repro.core.scoring import score_regions

        return score_regions(self._plane, config)

    def state_dict(self) -> dict:
        """JSON-compatible checkpoint of the plane."""
        return self._plane.to_state()

    def restore_state(self, state: dict) -> None:
        """Replace the plane with a :meth:`state_dict` checkpoint."""
        from repro.measurements.sketchplane import SketchPlane

        self._plane = SketchPlane.from_state(dict(state))


class JsonlSink:
    """Appends measurements to a JSONL file as they arrive.

    With ``flush_every_record=True`` each accepted measurement is
    flushed to the OS before ``accept`` returns — required when a
    campaign journal records the probe as complete right afterwards,
    since a completed-but-buffered measurement would be lost by a crash
    while the journal survives (breaking resume parity).
    """

    def __init__(
        self,
        path: Union[str, Path],
        flush_every_record: bool = False,
    ) -> None:
        self.path = Path(path)
        self.written = 0
        self.flush_every_record = flush_every_record
        self._handle = open(self.path, "a", encoding="utf-8")

    def accept(self, measurement: Measurement) -> None:
        self._handle.write(json.dumps(measurement.to_dict(), sort_keys=True))
        self._handle.write("\n")
        if self.flush_every_record:
            self._handle.flush()
        self.written += 1

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _QuantileView:
    """QuantileSource over one (region, source) of a streaming sink."""

    def __init__(self) -> None:
        self._estimators: Dict[Tuple[Metric, float], P2Quantile] = {}
        self._counts: Dict[Metric, int] = {}

    def _observe(self, metric: Metric, value: float) -> None:
        self._counts[metric] = self._counts.get(metric, 0) + 1
        for key, estimator in self._estimators.items():
            if key[0] is metric:
                estimator.add(value)

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        if self._counts.get(metric, 0) == 0:
            return None
        estimator = self._estimators.get((metric, percentile))
        if estimator is None or len(estimator) == 0:
            return None
        return estimator.value()

    def sample_count(self, metric: Metric) -> int:
        return self._counts.get(metric, 0)


class StreamingQuantileSink:
    """O(1)-memory sink tracking P² quantiles per (region, source, metric).

    The percentiles to track must be declared up front (P² cannot answer
    arbitrary quantiles after the fact); by default the sink tracks
    exactly what the IQB literal and conservative semantics need.
    """

    DEFAULT_PERCENTILES = (5.0, 50.0, 95.0)

    def __init__(self, percentiles: Tuple[float, ...] = DEFAULT_PERCENTILES) -> None:
        if not percentiles:
            raise ValueError("StreamingQuantileSink needs >= 1 percentile")
        for percentile in percentiles:
            if not 0.0 < percentile < 100.0:
                raise ValueError(f"percentile outside (0, 100): {percentile}")
        self._percentiles = tuple(percentiles)
        self._views: Dict[Tuple[str, str], _QuantileView] = {}
        self.accepted = 0

    def _view(self, region: str, source: str) -> _QuantileView:
        key = (region, source)
        view = self._views.get(key)
        if view is None:
            view = _QuantileView()
            for metric in Metric:
                for percentile in self._percentiles:
                    view._estimators[(metric, percentile)] = P2Quantile(
                        percentile / 100.0
                    )
            self._views[key] = view
        return view

    def accept(self, measurement: Measurement) -> None:
        view = self._view(measurement.region, measurement.source)
        for metric in Metric:
            value = measurement.value(metric)
            if value is not None:
                view._observe(metric, value)
        self.accepted += 1

    def regions(self) -> Tuple[str, ...]:
        """Regions seen so far, sorted."""
        return tuple(sorted({region for region, _ in self._views}))

    def sources_for(self, region: str) -> Dict[str, _QuantileView]:
        """QuantileSources per dataset for one region.

        The returned mapping plugs straight into
        :func:`repro.core.scoring.score_region` — with the caveat that
        the scorer's percentile must be one the sink was tracking.
        """
        return {
            source: view
            for (view_region, source), view in self._views.items()
            if view_region == region
        }


class _DigestView:
    """QuantileSource over one (region, source) of a TDigestSink."""

    def __init__(self, delta: int) -> None:
        self._delta = delta
        self._digests: Dict[Metric, "TDigest"] = {}

    def _observe(self, metric: Metric, value: float) -> None:
        from repro.measurements.tdigest import TDigest

        digest = self._digests.get(metric)
        if digest is None:
            digest = TDigest(delta=self._delta)
            self._digests[metric] = digest
        digest.add(value)

    def quantile(self, metric: Metric, percentile: float) -> Optional[float]:
        digest = self._digests.get(metric)
        if digest is None:
            return None
        return digest.quantile_or_none(percentile)

    def sample_count(self, metric: Metric) -> int:
        digest = self._digests.get(metric)
        return 0 if digest is None else len(digest)

    def merged_with(self, other: "_DigestView") -> "_DigestView":
        view = _DigestView(min(self._delta, other._delta))
        for metric in set(self._digests) | set(other._digests):
            mine = self._digests.get(metric)
            theirs = other._digests.get(metric)
            if mine is not None and theirs is not None:
                view._digests[metric] = mine.merge(theirs)
            else:
                view._digests[metric] = mine or theirs  # type: ignore[assignment]
        return view


class TDigestSink:
    """Mergeable bounded-memory sink: t-digests per (region, source, metric).

    Unlike :class:`StreamingQuantileSink` (P², fixed percentiles,
    unmergeable), digests answer *any* percentile after the fact and
    two sinks from different collector shards combine losslessly via
    :meth:`merge` — the property a distributed measurement fleet needs.
    """

    def __init__(self, delta: int = 100) -> None:
        self._delta = delta
        self._views: Dict[Tuple[str, str], _DigestView] = {}
        self.accepted = 0

    def accept(self, measurement: Measurement) -> None:
        key = (measurement.region, measurement.source)
        view = self._views.get(key)
        if view is None:
            view = _DigestView(self._delta)
            self._views[key] = view
        for metric in Metric:
            value = measurement.value(metric)
            if value is not None:
                view._observe(metric, value)
        self.accepted += 1

    def regions(self) -> Tuple[str, ...]:
        """Regions seen so far, sorted."""
        return tuple(sorted({region for region, _ in self._views}))

    def sources_for(self, region: str) -> Dict[str, _DigestView]:
        """QuantileSources per dataset for one region (→ score_region)."""
        return {
            source: view
            for (view_region, source), view in self._views.items()
            if view_region == region
        }

    def merge(self, other: "TDigestSink") -> "TDigestSink":
        """Combine two collector shards (inputs unchanged)."""
        merged = TDigestSink(delta=min(self._delta, other._delta))
        merged.accepted = self.accepted + other.accepted
        for key in set(self._views) | set(other._views):
            mine = self._views.get(key)
            theirs = other._views.get(key)
            if mine is not None and theirs is not None:
                merged._views[key] = mine.merged_with(theirs)
            else:
                merged._views[key] = mine or theirs  # type: ignore[assignment]
        return merged


class FanOutSink:
    """Forwards each measurement to several child sinks."""

    def __init__(self, *sinks: ResultSink) -> None:
        if not sinks:
            raise ValueError("FanOutSink needs at least one child sink")
        self._sinks = sinks

    def accept(self, measurement: Measurement) -> None:
        for sink in self._sinks:
            sink.accept(measurement)
