"""The IQB score: Eqs. 1-5 of the paper, with a full audit trail.

Scoring proceeds bottom-up through the three tiers exactly as §3
describes:

1. For every (use case *u*, requirement *r*, dataset *d*): aggregate the
   dataset's measurements with the percentile rule and compare against
   the threshold → **binary requirement score** ``S_{u,r,d} ∈ {0, 1}``.
2. Eq. 1 — **requirement agreement score**
   ``S_{u,r} = Σ_d w'_{u,r,d} · S_{u,r,d}``.
3. Eq. 2 — **use-case score** ``S_u = Σ_r w'_{u,r} · S_{u,r}``.
4. Eq. 4 — **IQB score** ``S_IQB = Σ_u w'_u · S_u``.

Every intermediate value is retained in the returned
:class:`ScoreBreakdown`, because the framework's whole point is
explainability: a decision-maker must be able to ask *why* a region
scored 0.62.

Missing data: a dataset whose weight is positive but which carries no
observations for a metric silently drops out of Eq. 1's normalization
(corroboration over the datasets that *did* measure). When **no**
dataset observes a requirement, :class:`~repro.core.config.MissingDataPolicy`
decides: skip-and-renormalize Eq. 2 (default), count the requirement as
failed, or raise.

:func:`flat_score` implements the fully-expanded Eq. 5 as an independent
cross-check; tests assert it always equals the tier-by-tier result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs import counter, gauge, span, timer

from .aggregation import aggregate_metric
from .config import (
    IQBConfig,
    MissingDataPolicy,
    QuantileMode,
    QuantilePolicy,
    ScoreMode,
)
from .exceptions import DataError
from .metrics import Metric
from .quality import QualityLevel, credit_scale, grade
from .usecases import UseCase

_REGION_SCORES = counter("scoring.region_scores")
_BATCH_REGIONS = counter("scoring.batch.regions")

#: Batch-scoring kernels ``score_regions`` accepts: the production
#: batched numpy kernel (:mod:`repro.core.kernel`) and the scalar
#: reference in this module. The two are bit-parity twins (see
#: tests/core/test_kernel_parity).
KERNELS = ("vectorized", "exact")

#: Quantile planes ``score_regions`` can source aggregates from: the
#: exact sorted columnar plane (the oracle) and the streaming t-digest
#: plane. The exact-vs-sketch parity suite bounds the sketch plane's
#: p95/p99 relative error at ≤ 1%.
QUANTILE_SOURCES = ("exact", "sketch")

# Degraded-mode visibility: regions scored without one or more of their
# configured datasets in the latest batch. Eq. 1 already renormalizes
# over the datasets that did report (corroboration over what exists);
# this gauge is what keeps that silent fallback from being *invisible*.
_DEGRADED_REGIONS = gauge("score.degraded.regions")

# End-to-end scoring latency (per region/batch call), the input of the
# health subsystem's latency SLO rules — p95 of this timer against a
# declared budget is what "serving scores on time" means.
_SCORE_LATENCY = timer("score.latency")

# QuantileSource is a Protocol; imported for typing clarity only.
from .aggregation import QuantileSource


@dataclass(frozen=True)
class DatasetVerdict:
    """One ``S_{u,r,d}``: a dataset's verdict on one requirement.

    ``score`` is the value Eq. 1 consumes: 0/1 under the paper's
    BINARY mode, 0/0.5/1 under the GRADED extension. ``passed`` means
    the configured bar is fully met (score == 1).
    """

    dataset: str
    aggregate: float
    threshold: float
    passed: bool
    weight: int
    sample_count: int
    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"verdict score outside [0, 1]: {self.score}")
        if self.passed != (self.score == 1.0):
            raise ValueError(
                f"inconsistent verdict: passed={self.passed} score={self.score}"
            )


@dataclass(frozen=True)
class RequirementScore:
    """One ``S_{u,r}`` (Eq. 1) with its supporting dataset verdicts.

    ``value`` is ``None`` when no dataset observed the metric and the
    missing-data policy is SKIP; such requirements do not participate in
    Eq. 2.
    """

    metric: Metric
    threshold: float
    value: Optional[float]
    weight: int
    verdicts: Tuple[DatasetVerdict, ...]

    @property
    def observed(self) -> bool:
        """True when at least one dataset backed this requirement."""
        return len(self.verdicts) > 0

    @property
    def unanimous(self) -> bool:
        """True when every contributing dataset issued the same verdict."""
        if not self.verdicts:
            return True
        first = self.verdicts[0].score
        return all(v.score == first for v in self.verdicts)


@dataclass(frozen=True)
class UseCaseScore:
    """One ``S_u`` (Eq. 2) with its requirement scores."""

    use_case: UseCase
    value: float
    weight: int
    requirements: Tuple[RequirementScore, ...]

    def requirement(self, metric: Metric) -> RequirementScore:
        """The requirement score for ``metric``."""
        for req in self.requirements:
            if req.metric is metric:
                return req
        raise KeyError(metric)

    @property
    def skipped_metrics(self) -> Tuple[Metric, ...]:
        """Requirements dropped from Eq. 2 for lack of data."""
        return tuple(r.metric for r in self.requirements if r.value is None)


@dataclass(frozen=True)
class ScoreBreakdown:
    """The composite ``S_IQB`` (Eq. 4) and the entire tier-by-tier trail."""

    value: float
    use_cases: Tuple[UseCaseScore, ...]
    #: Configured datasets (positive weight somewhere in the tensor)
    #: that contributed no verdict anywhere in this breakdown: the
    #: score is legitimate under Eq. 1's renormalization, but it rests
    #: on less corroboration than the config intended.
    degraded_datasets: Tuple[str, ...] = ()
    #: Which quantile plane answered the percentile rule: ``"exact"``
    #: (sorted columns, the default and the historical behaviour),
    #: ``"sketch"`` (streaming t-digests), or ``"mixed"`` (per-dataset
    #: split). Provenance for comparing archived scores: sketch-sourced
    #: aggregates carry bounded estimation error.
    quantile_source: str = "exact"

    @property
    def degraded(self) -> bool:
        """True when at least one configured dataset went dark."""
        return bool(self.degraded_datasets)

    def use_case(self, use_case: UseCase) -> UseCaseScore:
        """The score object for one use case."""
        for entry in self.use_cases:
            if entry.use_case is use_case:
                return entry
        raise KeyError(use_case)

    @property
    def grade(self) -> str:
        """Nutri-Score-style letter for the composite score."""
        return grade(self.value)

    @property
    def credit(self) -> int:
        """Credit-score-style 300..850 presentation of the score."""
        return credit_scale(self.value)

    def use_case_values(self) -> Dict[UseCase, float]:
        """Mapping of use case → ``S_u`` for quick inspection."""
        return {entry.use_case: entry.value for entry in self.use_cases}

    # -- serialization (archiving / machine-readable CLI output) --------

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation of the full breakdown.

        ``quantile_source`` is emitted only for non-exact provenance,
        so exact-plane output stays byte-identical to pre-streaming
        archives.
        """
        document: Dict[str, object] = {
            "score": self.value,
            "grade": self.grade,
            "credit": self.credit,
            "degraded_datasets": list(self.degraded_datasets),
        }
        if self.quantile_source != "exact":
            document["quantile_source"] = self.quantile_source
        document["use_cases"] = [
                {
                    "use_case": entry.use_case.value,
                    "score": entry.value,
                    "weight": entry.weight,
                    "requirements": [
                        {
                            "metric": req.metric.value,
                            "threshold": req.threshold,
                            "score": req.value,
                            "weight": req.weight,
                            "verdicts": [
                                {
                                    "dataset": verdict.dataset,
                                    "aggregate": verdict.aggregate,
                                    "threshold": verdict.threshold,
                                    "passed": verdict.passed,
                                    "score": verdict.score,
                                    "weight": verdict.weight,
                                    "samples": verdict.sample_count,
                                }
                                for verdict in req.verdicts
                            ],
                        }
                        for req in entry.requirements
                    ],
                }
                for entry in self.use_cases
        ]
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "ScoreBreakdown":
        """Rebuild a breakdown archived by :meth:`to_dict`.

        Raises:
            DataError: on malformed documents.
        """
        try:
            use_cases = tuple(
                UseCaseScore(
                    use_case=UseCase(entry["use_case"]),
                    value=float(entry["score"]),
                    weight=int(entry["weight"]),
                    requirements=tuple(
                        RequirementScore(
                            metric=Metric(req["metric"]),
                            threshold=float(req["threshold"]),
                            value=(
                                None
                                if req["score"] is None
                                else float(req["score"])
                            ),
                            weight=int(req["weight"]),
                            verdicts=tuple(
                                DatasetVerdict(
                                    dataset=str(verdict["dataset"]),
                                    aggregate=float(verdict["aggregate"]),
                                    threshold=float(verdict["threshold"]),
                                    passed=bool(verdict["passed"]),
                                    weight=int(verdict["weight"]),
                                    sample_count=int(verdict["samples"]),
                                    score=float(verdict["score"]),
                                )
                                for verdict in req["verdicts"]
                            ),
                        )
                        for req in entry["requirements"]
                    ),
                )
                for entry in document["use_cases"]
            )
            return cls(
                value=float(document["score"]),
                use_cases=use_cases,
                # Absent in pre-degraded-mode archives: default clean.
                degraded_datasets=tuple(
                    str(d) for d in document.get("degraded_datasets", ())
                ),
                # Absent in pre-streaming archives: exact plane.
                quantile_source=str(
                    document.get("quantile_source", "exact")
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed breakdown document: {exc}") from exc


def score_requirement(
    use_case: UseCase,
    metric: Metric,
    sources: Mapping[str, QuantileSource],
    config: IQBConfig,
) -> RequirementScore:
    """Compute ``S_{u,r}`` (Eq. 1) for one requirement of one use case.

    Datasets participate when their configured weight ``w_{u,r,d}`` is
    positive *and* they carry observations for the metric; Eq. 1's
    normalization runs over exactly those datasets.
    """
    threshold = config.threshold_value(use_case, metric)
    verdicts: List[DatasetVerdict] = []
    for dataset in sorted(sources):
        weight = config.dataset_weights.get(use_case, metric, dataset)
        if weight <= 0:
            continue
        source = sources[dataset]
        aggregate = aggregate_metric(source, metric, config.aggregation)
        if aggregate is None:
            continue
        value = _verdict_value(use_case, metric, aggregate, config)
        verdicts.append(
            DatasetVerdict(
                dataset=dataset,
                aggregate=aggregate,
                threshold=threshold,
                passed=value == 1.0,
                weight=weight,
                sample_count=source.sample_count(metric),
                score=value,
            )
        )
    weight = config.requirement_weights.get(use_case, metric)
    if not verdicts:
        return RequirementScore(
            metric=metric,
            threshold=threshold,
            value=_resolve_missing(use_case, metric, config),
            weight=weight,
            verdicts=(),
        )
    total = sum(v.weight for v in verdicts)
    value = sum(v.weight * v.score for v in verdicts) / total
    return RequirementScore(
        metric=metric,
        threshold=threshold,
        value=value,
        weight=weight,
        verdicts=tuple(verdicts),
    )


def _verdict_value(
    use_case: UseCase,
    metric: Metric,
    aggregate: float,
    config: IQBConfig,
) -> float:
    """``S_{u,r,d}`` for one aggregate under the configured score mode.

    BINARY (the paper): 1 when the configured quality level's threshold
    is met, else 0. GRADED (documented extension): 1 at the high bar,
    0.5 at the minimum bar, else 0 — strictly between the two binary
    readings.
    """
    if config.score_mode is ScoreMode.BINARY:
        return 1.0 if metric.meets(aggregate, config.threshold_value(use_case, metric)) else 0.0
    high = config.thresholds.value(
        use_case, metric, QualityLevel.HIGH, config.range_policy
    )
    minimum = config.thresholds.value(use_case, metric, QualityLevel.MINIMUM)
    if config.score_mode is ScoreMode.CONTINUOUS:
        return _continuous_value(metric, aggregate, minimum, high)
    if metric.meets(aggregate, high):
        return 1.0
    if metric.meets(aggregate, minimum):
        return 0.5
    return 0.0


def _continuous_value(
    metric: Metric, aggregate: float, minimum: float, high: float
) -> float:
    """Piecewise-linear/ratio requirement score anchored at both tiers.

    1.0 at (or beyond) the high tier; linear down to 0.5 at the minimum
    tier; below minimum a proportional ramp toward 0 so a 5 Mb/s and a
    0.5 Mb/s region no longer tie (the ext-qoe resolution finding).
    For lower-is-better metrics the sub-minimum ramp is the reciprocal
    ratio (score → 0 as the metric blows up). Degenerate cells where
    the tiers coincide ramp straight from 0 to 1 at the single bar.
    """
    from .metrics import Direction

    if metric.direction is Direction.HIGHER_IS_BETTER:
        if aggregate >= high:
            return 1.0
        if aggregate >= minimum:
            if high == minimum:
                return 1.0
            return 0.5 + 0.5 * (aggregate - minimum) / (high - minimum)
        if minimum <= 0:
            return 0.0
        return 0.5 * max(0.0, aggregate) / minimum
    # Lower is better (latency, loss).
    if aggregate <= high:
        return 1.0
    if aggregate <= minimum:
        if minimum == high:
            return 1.0
        return 0.5 + 0.5 * (minimum - aggregate) / (minimum - high)
    if aggregate <= 0:
        return 1.0  # unreachable for positive metrics; defensive
    return 0.5 * minimum / aggregate


def _resolve_missing(
    use_case: UseCase, metric: Metric, config: IQBConfig
) -> Optional[float]:
    """Value of an unobserved requirement per the missing-data policy."""
    policy = config.missing_data
    if policy is MissingDataPolicy.SKIP:
        return None
    if policy is MissingDataPolicy.FAIL:
        return 0.0
    raise DataError(
        f"no dataset observes {metric.value} for {use_case.value} "
        f"and missing-data policy is strict"
    )


def score_use_case(
    use_case: UseCase,
    sources: Mapping[str, QuantileSource],
    config: IQBConfig,
) -> UseCaseScore:
    """Compute ``S_u`` (Eq. 2) for one use case.

    Requirements skipped for lack of data are excluded from the weighted
    average; the remaining ``w_{u,r}`` renormalize over what was
    observed.

    Raises:
        DataError: when *every* requirement of the use case is skipped.
    """
    requirements = tuple(
        score_requirement(use_case, metric, sources, config)
        for metric in Metric.ordered()
    )
    contributing = [r for r in requirements if r.value is not None]
    if not contributing:
        raise DataError(
            f"no requirement of {use_case.value} has any data; "
            f"cannot compute a use-case score"
        )
    total = sum(r.weight for r in contributing)
    if total <= 0:
        raise DataError(
            f"all observed requirements of {use_case.value} have zero weight"
        )
    value = sum(r.weight * r.value for r in contributing) / total
    return UseCaseScore(
        use_case=use_case,
        value=value,
        weight=config.use_case_weights.get(use_case),
        requirements=requirements,
    )


def score_region(
    sources: Mapping[str, QuantileSource],
    config: IQBConfig,
    quantile_source: str = "exact",
) -> ScoreBreakdown:
    """Compute ``S_IQB`` (Eq. 4) from per-dataset measurement sources.

    ``sources`` maps dataset name (matching the config's dataset weights)
    to anything implementing the QuantileSource protocol — raw
    measurement collections, pre-computed aggregate tables, plain
    sequences via :class:`~repro.core.aggregation.SequenceSource`, or
    streaming sketch views. ``quantile_source`` is a provenance stamp
    recorded on the breakdown (the math is whatever the sources
    answer); callers feeding sketch-backed sources pass ``"sketch"``.
    """
    if not sources:
        raise DataError("score_region needs at least one dataset source")
    _REGION_SCORES.inc()
    with _SCORE_LATENCY.time():
        use_cases = tuple(
            score_use_case(use_case, sources, config)
            for use_case in UseCase.ordered()
        )
    total = sum(entry.weight for entry in use_cases)
    value = sum(entry.weight * entry.value for entry in use_cases) / total
    observed = {
        verdict.dataset
        for entry in use_cases
        for req in entry.requirements
        for verdict in req.verdicts
    }
    degraded = tuple(
        dataset
        for dataset in config.dataset_weights.positively_weighted()
        if dataset not in observed
    )
    return ScoreBreakdown(
        value=value,
        use_cases=use_cases,
        degraded_datasets=degraded,
        quantile_source=quantile_source,
    )


def effective_modes(
    config: IQBConfig, quantiles: Optional[str] = None
) -> Tuple[QuantileMode, ...]:
    """Resolved quantile mode per configured dataset.

    ``quantiles`` (the CLI-style global override) wins over the
    config's per-dataset :class:`~repro.core.config.QuantilePolicy`.
    Public so callers that pre-resolve modes once and reuse them per
    request (the serving layer's cached ``score_values`` sweeps) stay
    in lockstep with what :func:`score_regions` would pick.
    """
    cc = config.compiled()
    if quantiles is None:
        return config.quantiles.modes(cc.datasets)
    mode = QuantileMode(quantiles)
    return (mode,) * len(cc.datasets)


def _grouped_sources(
    store: "object",
    config: IQBConfig,
    modes: Tuple[QuantileMode, ...],
) -> Tuple[Mapping[str, Mapping[str, QuantileSource]], str]:
    """(region → dataset → source, provenance label) honoring ``modes``.

    The scalar kernel's plane selection: exact modes read the store's
    columnar views, sketch modes read the attached sketch plane's
    views, and a mixed policy stitches the two per dataset. Batch
    datasets outside the configured axis keep their exact views (they
    carry no weight, so only ``sample_count`` cosmetics could differ).
    """
    cc = config.compiled()
    if all(mode is QuantileMode.EXACT for mode in modes):
        return store.sources_by_region(), "exact"
    native_sketch = getattr(store, "QUANTILE_SOURCE", "exact") == "sketch"
    sketch = store if native_sketch else store.sketch_plane()
    if all(mode is QuantileMode.SKETCH for mode in modes):
        return sketch.sources_by_region(), "sketch"
    exact_grouped = store.sources_by_region()
    sketch_grouped = sketch.sources_by_region()
    mode_of = dict(zip(cc.datasets, modes))
    combined: Dict[str, Dict[str, QuantileSource]] = {}
    for region, sources in exact_grouped.items():
        row: Dict[str, QuantileSource] = {}
        for dataset, view in sources.items():
            if mode_of.get(dataset) is QuantileMode.SKETCH:
                row[dataset] = sketch_grouped.get(region, {}).get(
                    dataset, view
                )
            else:
                row[dataset] = view
        combined[region] = row
    return combined, "mixed"


def score_regions(
    records: "object",
    config: IQBConfig,
    kernel: str = "vectorized",
    quantiles: Optional[str] = None,
) -> Dict[str, ScoreBreakdown]:
    """Batch-score every region of a combined measurement batch (Eq. 4 each).

    This is the columnar fast path for national refreshes: instead of
    re-filtering and re-grouping the record stream once per region (the
    ``for_region(...).group_by_source()`` loop), the batch is transposed
    once into a :class:`~repro.measurements.columnar.ColumnarStore` and
    every region is scored off shared per-metric planes in one batched
    numpy pass (:mod:`repro.core.kernel`).

    Args:
        records: a :class:`~repro.measurements.collection.MeasurementSet`,
            any iterable of Measurement records, an already-built
            ``ColumnarStore``, or a pre-grouped mapping
            ``region → {dataset → QuantileSource}``.
        config: the scoring configuration applied to every region.
        kernel: ``"vectorized"`` (default) is the production kernel.
            ``"exact"`` runs the scalar Eq. 1–5 reference loop; it is
            the oracle that parity tests and the benchmark's output
            checks compare against, not a production option. Pre-grouped
            mappings carry opaque QuantileSources (not columnar
            arrays), so they always take the reference loop; both
            produce identical breakdowns (tests assert bit-equality for
            BINARY, ≤1e-12 for the graded modes).
        quantiles: global override of the config's
            :class:`~repro.core.config.QuantilePolicy` — ``"exact"``
            forces the sorted columnar plane for every dataset
            (bit-identical to pre-streaming output), ``"sketch"``
            forces the streaming t-digest plane, ``None`` (default)
            follows the config's per-dataset policy. A
            :class:`~repro.measurements.sketchplane.SketchPlane` passed
            as ``records`` always scores from its sketches (it has no
            exact plane; requesting ``"exact"`` on one raises).

    Returns:
        region → :class:`ScoreBreakdown`, numerically identical to
        calling :func:`score_region` per region on per-region groupings
        (tests assert bit-equality).

    Raises:
        ValueError: on an unknown ``kernel`` name.
        DataError: when the batch is empty — via :func:`score_region`.
    """
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown scoring kernel: {kernel!r} (have {KERNELS})"
        )
    if quantiles is not None and quantiles not in QUANTILE_SOURCES:
        raise ValueError(
            f"unknown quantile source: {quantiles!r} "
            f"(have {QUANTILE_SOURCES})"
        )
    with span("score_regions") as stage:
        source_label = "exact"
        if isinstance(records, Mapping):
            # Pre-grouped sources are opaque QuantileSources; only the
            # scalar path can drive them (automatic exact fallback).
            grouped: Mapping[str, Mapping[str, QuantileSource]] = records
        else:
            # Imported lazily: repro.measurements depends on repro.core, so a
            # module-level import here would be circular.
            from repro.measurements.columnar import ColumnarStore
            from repro.measurements.sketchplane import SketchPlane

            with span("columnar_group"):
                if isinstance(records, SketchPlane):
                    if quantiles == "exact":
                        raise ValueError(
                            "a sketch plane carries no exact quantile "
                            "plane; score the raw records to use "
                            "quantiles='exact'"
                        )
                    store: "object" = records
                    modes: Tuple[QuantileMode, ...] = (
                        QuantileMode.SKETCH,
                    ) * len(config.compiled().datasets)
                else:
                    store = (
                        records
                        if isinstance(records, ColumnarStore)
                        else ColumnarStore.from_measurements(records)  # type: ignore[arg-type]
                    )
                    modes = effective_modes(config, quantiles)
                if kernel == "vectorized":
                    from .kernel import score_store

                    grouped = None
                else:
                    grouped, source_label = _grouped_sources(
                        store, config, modes
                    )
            if grouped is None:
                with _SCORE_LATENCY.time():
                    scored = score_store(
                        store, config, stage=stage, modes=modes
                    )
                _BATCH_REGIONS.inc(len(scored))
                _DEGRADED_REGIONS.set(
                    float(sum(1 for b in scored.values() if b.degraded))
                )
                return scored
        if not grouped:
            raise DataError("score_regions needs at least one region of data")
        stage.annotate(regions=len(grouped))
        _BATCH_REGIONS.inc(len(grouped))
        with span("region_loop"):
            scored = {
                region: score_region(
                    grouped[region], config, quantile_source=source_label
                )
                for region in sorted(grouped)
            }
        _DEGRADED_REGIONS.set(
            float(sum(1 for b in scored.values() if b.degraded))
        )
        return scored


def flat_score(breakdown: ScoreBreakdown) -> float:
    """Recompute ``S_IQB`` via the fully-expanded Eq. 5.

    ``S_IQB = Σ_u Σ_r Σ_d w'_u · w'_{u,r} · w'_{u,r,d} · S_{u,r,d}``

    The expansion uses the *effective* normalizations (over observed
    datasets and non-skipped requirements), mirroring how Eqs. 1-4
    actually combined. Tests assert this equals ``breakdown.value`` to
    floating-point tolerance — a direct check of the paper's algebra.
    """
    use_case_total = sum(entry.weight for entry in breakdown.use_cases)
    score = 0.0
    for entry in breakdown.use_cases:
        w_u = entry.weight / use_case_total
        contributing = [r for r in entry.requirements if r.value is not None]
        requirement_total = sum(r.weight for r in contributing)
        for req in contributing:
            w_ur = req.weight / requirement_total
            if req.verdicts:
                dataset_total = sum(v.weight for v in req.verdicts)
                for verdict in req.verdicts:
                    w_urd = verdict.weight / dataset_total
                    score += w_u * w_ur * w_urd * verdict.score
            else:
                # Requirement resolved by the FAIL policy: S_{u,r} is 0,
                # contributing nothing to the sum (kept for clarity).
                score += 0.0
    return score
