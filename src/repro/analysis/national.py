"""National (multi-region) aggregation of the barometer.

Real barometers publish one headline number per country plus a regional
drill-down. The natural aggregate is a *population-weighted* mean of
regional scores — a region's score speaks for its subscribers, so
regions weigh by how many people live behind them.

Alongside the headline number, :func:`national_score` reports each
region's **shortfall contribution**: how much of the distance to a
perfect national score each region is responsible for
(``weight × (1 − score)``, summing exactly to ``1 − national``). That
is the quantity an infrastructure-funding decision actually allocates
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.core.exceptions import DataError
from repro.obs import counter, span

_NATIONAL_ROLLUPS = counter("national.rollups")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import IQBConfig
    from repro.core.scoring import ScoreBreakdown
    from repro.measurements.collection import MeasurementSet


@dataclass(frozen=True)
class RegionalShare:
    """One region's role in the national score."""

    region: str
    score: float
    population: float
    weight: float

    @property
    def shortfall_contribution(self) -> float:
        """Share of ``1 − national`` this region is responsible for."""
        return self.weight * (1.0 - self.score)


@dataclass(frozen=True)
class NationalScore:
    """Population-weighted national IQB with per-region attribution."""

    value: float
    regions: Tuple[RegionalShare, ...]

    @property
    def shortfall(self) -> float:
        """Distance to a perfect national score."""
        return 1.0 - self.value

    def ranked_by_shortfall(self) -> List[RegionalShare]:
        """Regions by how much fixing them would move the nation."""
        return sorted(
            self.regions,
            key=lambda share: (-share.shortfall_contribution, share.region),
        )

    def check(self) -> float:
        """Residual of the shortfall decomposition (≈ 0)."""
        return self.shortfall - sum(
            share.shortfall_contribution for share in self.regions
        )


def national_score(
    regional_scores: Mapping[str, float],
    populations: Mapping[str, float],
) -> NationalScore:
    """Aggregate regional IQB scores into a national score.

    Args:
        regional_scores: region → IQB score in [0, 1].
        populations: region → population (any consistent unit). Every
            scored region must have a positive population; extra
            population entries are ignored.

    Raises:
        DataError: on empty input, missing populations, or scores
            outside [0, 1].
    """
    if not regional_scores:
        raise DataError("national_score needs at least one region")
    missing = sorted(set(regional_scores) - set(populations))
    if missing:
        raise DataError(f"regions without population figures: {missing}")
    total_population = 0.0
    for region in regional_scores:
        population = populations[region]
        if population <= 0:
            raise DataError(
                f"population must be positive for {region!r}: {population}"
            )
        score = regional_scores[region]
        if not 0.0 <= score <= 1.0:
            raise DataError(f"score outside [0, 1] for {region!r}: {score}")
        total_population += population
    shares = tuple(
        RegionalShare(
            region=region,
            score=regional_scores[region],
            population=populations[region],
            weight=populations[region] / total_population,
        )
        for region in sorted(regional_scores)
    )
    value = sum(share.weight * share.score for share in shares)
    return NationalScore(value=value, regions=shares)


def national_breakdown(
    records: "MeasurementSet",
    populations: Mapping[str, float],
    config: Optional["IQBConfig"] = None,
) -> Tuple[NationalScore, Dict[str, "ScoreBreakdown"]]:
    """Score a whole national measurement batch and roll it up.

    The columnar fast path for barometer refreshes: the batch is grouped
    once (via :func:`repro.core.scoring.score_regions`, which shares
    sorted per-metric columns across regions) instead of re-filtering
    the record stream once per region, then the regional scores are
    population-weighted into the national headline.

    Returns:
        ``(national, breakdowns)`` — the roll-up plus every region's
        full :class:`~repro.core.scoring.ScoreBreakdown` for drill-down.

    Raises:
        DataError: on empty input or missing populations (see
            :func:`national_score`).
    """
    from repro.core.config import paper_config
    from repro.core.scoring import score_regions

    with span("national_breakdown") as stage:
        breakdowns = score_regions(records, config or paper_config())
        with span("rollup"):
            national = national_score(
                {region: b.value for region, b in breakdowns.items()},
                populations,
            )
        stage.annotate(regions=len(breakdowns))
        _NATIONAL_ROLLUPS.inc()
    return national, breakdowns


def render_national(national: NationalScore, top: int = 5) -> str:
    """Plain-text national summary, biggest shortfall contributors first."""
    lines = [
        f"National IQB: {national.value:.3f} "
        f"(shortfall {national.shortfall:.3f})"
    ]
    for share in national.ranked_by_shortfall()[:top]:
        lines.append(
            f"  {share.region}: score {share.score:.3f}, "
            f"{share.weight:.1%} of population, "
            f"contributes {share.shortfall_contribution:.3f} of the shortfall"
        )
    return "\n".join(lines)
