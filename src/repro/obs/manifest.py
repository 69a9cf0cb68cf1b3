"""Run provenance manifests: what ran, on what, producing what.

A barometer score is only as trustworthy as its provenance. Every CLI
pipeline run (and any embedding application, via :class:`RunContext`)
can write a ``*.manifest.json`` capturing the full chain of custody:

* the exact command line and package version;
* the scoring configuration and its SHA-256 digest (two runs with the
  same digest scored under identical rules);
* every input file's SHA-256, byte size, line count, and — when the
  reader supplied :class:`~repro.measurements.io.IngestStats` — the
  exact records read/skipped;
* wall-clock start/finish and the final metrics-registry snapshot;
* the output artifacts the run produced.

Manifests are plain JSON, stable-keyed and diffable: ``iqb runs diff``
(:func:`diff_manifests`) reports config deltas, counter deltas, and
timer-duration ratios between two runs, which is how an operator
answers "what changed between last week's publication and this one".
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.fsutil import atomic_write

from .registry import REGISTRY, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import IQBConfig
    from repro.measurements.io import IngestStats

_PathLike = Union[str, Path]

#: Bump when the manifest document shape changes incompatibly.
MANIFEST_VERSION = 1

#: Filename suffix the CLI appends when deriving a manifest path from
#: an output artifact (``report.md`` → ``report.md.manifest.json``).
MANIFEST_SUFFIX = ".manifest.json"


def _package_version() -> str:
    # Lazy: repro/__init__ imports modules that import repro.obs, so a
    # module-level "from repro import __version__" here would observe a
    # partially initialized package during startup.
    import repro

    return repro.__version__


def file_digest(path: _PathLike) -> Dict[str, object]:
    """SHA-256, byte size, and line count of one input file.

    One streaming pass in 1 MiB chunks — manifest construction is
    per-run work and must stay cheap even for multi-GB JSONL dumps,
    but it never loads a file whole.
    """
    digest = hashlib.sha256()
    size = 0
    lines = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    return {
        "path": str(path),
        "sha256": digest.hexdigest(),
        "bytes": size,
        "lines": lines,
    }


def config_digest(config: "IQBConfig") -> str:
    """SHA-256 over the config's canonical JSON serialization."""
    return hashlib.sha256(config.to_json().encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """One pipeline run's full provenance record."""

    command: Tuple[str, ...]
    package_version: str
    started_unix: float
    finished_unix: float
    config: Optional[Dict[str, Any]] = None
    config_sha256: Optional[str] = None
    inputs: Tuple[Dict[str, object], ...] = ()
    outputs: Tuple[str, ...] = ()
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: region → datasets that contributed nothing there (degraded-mode
    #: scoring); empty when every configured dataset reported everywhere.
    degraded: Dict[str, List[str]] = field(default_factory=dict)
    #: Which batch-scoring kernel produced the run's scores: always
    #: "vectorized" for runs recorded by :class:`RunContext` (the only
    #: production kernel); older manifests may name the scalar "exact"
    #: reference, and ones written before the kernel existed carry
    #: None. Provenance for perf comparisons: ``iqb runs diff`` ratios
    #: are only apples-to-apples when both runs name the same kernel.
    kernel: Optional[str] = None
    #: Which quantile plane scored the run ("exact" / "sketch"); None
    #: when the run followed the config's per-dataset policy (or never
    #: scored). Same apples-to-apples caveat as ``kernel``: sketch
    #: scores are estimates, so diffs across planes are expected noise.
    quantiles: Optional[str] = None
    #: Dataset-cache provenance for ``--from-cache`` runs (and cache
    #: subcommands): the cache path and its manifest's signature digest
    #: (:attr:`~repro.cache.layout.CacheManifest.manifest_sha256`),
    #: plus tile counts. One digest pins the exact cache snapshot the
    #: run scored from, so a published number is reproducible from a
    #: cache pull alone; None for runs that never touched a cache.
    cache: Optional[Dict[str, Any]] = None
    #: End-of-run :class:`~repro.obs.slo.HealthReport` as a plain dict
    #: (SLO states, burn rates, data-quality section, drift events);
    #: None for runs without a health monitor and for manifests written
    #: before the health subsystem existed. Provenance: a published
    #: score's manifest records whether its feeding data met its SLOs.
    health: Optional[Dict[str, Any]] = None

    @property
    def duration_s(self) -> float:
        """Wall-clock seconds from start to finish."""
        return self.finished_unix - self.started_unix

    def to_dict(self) -> Dict[str, Any]:
        return {
            "manifest_version": MANIFEST_VERSION,
            "command": list(self.command),
            "package_version": self.package_version,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "duration_s": self.duration_s,
            "config": self.config,
            "config_sha256": self.config_sha256,
            "inputs": [dict(entry) for entry in self.inputs],
            "outputs": list(self.outputs),
            "metrics": self.metrics,
            "degraded": {
                region: list(datasets)
                for region, datasets in sorted(self.degraded.items())
            },
            "kernel": self.kernel,
            "quantiles": self.quantiles,
            "cache": self.cache,
            "health": self.health,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "RunManifest":
        return cls(
            command=tuple(document.get("command", ())),
            package_version=str(document.get("package_version", "")),
            started_unix=float(document.get("started_unix", 0.0)),
            finished_unix=float(document.get("finished_unix", 0.0)),
            config=document.get("config"),
            config_sha256=document.get("config_sha256"),
            inputs=tuple(dict(e) for e in document.get("inputs", ())),
            outputs=tuple(document.get("outputs", ())),
            metrics=dict(document.get("metrics", {})),
            degraded={
                str(region): [str(d) for d in datasets]
                for region, datasets in dict(
                    document.get("degraded", {})
                ).items()
            },
            kernel=document.get("kernel"),
            quantiles=document.get("quantiles"),
            cache=document.get("cache"),
            health=document.get("health"),
        )

    def save(self, path: _PathLike) -> None:
        """Write the manifest as stable-keyed JSON, atomically.

        A manifest is the run's chain of custody; a torn one is worse
        than the previous run's, so the write goes through
        :func:`repro.fsutil.atomic_write`.
        """
        atomic_write(
            path,
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
        )

    @classmethod
    def load(cls, path: _PathLike) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


class RunContext:
    """Accumulates one run's provenance; builds the manifest at the end.

    The CLI creates one per invocation; commands register their config,
    inputs (with per-call :class:`IngestStats` when available), and
    output artifacts as they go. Registration is per-run bookkeeping —
    a handful of dict appends — never per-record work.
    """

    def __init__(self, command: Sequence[str]) -> None:
        self.command = tuple(str(part) for part in command)
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        self._config: Optional["IQBConfig"] = None
        self._inputs: List[Dict[str, object]] = []
        self._outputs: List[str] = []
        self._degraded: Dict[str, List[str]] = {}
        self._quantiles: Optional[str] = None
        self._cache: Optional[Dict[str, Any]] = None
        self._health: Optional[Dict[str, Any]] = None

    def set_config(self, config: "IQBConfig") -> None:
        """Record the scoring config this run used (last write wins)."""
        self._config = config

    def set_quantiles(self, quantiles: Optional[str]) -> None:
        """Record the run's quantile-plane override (None = config)."""
        self._quantiles = None if quantiles is None else str(quantiles)

    def set_cache_source(
        self,
        path: _PathLike,
        manifest_sha256: str,
        tiles: int = 0,
        granularity: Optional[str] = None,
    ) -> None:
        """Record the dataset cache a ``--from-cache`` run scored from.

        The manifest digest pins the exact cache snapshot, so the run
        is reproducible from ``iqb cache pull`` alone — no raw
        measurement files needed.
        """
        self._cache = {
            "path": str(path),
            "manifest_sha256": str(manifest_sha256),
            "tiles": int(tiles),
        }
        if granularity is not None:
            self._cache["granularity"] = str(granularity)

    def set_health_report(self, report: Any) -> None:
        """Record the end-of-run health report (last write wins).

        Accepts a :class:`~repro.obs.slo.HealthReport` or an
        already-serialized dict, so interrupt paths can hand over
        whatever they captured before the run died.
        """
        if report is None:
            self._health = None
        elif isinstance(report, Mapping):
            self._health = dict(report)
        else:
            self._health = report.to_dict()

    def add_input(
        self, path: _PathLike, stats: Optional["IngestStats"] = None
    ) -> None:
        """Digest one input file; attach the reader's exact counts."""
        entry = file_digest(path)
        if stats is not None:
            entry["records_read"] = stats.read
            entry["records_skipped"] = stats.skipped
        self._inputs.append(entry)

    def add_output(self, path: _PathLike) -> None:
        """Record one produced artifact."""
        self._outputs.append(str(path))

    def add_degraded(self, region: str, datasets: Sequence[str]) -> None:
        """Record that ``region`` was scored without ``datasets``.

        No-op for an empty dataset list, so callers can funnel every
        breakdown's ``degraded_datasets`` through without filtering.
        """
        if datasets:
            self._degraded[str(region)] = [str(d) for d in datasets]

    def build(
        self, registry: Optional[MetricsRegistry] = None
    ) -> RunManifest:
        """Snapshot the registry and assemble the manifest."""
        registry = registry if registry is not None else REGISTRY
        config = self._config
        return RunManifest(
            command=self.command,
            package_version=_package_version(),
            started_unix=self.started_unix,
            finished_unix=self.started_unix
            + (time.perf_counter() - self._t0),
            config=config.to_dict() if config is not None else None,
            config_sha256=(
                config_digest(config) if config is not None else None
            ),
            inputs=tuple(self._inputs),
            outputs=tuple(self._outputs),
            metrics=registry.snapshot(),
            degraded=dict(self._degraded),
            kernel="vectorized",
            quantiles=self._quantiles,
            cache=self._cache,
            health=self._health,
        )

    def write(
        self, path: _PathLike, registry: Optional[MetricsRegistry] = None
    ) -> RunManifest:
        """Build and save in one step; returns the manifest."""
        manifest = self.build(registry)
        manifest.save(path)
        return manifest


# -- diffing ----------------------------------------------------------------


def _flatten(
    document: Optional[Mapping[str, Any]], prefix: str = ""
) -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in (document or {}).items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, prefix=f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def _delta_map(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> Dict[str, Tuple[Any, Any]]:
    """Keys whose values differ (or exist on one side only)."""
    deltas: Dict[str, Tuple[Any, Any]] = {}
    for key in sorted(set(a) | set(b)):
        left, right = a.get(key), b.get(key)
        if left != right:
            deltas[key] = (left, right)
    return deltas


def diff_manifests(
    a: RunManifest, b: RunManifest
) -> Dict[str, Dict[str, Tuple[Any, Any]]]:
    """Structured differences between two runs.

    Returns a dict with four sections, each mapping a dotted key to an
    ``(a_value, b_value)`` pair: ``config`` (flattened config deltas),
    ``counters``, ``gauges``, and ``timers`` (per-timer total seconds).
    Identical sections come back empty, so "no entries" literally means
    "same rules, same counts".
    """
    metrics_a, metrics_b = a.metrics or {}, b.metrics or {}
    timer_totals = lambda m: {
        name: stats.get("total_s")
        for name, stats in (m.get("timers") or {}).items()
    }
    return {
        "config": _delta_map(_flatten(a.config), _flatten(b.config)),
        "counters": _delta_map(
            metrics_a.get("counters") or {}, metrics_b.get("counters") or {}
        ),
        "gauges": _delta_map(
            metrics_a.get("gauges") or {}, metrics_b.get("gauges") or {}
        ),
        "timers": _delta_map(timer_totals(metrics_a), timer_totals(metrics_b)),
    }


def render_diff(
    a: RunManifest,
    b: RunManifest,
    diff: Optional[Dict[str, Dict[str, Tuple[Any, Any]]]] = None,
) -> str:
    """Human-readable rendering of :func:`diff_manifests`."""
    diff = diff if diff is not None else diff_manifests(a, b)
    lines = [
        f"run A: {' '.join(a.command) or '(unknown command)'} "
        f"({a.duration_s:.3f}s)",
        f"run B: {' '.join(b.command) or '(unknown command)'} "
        f"({b.duration_s:.3f}s)",
    ]
    if a.config_sha256 == b.config_sha256:
        lines.append(f"config: identical (sha256 {a.config_sha256})")
    empty = True
    for section in ("config", "counters", "gauges", "timers"):
        deltas = diff[section]
        if not deltas:
            continue
        empty = False
        lines.append(f"{section}:")
        for key, (left, right) in deltas.items():
            note = ""
            if isinstance(left, (int, float)) and isinstance(
                right, (int, float)
            ):
                note = f"  ({right - left:+g})"
            lines.append(f"  {key}: {left} -> {right}{note}")
    if empty:
        lines.append("no config or metric differences")
    return "\n".join(lines)


def find_manifests(paths: Iterable[_PathLike]) -> List[Path]:
    """Expand files/directories into a sorted list of manifest paths.

    A directory contributes every ``*.manifest.json`` under it
    (recursively); a file path is taken as-is, so explicitly named
    manifests need not follow the suffix convention.
    """
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(sorted(path.rglob(f"*{MANIFEST_SUFFIX}")))
        else:
            found.append(path)
    return found
