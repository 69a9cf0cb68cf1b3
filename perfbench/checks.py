"""Output checks against the repo's documented contracts.

* Exact route (``iqb score --json``): byte-identical to the document an
  in-process ``score_regions(..., kernel="exact")`` oracle renders.
* Sketch route (``--quantiles sketch``): every aggregate within the 1%
  relative parity bound of exact (``tests/core/test_sketch_parity.py``).
* ``--from-cache``: byte-identical to the sketch route on the same
  records (the dataset-cache contract).
* Serve: see :mod:`loadgen`.

A broken operation (non-zero exit, unparsable output, missing region,
exact mismatch, non-200) is a *failure*; a sketched route off its
contract is a *parity mismatch*, counted per (region, metric, dataset)
cell. The two are reported separately: a known sketch defect must show
as mismatches, not vanish into a failed run.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.config import paper_config
from repro.core.scoring import score_regions

#: Documented sketch quantile bound (relative error at p50/p95/p99).
SKETCH_REL_BOUND = 0.01

Cell = Tuple[str, str, str]


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def oracle_document(records, kernel_label: str = "vectorized") -> bytes:
    """What ``iqb score --json`` must print for ``records``, exactly."""
    breakdowns = score_regions(list(records), paper_config(), kernel="exact")
    document = {
        "kernel": kernel_label,
        "regions": {r: b.to_dict() for r, b in breakdowns.items()},
    }
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


def aggregate_cells(document: dict) -> Dict[Cell, Optional[float]]:
    """(region, metric, dataset) -> aggregate, from a ``--json`` document.

    Each cell is repeated once per use case that reads it; the copies
    must agree (they come from one cube), so the first one stands.
    """
    cells: Dict[Cell, Optional[float]] = {}
    for region, breakdown in document["regions"].items():
        for use_case in breakdown["use_cases"]:
            for requirement in use_case["requirements"]:
                for verdict in requirement["verdicts"]:
                    key = (region, requirement["metric"], verdict["dataset"])
                    cells.setdefault(key, verdict["aggregate"])
    return cells


def over_bound(exact: Optional[float], sketch: Optional[float]) -> bool:
    """True when a sketched aggregate breaks the 1% parity bound."""
    if exact is None or sketch is None:
        return (exact is None) != (sketch is None)
    if exact == 0.0:
        return sketch != 0.0
    return abs(sketch - exact) / abs(exact) > SKETCH_REL_BOUND


def sketch_mismatches(
    exact: Dict[Cell, Optional[float]], sketch: Dict[Cell, Optional[float]]
) -> Set[Cell]:
    return {
        key for key in exact.keys() | sketch.keys()
        if over_bound(exact.get(key), sketch.get(key))
    }


def differing_cells(
    left: Dict[Cell, Optional[float]], right: Dict[Cell, Optional[float]]
) -> Set[Cell]:
    return {
        key for key in left.keys() | right.keys()
        if left.get(key) != right.get(key)
    }


def parse_document(payload: bytes, regions: Iterable[str]) -> Optional[dict]:
    """The parsed ``--json`` document, or None when it is broken.

    Broken means: not JSON, no ``regions`` object, or not exactly the
    expected region set.
    """
    try:
        document = json.loads(payload)
    except ValueError:
        return None
    if not isinstance(document, dict) or not isinstance(document.get("regions"), dict):
        return None
    if set(document["regions"]) != set(regions):
        return None
    return document


class RouteChecker:
    """Checks every batch-route output of one workload input.

    Route outputs are deterministic for a fixed input, so each distinct
    payload (by SHA-256) is parsed and compared once.
    """

    def __init__(self, oracle: bytes, regions: Iterable[str], tally: Tally) -> None:
        self.oracle = oracle
        self.regions = tuple(regions)
        self.tally = tally
        self._exact_cells = aggregate_cells(json.loads(oracle))
        self._verdicts: Dict[Tuple[str, str], object] = {}
        self.sketch_cells: Set[Cell] = set()
        self.cache_cells: Set[Cell] = set()

    def exact(self, payload: bytes, returncode: int) -> bool:
        return self.tally.record(
            returncode == 0 and payload == self.oracle, "exact route != oracle"
        )

    def _cells(self, route: str, payload: bytes):
        key = (route, hashlib.sha256(payload).hexdigest())
        if key not in self._verdicts:
            document = parse_document(payload, self.regions)
            self._verdicts[key] = (
                None if document is None else aggregate_cells(document)
            )
        return self._verdicts[key]

    def sketch(self, payload: bytes, returncode: int) -> Optional[dict]:
        cells = self._cells("sketch", payload) if returncode == 0 else None
        if self.tally.record(cells is not None, "sketch route broken"):
            self.sketch_cells |= sketch_mismatches(self._exact_cells, cells)
        return cells

    def from_cache(
        self, payload: bytes, returncode: int, sketch_payload: bytes
    ) -> None:
        cells = self._cells("cache", payload) if returncode == 0 else None
        if not self.tally.record(cells is not None, "from-cache route broken"):
            return
        if payload != sketch_payload:
            sketch = self._cells("sketch", sketch_payload)
            if sketch is not None:
                self.cache_cells |= differing_cells(sketch, cells)

    @property
    def parity_mismatches(self) -> int:
        return len(self.sketch_cells) + len(self.cache_cells)
