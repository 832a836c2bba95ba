"""Analysis and export of sweep results.

Everything here is a pure, deterministic function of the result rows —
the contract that makes checkpoint/resume verifiable: a resumed job and
an uninterrupted job hand the same rows to these functions and export
**byte-identical** CSV/JSON.

A result *row* is the engine's serializable point record::

    {"index": 3, "values": {"VDD2": 1.2, "bw": 12.0},
     "overrides": {...}, "objectives": {"power": ..., "delay": ...},
     "error": ""}
"""

from __future__ import annotations

import json
import math
import operator
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.optimize import pareto_mask
from ..errors import ExploreError


def _objective_matrix(
    rows: Sequence[Mapping], objectives: Sequence[str]
) -> np.ndarray:
    """The ``(len(rows), len(objectives))`` float array of the rows'
    objective values, read one objective at a time."""
    try:
        measured = list(map(operator.itemgetter("objectives"), rows))
        columns = [list(map(float, map(operator.itemgetter(name), measured)))
                   for name in objectives]
    except KeyError:
        for row in rows:
            values = row.get("objectives", {})
            for name in objectives:
                if name not in values:
                    raise ExploreError(
                        f"row {row.get('index')} is missing objective {name!r}"
                    ) from None
        raise
    return np.array(columns, dtype=float).T


def front_mask(vectors: np.ndarray) -> np.ndarray:
    """The non-dominated rows of ``vectors`` among its finite rows.

    A row with any non-finite objective never makes the front: a
    derived objective can be NaN or inf at a corner of the space, and a
    NaN would survive every dominance test.  The rest go through
    :func:`~repro.core.optimize.pareto_mask`.
    """
    finite = np.isfinite(vectors).all(axis=1)
    keep = np.zeros(len(vectors), dtype=bool)
    keep[finite] = pareto_mask(vectors[finite])
    return keep


def pareto_rows(
    rows: Sequence[Mapping], objectives: Sequence[str]
) -> List[Mapping]:
    """Non-dominated rows over N minimized objectives.

    Failed rows (non-empty ``error``) and rows with any non-finite
    objective never make the front (:func:`front_mask`).  Ties on the
    full objective vector all survive, matching the designer's
    expectation that equivalent configurations stay visible.  Output
    preserves point order.
    """
    if not objectives:
        raise ExploreError("pareto_rows needs at least one objective")
    scored = [row for row in rows if not row.get("error")]
    keep = front_mask(_objective_matrix(scored, objectives))
    return [scored[at] for at in np.flatnonzero(keep).tolist()]


class ParetoFront:
    """The Pareto front of rows that arrive a chunk at a time.

    :meth:`fold` takes one chunk's rows, chunks in any order;
    :attr:`rows` is then :func:`pareto_rows` over every row folded so
    far, sorted by point index.  Folded rows wait in a buffer until it is as long as the
    front, and then merge into it with one ``pareto_mask`` call, so
    every row takes part in O(1) merges however large the front grows,
    and the front never holds more than twice itself plus one chunk.
    """

    def __init__(self, objectives: Sequence[str]):
        if not objectives:
            raise ExploreError("a Pareto front needs at least one objective")
        self.objectives = tuple(objectives)
        self._front: List[Mapping] = []
        self._vectors = np.empty((0, len(self.objectives)))
        self._pending: List[Mapping] = []

    @property
    def held(self) -> int:
        """Rows held: the front and the rows not merged into it yet."""
        return len(self._front) + len(self._pending)

    @property
    def rows(self) -> List[Mapping]:
        """The front, in point order."""
        if self._pending:
            self._merge()
        return self._front

    def fold(self, rows: Sequence[Mapping]) -> None:
        """Add one chunk's rows; failed rows never make the front."""
        self._pending.extend(row for row in rows if not row.get("error"))
        if self._pending and len(self._pending) >= len(self._front):
            self._merge()

    def _merge(self) -> None:
        merged = self._front + self._pending
        vectors = np.concatenate(
            [self._vectors, _objective_matrix(self._pending, self.objectives)]
        )
        keep = np.flatnonzero(front_mask(vectors))
        keep = keep[np.argsort([merged[at]["index"] for at in keep],
                               kind="stable")]
        self._front = [merged[at] for at in keep]
        self._vectors = vectors[keep]
        self._pending = []


def sensitivity_ranking(
    rows: Sequence[Mapping],
    axis_names: Sequence[str],
    objective: str = "power",
) -> List[Dict[str, float]]:
    """Per-axis impact on one objective, largest first.

    For each axis: group the successful rows by the values of every
    *other* axis, measure the objective's spread (max - min) within
    each group as that axis varies alone, and average the spreads.
    The relative figure divides by the mean objective so axes are
    comparable across magnitudes.  Deterministic: ties rank by name.
    """
    usable = [
        row
        for row in rows
        if not row.get("error")
        and math.isfinite(float(row["objectives"].get(objective, math.nan)))
    ]
    if not usable:
        return []
    mean = sum(
        float(row["objectives"][objective]) for row in usable
    ) / len(usable)
    ranking: List[Dict[str, float]] = []
    for axis in axis_names:
        groups: Dict[Tuple, List[float]] = {}
        for row in usable:
            values = row["values"]
            key = tuple(
                (name, values[name]) for name in axis_names if name != axis
            )
            groups.setdefault(key, []).append(
                float(row["objectives"][objective])
            )
        spreads = [
            max(group) - min(group)
            for group in groups.values()
            if len(group) > 1
        ]
        spread = sum(spreads) / len(spreads) if spreads else 0.0
        ranking.append(
            {
                "axis": axis,
                "spread": spread,
                "relative": spread / abs(mean) if mean else 0.0,
            }
        )
    ranking.sort(key=lambda item: (-item["spread"], item["axis"]))
    return ranking


def export_csv(
    rows: Sequence[Mapping],
    axis_names: Sequence[str],
    objectives: Sequence[str],
) -> str:
    """Result rows as CSV, byte-stable: ``repr`` floats round-trip
    exactly, row order is point order."""
    lines = [",".join(["index", *axis_names, *objectives, "error"])]
    for row in rows:
        cells: List[str] = [str(int(row["index"]))]
        for name in axis_names:
            cells.append(repr(float(row["values"][name])))
        for name in objectives:
            value = row.get("objectives", {}).get(name)
            cells.append("" if value is None else repr(float(value)))
        error = str(row.get("error", ""))
        cells.append('"%s"' % error.replace('"', "'") if error else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def export_json(
    rows: Sequence[Mapping],
    axis_names: Sequence[str],
    objectives: Sequence[str],
    meta: Optional[Mapping[str, object]] = None,
) -> str:
    """Full results as canonical JSON (sorted keys, indent 1) — the
    payload the resume-equivalence gate compares byte for byte."""
    out_rows = [
        {
            "index": int(row["index"]),
            "values": {k: float(v) for k, v in row["values"].items()},
            "objectives": {
                k: float(v) for k, v in row.get("objectives", {}).items()
            },
            "error": str(row.get("error", "")),
        }
        for row in rows
    ]
    payload: Dict[str, object] = {
        "format": "powerplay-sweep-results/1",
        "axes": list(axis_names),
        "objectives": list(objectives),
        "rows": out_rows,
    }
    if meta:
        payload["meta"] = dict(meta)
    return json.dumps(payload, indent=1, sort_keys=True)
