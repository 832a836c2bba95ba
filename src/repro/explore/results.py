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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.optimize import pareto_mask
from ..errors import ExploreError


def _objective_vector(
    row: Mapping, objectives: Sequence[str]
) -> List[float]:
    """The row's objective values in ``objectives`` order."""
    values = row.get("objectives", {})
    try:
        return [float(values[name]) for name in objectives]
    except KeyError as exc:
        raise ExploreError(
            f"row {row.get('index')} is missing objective {exc}"
        ) from None


def pareto_rows(
    rows: Sequence[Mapping],
    objectives: Sequence[str],
    stats: Optional[Dict[str, int]] = None,
) -> List[Mapping]:
    """Non-dominated rows over N minimized objectives.

    Failed rows (non-empty ``error``) and rows with any non-finite
    objective never make the front — surrogate-predicted rows can
    legitimately hold NaN/inf (an extrapolating basis, a log of a
    non-positive value), and a NaN would survive every dominance test.
    Pass a dict as ``stats`` to get
    ``{"dropped_failed": n, "dropped_non_finite": m}`` back.  The rest
    go through :func:`~repro.core.optimize.pareto_mask`: ties on the
    full objective vector all survive, matching the designer's
    expectation that equivalent configurations stay visible.  Output
    preserves point order.
    """
    if not objectives:
        raise ExploreError("pareto_rows needs at least one objective")
    scored = [row for row in rows if not row.get("error")]
    vectors = np.array(
        [_objective_vector(row, objectives) for row in scored], dtype=float
    ).reshape(len(scored), len(objectives))
    finite = np.isfinite(vectors).all(axis=1)
    if stats is not None:
        stats["dropped_failed"] = len(rows) - len(scored)
        stats["dropped_non_finite"] = int(np.count_nonzero(~finite))
    keep = np.zeros(len(scored), dtype=bool)
    keep[finite] = pareto_mask(vectors[finite])
    return [row for row, kept in zip(scored, keep) if kept]


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
    exactly, row order is point order.

    When any row carries a ``source`` key (surrogate sweeps mark rows
    ``exact`` or ``predicted``) a ``source`` column is emitted; exports
    of plain exact sweeps stay byte-identical to before.
    """
    with_source = any("source" in row for row in rows)
    header = ["index", *axis_names, *objectives]
    if with_source:
        header.append("source")
    header.append("error")
    lines = [",".join(header)]
    for row in rows:
        cells: List[str] = [str(int(row["index"]))]
        for name in axis_names:
            cells.append(repr(float(row["values"][name])))
        for name in objectives:
            value = row.get("objectives", {}).get(name)
            cells.append("" if value is None else repr(float(value)))
        if with_source:
            cells.append(str(row.get("source", "exact")))
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
    out_rows: List[Dict[str, object]] = []
    for row in rows:
        out: Dict[str, object] = {
            "index": int(row["index"]),
            "values": {k: float(v) for k, v in row["values"].items()},
            "objectives": {
                k: float(v) for k, v in row.get("objectives", {}).items()
            },
            "error": str(row.get("error", "")),
        }
        if "source" in row:
            out["source"] = str(row["source"])
        out_rows.append(out)
    payload: Dict[str, object] = {
        "format": "powerplay-sweep-results/1",
        "axes": list(axis_names),
        "objectives": list(objectives),
        "rows": out_rows,
    }
    if meta:
        payload["meta"] = dict(meta)
    return json.dumps(payload, indent=1, sort_keys=True)
