"""Correctness oracles, computed independently of the code path measured."""

from __future__ import annotations

import contextlib
import html
import math
import re
from typing import Dict, List, Mapping, Optional, Sequence

import numpy

from repro.core.design import Design
from repro.core.estimator import evaluate_power, scope_overrides
from repro.core.units import format_eng, format_quantity
from repro.designs.infopad import build_infopad
from repro.designs.luminance import build_figure1_design
from repro.explore.batcheval import resolve_target
from repro.library.designio import design_from_payload, design_to_payload

#: the paper's totals at nominal settings, as tests/golden renders them
GOLDEN_TOTALS = {"luminance_fig1": "7.8798e-04", "infopad": "3.7214e+00"}

_TOTAL_RE = re.compile(r"<b>Total: ([^<]*)</b>")


def build_paper_design(name: str) -> Design:
    design = build_figure1_design() if name == "luminance_fig1" else build_infopad()
    # the server deep-copies examples through the payload; so does the mirror
    return design_from_payload(design_to_payload(design))


def check_golden() -> List[str]:
    """Fig 2 and Fig 5 totals at nominal settings."""
    problems = []
    for name, expected in GOLDEN_TOTALS.items():
        got = f"{evaluate_power(build_paper_design(name)).power:.4e}"
        if got != expected:
            problems.append(f"{name} total {got} != golden {expected}")
    return problems


def total_text(watts: float) -> str:
    """The sheet's rendered total for ``watts``."""
    return html.escape(
        f"{format_eng(watts, 'W')}  ({format_quantity(watts, 'W')})",
        quote=True,
    )


def rendered_total(page: str) -> Optional[str]:
    match = _TOTAL_RE.search(page)
    return match.group(1) if match else None


def apply_edit(design: Design, key: str, value: str) -> None:
    """Apply a PLAY form edit exactly as the server's handler does."""
    if key.startswith("g:"):
        design.scope.set(key[2:], value)
    else:
        _prefix, row, parameter = key.split(":", 2)
        design.row(row).set(parameter, value)


class Mirror:
    """Each designer's designs, edited in lockstep with the server."""

    def __init__(self):
        self._designs: Dict[tuple, Design] = {}

    def play(self, user: str, design: str, key: str, value: str) -> str:
        mirrored = self._designs.get((user, design))
        if mirrored is None:
            mirrored = self._designs[(user, design)] = build_paper_design(design)
        apply_edit(mirrored, key, value)
        return total_text(evaluate_power(mirrored).power)


def cell_power_text(entry, values: Mapping[str, str]) -> str:
    """The cell form's computed Power for posted ``values``."""
    env: Dict[str, float] = {}
    for parameter in entry.models.parameters:
        if isinstance(parameter.default, (int, float)):
            env[parameter.name] = float(parameter.default)
    env.update({name: float(text) for name, text in values.items()})
    env.setdefault("VDD", 1.5)
    env.setdefault("f", 2e6)
    return html.escape(format_eng(entry.models.power.power(env), "W"))


# -- sweep ------------------------------------------------------------------


def exact_power(design: Design, overrides: Mapping[str, float]) -> float:
    """``evaluate_power`` with (possibly dotted) sweep targets applied."""
    with contextlib.ExitStack() as stack:
        for target, value in overrides.items():
            scope, name = resolve_target(design, target)
            stack.enter_context(scope_overrides(scope, {name: float(value)}))
        return evaluate_power(design).power


def access_time(vdd2: float) -> float:
    return 2e-8 * (vdd2 / 1.5) / ((vdd2 - 0.7) ** 1.3)


def check_points(design: Design, rows: Sequence[Mapping],
                 indices: Sequence[int]) -> List[str]:
    problems = []
    for index in indices:
        row = rows[index]
        objectives = row["objectives"]
        exact = exact_power(design, row["overrides"])
        if row["error"] or objectives.get("power") != exact:
            problems.append(f"point {row['index']}: power "
                            f"{objectives.get('power')!r} != exact {exact!r}")
        expected = access_time(row["values"]["VDD2"])
        if not math.isclose(objectives.get("access_time", math.nan),
                            expected, rel_tol=1e-12):
            problems.append(f"point {row['index']}: access_time "
                            f"{objectives.get('access_time')!r} != {expected!r}")
    return problems


def check_front(rows: Sequence[Mapping], front: Sequence[Mapping],
                objectives: Sequence[str]) -> List[str]:
    """Independent dominance check of a Pareto front (all minimized).

    No front member may be dominated by any row, and every row off the
    front must be dominated by a front member or tie one exactly.
    """
    if not front:
        return ["empty Pareto front"]
    points = numpy.array([[row["objectives"][o] for o in objectives]
                          for row in rows])
    chosen = numpy.array([[row["objectives"][o] for o in objectives]
                          for row in front])
    problems = []
    for vector in chosen:
        no_worse = numpy.all(points <= vector, axis=1)
        better = numpy.any(points < vector, axis=1)
        if numpy.any(no_worse & better):
            problems.append(f"front member {vector.tolist()} is dominated")
    on_front = {id(row) for row in front}
    off = numpy.array([not (id(row) in on_front) for row in rows])
    covered = numpy.zeros(len(rows), dtype=bool)
    for vector in chosen:
        no_worse = numpy.all(vector <= points, axis=1)
        covered |= no_worse  # dominated, or an exact tie
    missing = int(numpy.count_nonzero(off & ~covered))
    if missing:
        problems.append(f"{missing} non-dominated rows missing from the front")
    return problems
