"""Design-space exploration helpers: the searches a designer runs.

The spreadsheet makes a single what-if cheap; these utilities run the
loops the paper's methodology implies but leaves to the user's fingers:

* :func:`minimum_voltage` — lowest supply at which a timing model still
  meets a required frequency (bisection on the monotone delay-vs-VDD
  curve);
* :func:`optimize_voltage` — combine with a design: the minimum-power
  operating point that meets timing, plus the savings against nominal;
* :func:`grid_search` — exhaustive sweep over a small parameter grid,
  returning a Pareto-annotated result list;
* :func:`pareto_mask` — the non-dominated rows of any number of
  minimized objectives: the one dominance test behind every front
  (sweep rows, jobs, the surrogate scan, and :func:`pareto_front` /
  :func:`pareto_points` here for power vs delay or power vs area).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError, PowerPlayError
from .design import Design
from .estimator import evaluate_power
from .model import TimingModel
from .parameters import ParamValue


def minimum_voltage(
    timing: TimingModel,
    frequency: float,
    v_low: float = 0.8,
    v_high: float = 5.0,
    tolerance: float = 0.005,
    env: Optional[Mapping[str, float]] = None,
    supply: str = "VDD",
) -> float:
    """Lowest supply voltage at which ``timing`` meets ``frequency``.

    Assumes delay decreases monotonically with the supply (true of the
    alpha-power-law models).  ``supply`` names the environment variable
    the timing model reads — ``VDD2`` for InfoPad's low-voltage custom
    domain.  Raises :class:`ModelError` when even ``v_high`` misses
    timing.
    """
    if frequency <= 0:
        raise ModelError("frequency must be positive")
    if not v_low < v_high:
        raise ModelError("need v_low < v_high")
    period = 1.0 / frequency
    base = dict(env or {})

    def meets(vdd: float) -> bool:
        probe = dict(base)
        probe[supply] = vdd
        try:
            return timing.delay(probe) <= period
        except PowerPlayError:
            return False  # below threshold etc.

    if not meets(v_high):
        raise ModelError(
            f"timing model {getattr(timing, 'name', '?')!r} cannot reach "
            f"{frequency:.3g} Hz even at {v_high} V"
        )
    if meets(v_low):
        return v_low
    low, high = v_low, v_high
    while high - low > tolerance:
        mid = (low + high) / 2.0
        if meets(mid):
            high = mid
        else:
            low = mid
    return high


@dataclass
class VoltageOptimum:
    """Result of :func:`optimize_voltage`."""

    vdd: float
    power: float
    nominal_vdd: float
    nominal_power: float

    @property
    def saving(self) -> float:
        """Fractional power saving vs the nominal supply."""
        if self.nominal_power <= 0:
            return 0.0
        return 1.0 - self.power / self.nominal_power


def optimize_voltage(
    design: Design,
    timing: TimingModel,
    frequency: float,
    nominal_vdd: Optional[float] = None,
    v_low: float = 0.8,
    v_high: float = 5.0,
    supply: str = "VDD",
    timing_supply: str = "VDD",
) -> VoltageOptimum:
    """Minimum-power supply for a design under a timing constraint.

    ``timing`` is the design's critical path (possibly a
    :mod:`repro.core.composition` tree).  Dynamic power is monotone in
    the supply, so the optimum sits exactly at the minimum feasible
    voltage.  ``supply`` names the scaled rail in the *design* scope —
    InfoPad optimizes ``VDD2`` while the 5 V commodity rail stays put —
    and ``timing_supply`` names the variable the timing model reads
    (the alpha-power-law models read ``VDD``).
    """
    if nominal_vdd is None:
        nominal_vdd = design.scope.get(supply)
        if nominal_vdd is None:
            raise ModelError(
                f"design has no {supply} and none was given"
            )
    vdd = minimum_voltage(
        timing, frequency, v_low, v_high, supply=timing_supply
    )
    power = evaluate_power(design, overrides={supply: vdd}).power
    nominal_power = evaluate_power(
        design, overrides={supply: nominal_vdd}
    ).power
    return VoltageOptimum(
        vdd=vdd,
        power=power,
        nominal_vdd=float(nominal_vdd),
        nominal_power=nominal_power,
    )


@dataclass
class GridPoint:
    """One evaluated configuration of a grid search."""

    parameters: Dict[str, float]
    power: float
    metrics: Dict[str, float]

    def __repr__(self) -> str:
        values = ", ".join(f"{k}={v:g}" for k, v in self.parameters.items())
        return f"GridPoint({values}: {self.power:.3e} W)"


def grid_search(
    design: Design,
    grid: Mapping[str, Sequence[ParamValue]],
    metrics: Optional[Mapping[str, Callable[[Design], float]]] = None,
    limit: int = 10_000,
) -> List[GridPoint]:
    """Evaluate a design over the cartesian product of parameter values.

    ``metrics`` may add extra objectives, each a callable evaluated with
    the overrides applied (e.g. area or delay extractors).  Results come
    back sorted by power, cheapest first.  ``limit`` guards against
    accidentally exploding grids — the point count is checked *before*
    any combination is materialized, so an oversized grid fails in
    microseconds instead of first allocating a billion-tuple list.
    """
    if not grid:
        raise ModelError("empty parameter grid")
    names = list(grid)
    total = math.prod(len(grid[name]) for name in names)
    if total > limit:
        raise ModelError(
            f"grid has {total} points, over the limit of {limit}"
        )
    if total == 0:
        raise ModelError(
            "empty parameter grid: an axis has no values"
        )
    results: List[GridPoint] = []
    from .estimator import scope_overrides

    for combo in itertools.product(*(grid[name] for name in names)):
        overrides = dict(zip(names, combo))
        with scope_overrides(design.scope, overrides):
            power = evaluate_power(design).power
            extra = {
                key: metric(design) for key, metric in (metrics or {}).items()
            }
        results.append(
            GridPoint(
                parameters={k: float(v) for k, v in overrides.items()},
                power=power,
                metrics=extra,
            )
        )
    results.sort(key=lambda point: point.power)
    return results


#: dominance comparisons are sub-chunked at this many rows to bound the
#: broadcast to a few MB no matter how large the front grows
_DOMINANCE_BLOCK = 2048


def _pareto_mask_2d(unique: np.ndarray) -> np.ndarray:
    """Sort-free front mask over lexicographically-sorted unique rows
    with one or two columns: a row survives iff its last objective
    strictly undercuts everything that sorts before it."""
    last = unique[:, -1]
    running = np.minimum.accumulate(last)
    previous = np.concatenate(([np.inf], running[:-1]))
    return last < previous


def _pareto_mask_nd(unique: np.ndarray) -> np.ndarray:
    """Blockwise front mask over lex-sorted unique rows, any number of
    objectives.  Dominators always sort before their victims, so each
    block only checks the survivors accumulated so far (plus earlier
    rows of its own block); broadcasts stay bounded by the block size.
    """
    count = unique.shape[0]
    keep = np.ones(count, dtype=bool)
    kept = np.empty((0, unique.shape[1]))
    for begin in range(0, count, _DOMINANCE_BLOCK):
        block = unique[begin:begin + _DOMINANCE_BLOCK]
        if kept.shape[0]:
            # unique rows are distinct, so <= on every axis from a
            # different row already implies strict-on-one
            dominated = np.any(
                np.all(kept[None, :, :] <= block[:, None, :], axis=2),
                axis=1,
            )
        else:
            dominated = np.zeros(block.shape[0], dtype=bool)
        local = ~dominated
        for i in np.flatnonzero(local):
            later = np.flatnonzero(local[i + 1:]) + i + 1
            if later.size:
                local[later] &= ~np.all(
                    block[i] <= block[later], axis=1
                )
        keep[begin:begin + block.shape[0]] = local
        if np.any(local):
            kept = np.vstack([kept, block[local]])
    return keep


def pareto_mask(vectors: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of an ``(n, k)`` array of
    finite objective vectors, all minimized.

    A row is dominated when another is <= on every column and < on one,
    so rows tied on the full vector all survive (``-0.0`` ties ``0.0``).
    Callers filter NaN/inf first: NaN compares false against everything
    and would survive every test.  Rows are deduplicated in
    lexicographic order; one or two columns then take an O(n log n)
    running-minimum scan, more fall back to blockwise dominance.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    unique, inverse = np.unique(vectors, axis=0, return_inverse=True)
    if unique.shape[1] <= 2:
        keep_unique = _pareto_mask_2d(unique)
    else:
        keep_unique = _pareto_mask_nd(unique)
    return keep_unique[inverse]


def _finite_points(
    points: Iterable[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Points as float pairs; a NaN never compares, so one bad point
    would silently poison the whole front — non-finite ones raise."""
    candidates = []
    for first, second in points:
        if not (math.isfinite(first) and math.isfinite(second)):
            raise ModelError(
                f"pareto_front: non-finite point ({first!r}, {second!r})"
            )
        candidates.append((float(first), float(second)))
    return candidates


def pareto_front(
    points: Iterable[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    """Non-dominated (minimize, minimize) points, unique and sorted by
    the first axis.  Non-finite coordinates raise :class:`ModelError`.
    """
    candidates = sorted(set(_finite_points(points)))
    keep = pareto_mask(candidates)
    return [point for point, kept in zip(candidates, keep) if kept]


def pareto_points(
    results: Sequence[GridPoint], metric: str
) -> List[GridPoint]:
    """GridPoints on the (power, metric) Pareto front, in input order;
    tied configurations all stay."""
    keep = pareto_mask(
        _finite_points(
            (point.power, point.metrics[metric]) for point in results
        )
    )
    return [point for point, kept in zip(results, keep) if kept]
