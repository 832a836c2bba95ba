"""Vectorized lazy prediction over a full enumeration.

A million-point space is never materialized: point indices stream
through in fixed-size windows, each window's axis values are built as
columns by :meth:`ParameterSpace.axis_columns` (the decoder the sweep
engine's columnar pass uses), every fitted objective is predicted as
one matrix product, and only two small running structures survive the
pass:

* the **predicted Pareto front** — merged chunk by chunk through
  :func:`repro.core.optimize.pareto_mask`, the one dominance test every
  front in PowerPlay uses (ties on the full objective vector survive);
* the **uncertainty band** — the top-K points by leverage-scaled
  relative error score ``rms · sqrt(1 + h) / |prediction|``, the rows
  where the model is least trustworthy and exact verification buys the
  most.

Rows predicting non-finite values (an extrapolating basis, a derived
expression dividing by zero at a corner) are dropped and counted —
NaN never reaches a dominance comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.optimize import pareto_mask
from ..errors import PowerPlayError, SurrogateError
from ..explore.space import DerivedObjective, ParameterSpace
from .fit import SurrogateFit, _TINY

#: default streaming window; ~an (n, terms) matrix product per window
DEFAULT_CHUNK = 65536


def axis_matrix(
    space: ParameterSpace, start: int, stop: int
) -> np.ndarray:
    """Axis values for points ``[start, stop)`` as an ``(n, n_axes)``
    matrix, bit-identical to ``space.axis_values(i)`` per row."""
    if not 0 <= start <= stop <= len(space):
        raise SurrogateError(
            f"window [{start}, {stop}) out of range 0..{len(space)}"
        )
    return np.column_stack(list(space.axis_columns(range(start, stop)).values()))


@dataclass
class PredictionScan:
    """What one streaming pass found (indices only, plus the predicted
    objective values for the rows worth keeping)."""

    total_points: int = 0
    scanned_points: int = 0
    dropped_non_finite: int = 0
    #: predicted-front point indices, ascending
    front_indices: List[int] = field(default_factory=list)
    #: most-uncertain non-front indices, by (score desc, index asc)
    uncertain_indices: List[int] = field(default_factory=list)
    #: point index -> {objective: predicted value} for every index in
    #: ``front_indices`` / ``uncertain_indices``
    predicted: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: point index -> uncertainty score for band candidates
    scores: Dict[int, float] = field(default_factory=dict)


def _scalar_column(
    value_fn, matrix: np.ndarray, axis_names: Sequence[str],
    extra_cols: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Evaluate a scalar expression row by row over a window (compiled
    expressions are scalar-typed); failures become NaN and are dropped
    downstream with the non-finite count."""
    out = np.empty(matrix.shape[0])
    names = list(axis_names)
    for i in range(matrix.shape[0]):
        env = {name: matrix[i, k] for k, name in enumerate(names)}
        for name, column in extra_cols.items():
            env[name] = column[i]
        try:
            out[i] = value_fn(env)
        except PowerPlayError:
            out[i] = np.nan
    return out


def scan_space(
    space: ParameterSpace,
    fits: Mapping[str, SurrogateFit],
    objectives: Sequence[str],
    derived: Sequence[DerivedObjective] = (),
    chunk_size: int = DEFAULT_CHUNK,
    keep_uncertain: int = 64,
    progress: Optional[Callable[[int, int], None]] = None,
) -> PredictionScan:
    """Stream the whole space through the fitted surrogates.

    ``objectives`` are the built-in objective names (each must have a
    fit); derived objectives are evaluated on top of the predictions.
    ``progress(scanned, total)`` fires after each window.
    """
    for name in objectives:
        if name not in fits:
            raise SurrogateError(f"no surrogate fit for objective {name!r}")
    chunk_size = max(1, int(chunk_size))
    keep_uncertain = max(0, int(keep_uncertain))
    total = len(space)
    objective_names = list(objectives) + [d.name for d in derived]
    scan = PredictionScan(total_points=total)

    front_vectors = np.empty((0, len(objective_names)))
    front_indices = np.empty(0, dtype=np.int64)
    band_scores = np.empty(0)
    band_indices = np.empty(0, dtype=np.int64)
    kept_predictions: Dict[int, Dict[str, float]] = {}

    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        indices = np.arange(start, stop, dtype=np.int64)
        matrix = axis_matrix(space, start, stop)

        extra_cols: Dict[str, np.ndarray] = {}
        for couple in space.coupled:
            extra_cols[couple.target] = _scalar_column(
                couple.value, matrix, space.axis_names, extra_cols
            )

        score = np.zeros(matrix.shape[0])
        for name in objectives:
            fit = fits[name]
            basis = fit.design_matrix(matrix)
            predicted = basis @ np.asarray(fit.coefficients)
            extra_cols[name] = predicted
            if keep_uncertain:
                leverage = np.einsum(
                    "ij,jk,ik->i", basis, np.asarray(fit.gram_inv), basis
                )
                with np.errstate(invalid="ignore"):
                    contribution = (
                        fit.residual_rms
                        * np.sqrt(np.maximum(1.0 + leverage, 0.0))
                        / np.maximum(np.abs(predicted), _TINY)
                    )
                score = np.maximum(score, contribution)
        for obj in derived:
            extra_cols[obj.name] = _scalar_column(
                obj.value, matrix, space.axis_names, extra_cols
            )

        vectors = np.column_stack(
            [extra_cols[name] for name in objective_names]
        )
        finite = np.all(np.isfinite(vectors), axis=1)
        scan.dropped_non_finite += int(np.sum(~finite))
        vectors = vectors[finite]
        window_indices = indices[finite]
        score = score[finite]

        if vectors.shape[0]:
            merged_vectors = np.vstack([front_vectors, vectors])
            merged_indices = np.concatenate([front_indices, window_indices])
            keep = pareto_mask(merged_vectors)
            front_vectors = merged_vectors[keep]
            front_indices = merged_indices[keep]

            if keep_uncertain and score.size:
                merged_scores = np.concatenate([band_scores, score])
                merged_band = np.concatenate(
                    [band_indices, window_indices]
                )
                if merged_scores.size > keep_uncertain:
                    # top-K by (score desc, index asc), deterministic
                    order = np.lexsort((merged_band, -merged_scores))
                    order = order[:keep_uncertain]
                    merged_scores = merged_scores[order]
                    merged_band = merged_band[order]
                band_scores = merged_scores
                band_indices = merged_band

            # record predictions for this window's rows that currently
            # matter (front survivors or band members); rows evicted by
            # later windows are filtered out at the end
            wanted_now = set(front_indices.tolist())
            wanted_now.update(band_indices.tolist())
            for position in np.flatnonzero(
                np.isin(window_indices, np.fromiter(
                    wanted_now, dtype=np.int64, count=len(wanted_now)
                ))
            ):
                idx = int(window_indices[position])
                kept_predictions[idx] = {
                    name: float(vectors[position, column])
                    for column, name in enumerate(objective_names)
                }

        scan.scanned_points = stop
        if progress is not None:
            progress(stop, total)

    if band_indices.size:
        order = np.lexsort((band_indices, -band_scores))
        band_indices = band_indices[order]
        band_scores = band_scores[order]
    front_set = set(int(i) for i in front_indices)
    scan.front_indices = sorted(front_set)
    scan.uncertain_indices = [
        int(i) for i in band_indices if int(i) not in front_set
    ]
    scan.scores = {
        int(i): float(s) for i, s in zip(band_indices, band_scores)
    }
    wanted = front_set | set(scan.uncertain_indices)
    scan.predicted = {
        idx: values
        for idx, values in kept_predictions.items()
        if idx in wanted
    }
    missing = wanted - set(scan.predicted)
    if missing:  # pragma: no cover - structural invariant
        raise SurrogateError(
            f"scan lost predictions for {len(missing)} kept row(s)"
        )
    return scan
