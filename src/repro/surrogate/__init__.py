"""Surrogate-accelerated exploration: fit, predict, verify.

The exact explore engine walks every point of a parameter space; this
package gives it a second backend that walks a sampled fraction, learns
the objectives, and touches the rest only as vectorized prediction —
the HL-Pow/Lorecast recipe applied to PowerPlay's early-exploration
premise.  The flow and its guarantees:

* :mod:`~repro.surrogate.sampling` — seeded, deterministic training
  selection (corners + stratified interior);
* :mod:`~repro.surrogate.fit` — rank-checked least-squares regressors
  per objective with an honest holdout error bound;
* :mod:`~repro.surrogate.predict` — streaming vectorized prediction of
  the full space, running Pareto front, leverage-scored uncertainty
  band;
* :mod:`~repro.surrogate.verify` — exact re-evaluation of the rows
  that matter, and the report separating ``exact`` from ``predicted``;
* :mod:`~repro.surrogate.runner` — the crash-safe phase orchestration
  behind ``repro sweep --surrogate`` and the ``/sweep`` UI toggle.
"""

from ..core.optimize import pareto_mask
from .fit import BASIS_NAMES, SurrogateFit, fit_objective, fit_surrogates
from .predict import PredictionScan, axis_matrix, scan_space
from .runner import (
    run_surrogate_job,
    surrogate_pending,
    surrogate_report,
    surrogate_result_rows,
)
from .sampling import (
    MIN_TRAINING_POINTS,
    chunk_indices,
    corner_indices,
    training_indices,
)
from .verify import (
    SurrogateReport,
    assemble_rows,
    observed_errors,
    select_verification,
)

__all__ = [
    "BASIS_NAMES",
    "MIN_TRAINING_POINTS",
    "PredictionScan",
    "SurrogateFit",
    "SurrogateReport",
    "assemble_rows",
    "axis_matrix",
    "chunk_indices",
    "corner_indices",
    "fit_objective",
    "fit_surrogates",
    "observed_errors",
    "pareto_mask",
    "run_surrogate_job",
    "scan_space",
    "select_verification",
    "surrogate_pending",
    "surrogate_report",
    "surrogate_result_rows",
    "training_indices",
]
