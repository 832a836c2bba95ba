"""Design-space exploration as a managed subsystem.

The paper's methodology *is* exploration — "parameters such as
bit-widths and supply voltages can be varied dynamically" — but a
spreadsheet only varies one hand-edited cell at a time.  This package
turns the one-shot what-if into **sweep jobs**: declarative parameter
spaces (:mod:`repro.explore.space`), one chunk runner, serial or on
worker processes, over the dirty-row batch evaluator
(:mod:`repro.explore.engine`, :mod:`repro.explore.batcheval`), crash-safe
checkpointed job persistence (:mod:`repro.explore.jobs`), and Pareto /
sensitivity analysis over the results (:mod:`repro.explore.results`).

The whole pipeline is deterministic: the same design and space yield
bit-identical objective values and byte-identical exports, whether the
sweep ran serially, on worker processes, or was killed half-way and
resumed from its checkpoint.
"""

from .batcheval import BatchEvaluator, resolve_target
from .engine import (
    EngineReport,
    SweepOutcome,
    run_chunks,
    run_sweep,
)
from .jobs import (
    JOB_STATES,
    SURROGATE_DEFAULTS,
    JobStore,
    SweepJob,
    coerce_surrogate,
    validate_job_id,
)
from .results import (
    export_csv,
    export_json,
    pareto_rows,
    sensitivity_ranking,
)
from .space import (
    Axis,
    DerivedObjective,
    ParameterSpace,
    coupled_from_spec,
    parse_axis_spec,
)

__all__ = [
    "Axis",
    "BatchEvaluator",
    "DerivedObjective",
    "EngineReport",
    "JOB_STATES",
    "JobStore",
    "ParameterSpace",
    "SURROGATE_DEFAULTS",
    "SweepJob",
    "SweepOutcome",
    "coerce_surrogate",
    "coupled_from_spec",
    "export_csv",
    "export_json",
    "pareto_rows",
    "parse_axis_spec",
    "resolve_target",
    "run_chunks",
    "run_sweep",
    "sensitivity_ranking",
    "validate_job_id",
]
