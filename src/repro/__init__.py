"""PowerPlay — early power exploration (Lidsky & Rabaey, DAC 1996).

A faithful, from-scratch reproduction of the PowerPlay framework:

* :mod:`repro.core` — expression language, parameter scopes, the design
  spreadsheet, the EQ 1 model template, design hierarchy, and the
  hierarchical estimator ("Play").
* :mod:`repro.models` — the paper's model catalogue (EQ 2-20):
  computation, storage, controllers, interconnect, processors, analog,
  DC-DC converters, short-circuit currents.
* :mod:`repro.library` — a pre-characterized low-power cell library,
  the Landman characterization flow, and datasheet component models.
* :mod:`repro.sim` — validation substrate: switch-level capacitance
  simulation, signal statistics, and the vector-quantization video
  decompression workload of the paper's case study.
* :mod:`repro.web` — the World Wide Web application: HTML spreadsheet,
  per-user sessions, remote model access, and the Design Agent.
* :mod:`repro.designs` — the paper's two worked designs (luminance
  decompression chip, InfoPad terminal) ready to explore.
"""

from . import errors
from .core import (
    CapacitiveTerm,
    Design,
    Expression,
    ExpressionPowerModel,
    FixedPowerModel,
    ModelSet,
    Parameter,
    ParameterScope,
    PowerModel,
    PowerReport,
    StaticTerm,
    TemplatePowerModel,
    compare,
    evaluate_power,
    render_comparison,
    render_power,
    sweep,
)

__version__ = "1.0.0"

__all__ = [
    "CapacitiveTerm",
    "Design",
    "Expression",
    "ExpressionPowerModel",
    "FixedPowerModel",
    "ModelSet",
    "Parameter",
    "ParameterScope",
    "PowerModel",
    "PowerReport",
    "StaticTerm",
    "TemplatePowerModel",
    "compare",
    "errors",
    "evaluate_power",
    "render_comparison",
    "render_power",
    "sweep",
    "__version__",
]
