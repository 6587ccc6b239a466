"""Core model: the cycle-approximate (extended) RI5CY simulator.

* :class:`repro.core.Cpu` — the instruction-set simulator.
* :class:`repro.core.TimingParams` — pipeline timing knobs.
* :class:`repro.core.PerfCounters` — cycle/instruction/stall accounting.
* :class:`repro.core.units.DotpUnit` / :class:`repro.core.units.QuantUnit`
  — reference models of the XpulpNN hardware blocks, used by their unit
  tests and the ablation benchmark.
"""

from .cpu import Cpu
from .hwloop import HwLoopController
from .perf import PerfCounters
from .timing import StepTiming, TimingModel, TimingParams
from .units import DotpUnit, QuantUnit

__all__ = [
    "Cpu",
    "DotpUnit",
    "HwLoopController",
    "PerfCounters",
    "QuantUnit",
    "StepTiming",
    "TimingModel",
    "TimingParams",
]
