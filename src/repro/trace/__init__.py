"""Structured execution tracing and per-region metrics.

The core and cluster models accept a :class:`Tracer` (``cpu.tracer = ...``
or ``cluster.attach_tracer(...)``) and call its hooks as instructions
retire, memory ports grant, barriers release and DMA descriptors launch.
Three tracers cover the common uses:

* :class:`TextTracer` — the human-readable instruction log behind
  ``repro run --trace``;
* :class:`EventTracer` — typed event record (region spans, stalls,
  barriers, DMA) feeding the Perfetto exporter in
  :mod:`repro.trace.perfetto`;
* :class:`MetricsTracer` — has the core charge per-region
  :class:`~repro.core.perf.PerfCounters` into a
  :class:`RegionCounters` (the ``repro profile`` table); the only one
  that leaves the block-translation engine on.

The kernel catalog behind ``repro profile --kernel`` lives in
:mod:`repro.trace.profile`; it is imported lazily (not here) because it
pulls in the kernel generators, which themselves import the core.
"""

from .events import (
    STALL_CAUSES,
    BarrierSpan,
    DmaEvent,
    RegionSpan,
    StallEvent,
)
from .metrics import MetricsTracer, RegionCounters
from .perfetto import (
    chrome_trace,
    validate_chrome_trace,
    validate_chrome_trace_file,
    write_chrome_trace,
)
from .tracer import EventTracer, TextTracer, Tracer

__all__ = [
    "STALL_CAUSES",
    "BarrierSpan",
    "DmaEvent",
    "EventTracer",
    "MetricsTracer",
    "RegionCounters",
    "RegionSpan",
    "StallEvent",
    "TextTracer",
    "Tracer",
    "chrome_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
]
