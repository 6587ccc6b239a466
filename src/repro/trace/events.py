"""Typed execution-trace events.

Every observable the tracing layer emits is one of these small
dataclasses.  Times are core-local cycle counts (the cluster scheduler
keeps them globally ordered, so they double as a global timeline);
``core`` is the hart id (0 for a standalone core).

Event taxonomy (mirrors the hooks of :class:`repro.trace.tracer.Tracer`):

* :class:`StallEvent` — cycles lost to one hazard occurrence;
* :class:`RegionSpan` — a contiguous stretch of execution inside one
  marked program region (see :meth:`repro.asm.builder.KernelBuilder.region`);
* :class:`BarrierSpan` — one core's parked time at an event-unit barrier;
* :class:`DmaEvent` — one DMA descriptor's start/finish window.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Stall causes a :class:`StallEvent` can carry.
STALL_CAUSES = (
    "load_use", "branch", "jump", "misaligned", "unit", "tcdm",
)


@dataclass(frozen=True)
class StallEvent:
    """Cycles one instruction lost to a hazard."""

    core: int
    cycle: int
    cycles: int
    cause: str            # one of STALL_CAUSES


@dataclass(frozen=True)
class RegionSpan:
    """Contiguous execution inside one marked region."""

    core: int
    name: str
    start: int
    end: int
    instructions: int = 0

    @property
    def cycles(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class BarrierSpan:
    """One core's wait at an event-unit barrier (arrival -> release)."""

    core: int
    arrive: int
    release: int

    @property
    def parked(self) -> int:
        return self.release - self.arrive


@dataclass(frozen=True)
class DmaEvent:
    """One DMA descriptor's modeled transfer window."""

    src: int
    dst: int
    bytes: int
    start: int
    end: int

