"""Tracer-hook protocol and the concrete tracers.

The core and cluster models call the hooks of a :class:`Tracer` attached
via :attr:`repro.core.cpu.Cpu.tracer` /
:meth:`repro.cluster.cluster.Cluster.attach_tracer`.  The protocol is a
plain base class with no-op hooks, so a tracer only overrides what it
cares about and the simulator pays a single ``is not None`` check per
retired instruction when tracing is off.  Per-instruction hooks fire
only for a tracer with :attr:`Tracer.per_retire` set; per-region
counting needs no hook at all (:attr:`Tracer.registry`).

Hook contract (all cycle values are the core's local clock):

``on_retire(cpu, pc, ins, timing)``
    called once per retired instruction *after* the performance counters
    were updated; ``timing`` is the :class:`~repro.core.timing.StepTiming`
    breakdown, and ``cpu._extra_stalls`` / ``cpu._tcdm_stalls`` still hold
    the step's unit/TCDM stalls.
``on_barrier(core, arrive, release)``
    one core's parked window at an event-unit barrier.
``on_dma(src, dst, nbytes, start, end)``
    one DMA descriptor's modeled transfer window.
``on_halt(cpu)``
    the core halted (``ebreak``/``ecall``); close any open state.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .events import BarrierSpan, DmaEvent, RegionSpan, StallEvent


class Tracer:
    """No-op base tracer; subclasses override the hooks they need."""

    #: When true the core calls :meth:`on_retire`, which keeps it on the
    #: interpreter (the block engine retires instructions in batches).
    #: When false only the batch-safe hooks (barrier, DMA, halt) fire and
    #: the engine stays on.
    per_retire = True

    #: Per-region counters (:class:`~repro.trace.metrics.RegionCounters`)
    #: the core charges directly while this tracer is attached; None
    #: counts no regions.
    registry = None

    def on_retire(self, cpu, pc: int, ins, timing) -> None:
        pass

    def on_barrier(self, core: int, arrive: int, release: int) -> None:
        pass

    def on_dma(self, src: int, dst: int, nbytes: int,
               start: int, end: int) -> None:
        pass

    def on_halt(self, cpu) -> None:
        pass


class TextTracer(Tracer):
    """Human-readable instruction log (the ``repro run --trace`` format)."""

    def __init__(self, write: Optional[Callable[[str], None]] = None) -> None:
        self._write = write if write is not None else print

    def on_retire(self, cpu, pc: int, ins, timing) -> None:
        from ..asm import format_instruction

        self._write(f"  {pc:#010x}: {format_instruction(ins)}")


def _step_stalls(cpu, timing):
    """The six stall buckets of one step as ``(cause, cycles)`` pairs."""
    return (
        ("load_use", timing.load_use_stall),
        ("branch", timing.branch_stall),
        ("jump", timing.jump_stall),
        ("misaligned", timing.misaligned_stall),
        ("unit", cpu._extra_stalls),
        ("tcdm", cpu._tcdm_stalls),
    )


class EventTracer(Tracer):
    """Collects typed events from a run.

    Retires are folded into per-region :class:`RegionSpan`s online — one
    span per contiguous stretch of execution inside one marked region —
    and every nonzero stall is recorded as a :class:`StallEvent`.

    The region for a PC comes from *region_map* (address -> name), usually
    :meth:`Program.region_map() <repro.asm.program.Program.region_map>`;
    unmarked addresses land in *default_region*.
    """

    def __init__(
        self,
        program=None,
        region_map: Optional[Dict[int, str]] = None,
        default_region: str = "other",
    ) -> None:
        self.default_region = default_region
        if region_map is not None:
            self._map = dict(region_map)
        elif program is not None:
            self._map = program.region_map()
        else:
            self._map = {}

        self.region_spans: List[RegionSpan] = []
        self.stalls: List[StallEvent] = []
        self.barriers: List[BarrierSpan] = []
        self.dma_events: List[DmaEvent] = []
        #: core -> final cycle count (set by :meth:`on_halt`).
        self.end_cycles: Dict[int, int] = {}
        # core -> [region name, span start cycle, instructions]
        self._open: Dict[int, list] = {}

    # -- hooks -----------------------------------------------------------

    def on_retire(self, cpu, pc: int, ins, timing) -> None:
        unit = cpu._extra_stalls
        tcdm = cpu._tcdm_stalls
        total = timing.total + unit + tcdm
        start = cpu.perf.cycles - total
        core = cpu.hart_id

        name = self._map.get(pc, self.default_region)
        cur = self._open.get(core)
        if cur is None:
            self._open[core] = [name, start, 1]
        elif cur[0] == name:
            cur[2] += 1
        else:
            self.region_spans.append(
                RegionSpan(core, cur[0], cur[1], start, cur[2]))
            self._open[core] = [name, start, 1]

        if total != timing.base:
            for cause, cycles in _step_stalls(cpu, timing):
                if cycles:
                    self.stalls.append(StallEvent(core, start, cycles, cause))

    def on_barrier(self, core: int, arrive: int, release: int) -> None:
        self.barriers.append(BarrierSpan(core, arrive, release))
        # Parked time belongs to the barrier lane, not to whatever region
        # the core happened to be in — close the open span at arrival.
        cur = self._open.pop(core, None)
        if cur is not None and arrive > cur[1]:
            self.region_spans.append(
                RegionSpan(core, cur[0], cur[1], arrive, cur[2]))

    def on_dma(self, src: int, dst: int, nbytes: int,
               start: int, end: int) -> None:
        self.dma_events.append(DmaEvent(src, dst, nbytes, start, end))

    def on_halt(self, cpu) -> None:
        core = cpu.hart_id
        cur = self._open.pop(core, None)
        end = cpu.perf.cycles
        if cur is not None and end > cur[1]:
            self.region_spans.append(
                RegionSpan(core, cur[0], cur[1], end, cur[2]))
        self.end_cycles[core] = end

    # -- queries ---------------------------------------------------------

    @property
    def cores(self) -> List[int]:
        seen = {span.core for span in self.region_spans}
        seen.update(self.end_cycles)
        seen.update(b.core for b in self.barriers)
        return sorted(seen)

    def spans_for(self, core: int) -> List[RegionSpan]:
        return [s for s in self.region_spans if s.core == core]

    def region_cycles(self) -> Dict[str, int]:
        """Total cycles per region name, summed over all cores."""
        totals: Dict[str, int] = {}
        for span in self.region_spans:
            totals[span.name] = totals.get(span.name, 0) + span.cycles
        return totals
