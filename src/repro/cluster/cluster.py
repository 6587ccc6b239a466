"""The PULP cluster: N RI5CY+XpulpNN cores on a shared banked L1.

Execution is a discrete-event interleaving of the per-core ISS models:
each core keeps its own cycle clock (its ``perf.cycles``), and every
instruction that touches data memory (:attr:`InstrSpec.touches_memory`)
is an *event* executed in global ``(start cycle, hart id)`` order, so
shared-resource arbitration (TCDM banks, the DMA port, the event unit)
sees accesses in global time order.  Between its events a hart runs
ahead through core-local instructions: they read and write nothing
another hart can see.  Under ``engine="interp"`` every instruction is
an event, the step-for-step reference schedule.  Under ``engine="block"``
a hart entering a store-free fusable hardware loop becomes a *stream*
(:mod:`repro.engine.stream`) whose loads are the only events.  Three
cluster-only effects feed back into the clocks:

* **TCDM bank conflicts** — a load/store to a bank granted to an earlier
  access stalls until the bank frees (``stall_tcdm_contention``);
* **barriers** — a core reading ``EU_BARRIER_WAIT`` parks; when the last
  core arrives, every waiter's clock jumps to the release time and the
  waited span lands in ``idle_cycles``;
* **DMA completion** — ``DMA_STATUS`` polls resolve against the engine's
  busy horizon at the polling core's local time.

Cores address the shared memory through per-core ports
(:class:`CoreMemPort`); the untimed decoder (:class:`ClusterMemory`)
also backs host-side tensor staging and the DMA's functional copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heappushpop
from typing import Dict, List, Optional

from ..core.cpu import Cpu
from ..core.perf import PerfCounters
from ..core.timing import TimingParams
from ..errors import MemoryAccessError, SimError
from ..soc.memmap import (
    CLUSTER_PERIPH_BASE,
    CLUSTER_PERIPH_SIZE,
    DMA_BASE,
    EU_BARRIER_COUNT,
    EU_BARRIER_WAIT,
    EU_NUM_CORES,
    L2_BASE,
    L2_SIZE,
    TCDM_SIZE,
)
from ..soc.memory import Memory
from ..target.names import XPULPNN
from .dma import ClusterDma
from .event_unit import EventUnit
from .tcdm import Tcdm

#: PULP's usual TCDM banking factor: banks = factor x cores.
DEFAULT_BANKING_FACTOR = 2


@dataclass
class ClusterConfig:
    """Shape of the modeled cluster."""

    num_cores: int = 8
    isa: str = XPULPNN
    banking_factor: int = DEFAULT_BANKING_FACTOR
    tcdm_size: int = TCDM_SIZE
    l2_size: int = L2_SIZE
    timing: Optional[TimingParams] = None

    def __post_init__(self) -> None:
        if self.num_cores < 1:
            raise SimError("a cluster needs at least one core")
        if self.banking_factor < 1:
            raise SimError("banking factor must be >= 1")

    @property
    def num_banks(self) -> int:
        return self.num_cores * self.banking_factor


class ClusterMemory:
    """Untimed address decoder over TCDM + L2 (host and DMA view)."""

    def __init__(self, tcdm: Tcdm, l2: Memory) -> None:
        self.tcdm = tcdm
        self.l2 = l2

    def _region(self, addr: int, length: int) -> Memory:
        if self.tcdm.contains(addr, length):
            return self.tcdm.mem
        if self.l2.contains(addr, length):
            return self.l2
        raise MemoryAccessError(
            f"cluster: access of {length} B at {addr:#010x} maps to neither "
            f"TCDM nor L2"
        )

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        return self._region(addr, size).load(addr, size, signed)

    def store(self, addr: int, size: int, value: int) -> None:
        self._region(addr, size).store(addr, size, value)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._region(addr, len(data)).write_bytes(addr, data)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return self._region(addr, length).read_bytes(addr, length)

    def write_words(self, addr: int, words) -> None:
        self._region(addr, 4).write_words(addr, words)

    def read_words(self, addr: int, count: int):
        return self._region(addr, 4).read_words(addr, count)

    def write_i16(self, addr: int, values) -> None:
        self._region(addr, 2).write_i16(addr, values)

    def read_i16(self, addr: int, count: int):
        return self._region(addr, 2).read_i16(addr, count)

    def write_i8(self, addr: int, values) -> None:
        self._region(addr, 1).write_i8(addr, values)

    def read_i8(self, addr: int, count: int):
        return self._region(addr, 1).read_i8(addr, count)


class CoreMemPort:
    """One core's timed window onto the cluster memory system.

    Implements the :class:`~repro.soc.memory.Memory` protocol the CPU
    model expects; TCDM accesses arbitrate for banks, cluster-peripheral
    accesses hit the event unit / DMA register files, everything else
    falls through to the untimed decoder.
    """

    def __init__(self, cluster: "Cluster", core_id: int) -> None:
        self._cluster = cluster
        self._core_id = core_id
        self.cpu: Optional[Cpu] = None  # wired by the Cluster constructor

    # -- timed accesses (instruction semantics) -------------------------

    def _now(self) -> int:
        """The access's cycle, checked against the cluster's event order:
        an access keyed before the last one granted is a scheduler bug,
        never something to arbitrate."""
        now = self.cpu.perf.cycles
        cl = self._cluster
        key = now * cl.config.num_cores + self._core_id
        order = cl._order
        if key < order[0]:
            raise SimError(
                f"core {self._core_id}: memory access at cycle {now} "
                f"arrived out of event order")
        order[0] = key
        return now

    def load(self, addr: int, size: int, signed: bool = False) -> int:
        cl = self._cluster
        now = self._now()
        if cl.tcdm.contains(addr, size):
            stall = cl.tcdm.access(addr, now)
            if stall:
                self.cpu.add_tcdm_stall(stall)
            if cl.access_trace is not None:
                cl.access_trace.record(
                    self._core_id, addr, size, "r",
                    cl.event_unit.barriers_completed, pc=self.cpu.pc)
            return cl.tcdm.mem.load(addr, size, signed)
        if CLUSTER_PERIPH_BASE <= addr < CLUSTER_PERIPH_BASE + CLUSTER_PERIPH_SIZE:
            return self._periph_load(addr, now)
        return cl.raw.load(addr, size, signed)

    def store(self, addr: int, size: int, value: int) -> None:
        cl = self._cluster
        now = self._now()
        if cl.tcdm.contains(addr, size):
            stall = cl.tcdm.access(addr, now)
            if stall:
                self.cpu.add_tcdm_stall(stall)
            if cl.access_trace is not None:
                cl.access_trace.record(
                    self._core_id, addr, size, "w",
                    cl.event_unit.barriers_completed, pc=self.cpu.pc)
            cl.tcdm.mem.store(addr, size, value)
            return
        if CLUSTER_PERIPH_BASE <= addr < CLUSTER_PERIPH_BASE + CLUSTER_PERIPH_SIZE:
            self._periph_store(addr, value, now)
            return
        cl.raw.store(addr, size, value)

    def _periph_load(self, addr: int, now: int) -> int:
        cl = self._cluster
        if addr == EU_NUM_CORES:
            return cl.config.num_cores
        if addr == EU_BARRIER_WAIT:
            cl.event_unit.signal_arrival(self._core_id)
            return 0
        if addr == EU_BARRIER_COUNT:
            return cl.event_unit.barriers_completed
        if DMA_BASE <= addr < DMA_BASE + 0x20:
            return cl.dma.reg_load(addr - DMA_BASE, now)
        return 0

    def _periph_store(self, addr: int, value: int, now: int) -> None:
        cl = self._cluster
        if DMA_BASE <= addr < DMA_BASE + 0x20:
            cl.dma.reg_store(addr - DMA_BASE, value & 0xFFFF_FFFF, now)

    # -- untimed bulk helpers (harness side) -----------------------------

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._cluster.raw.write_bytes(addr, data)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return self._cluster.raw.read_bytes(addr, length)

    def write_words(self, addr: int, words) -> None:
        self._cluster.raw.write_words(addr, words)

    def read_words(self, addr: int, count: int):
        return self._cluster.raw.read_words(addr, count)

    def write_i16(self, addr: int, values) -> None:
        self._cluster.raw.write_i16(addr, values)

    def read_i16(self, addr: int, count: int):
        return self._cluster.raw.read_i16(addr, count)

    def write_i8(self, addr: int, values) -> None:
        self._cluster.raw.write_i8(addr, values)

    def read_i8(self, addr: int, count: int):
        return self._cluster.raw.read_i8(addr, count)


@dataclass
class ClusterRun:
    """Outcome of one cluster execution."""

    per_core: List[PerfCounters]
    barriers: int
    tcdm_accesses: int
    tcdm_conflicts: int
    tcdm_conflict_cycles: int
    dma_cycles: int = 0
    dma_bytes: int = 0
    #: Block-engine coverage under ``engine="block"`` (empty otherwise):
    #: :meth:`EngineStats.as_dict <repro.engine.engine.EngineStats.as_dict>`
    #: of the run — ``interp_steps``, ``stream_dispatches``,
    #: ``stream_loads``, ``stream_instructions``, ``side_exits`` by reason.
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        """Wall-clock cycles: the slowest core's clock."""
        return max(p.cycles for p in self.per_core)

    @property
    def aggregate(self) -> PerfCounters:
        """All cores' counters merged (total activity, not wall-clock)."""
        total = PerfCounters()
        for perf in self.per_core:
            total.merge(perf)
        return total

    @property
    def contention_share(self) -> float:
        """TCDM-contention stalls as a share of total core-cycles."""
        agg = self.aggregate
        return agg.stall_tcdm_contention / agg.cycles if agg.cycles else 0.0


class Cluster:
    """N cores + banked TCDM + event unit + DMA, stepped to completion."""

    def __init__(self, config: Optional[ClusterConfig] = None, **kwargs) -> None:
        self.config = config or ClusterConfig(**kwargs)
        cfg = self.config
        self.tcdm = Tcdm(size=cfg.tcdm_size, num_banks=cfg.num_banks)
        self.l2 = Memory(cfg.l2_size, base=L2_BASE, name="l2")
        self.raw = ClusterMemory(self.tcdm, self.l2)
        self.event_unit = EventUnit(cfg.num_cores)
        self.dma = ClusterDma(self.raw)
        #: Optional TCDM access recorder for the race detector (see
        #: :mod:`repro.analysis.race`); None keeps the hot path clean.
        self.access_trace = None
        #: Structured tracer attached via :meth:`attach_tracer` (None when
        #: not tracing).
        self.tracer = None
        #: ``[key]``: event key ``cycle * num_cores + hart`` of the last
        #: timed access (streams advance it too); :class:`CoreMemPort`
        #: refuses an access keyed before it.
        self._order = [-1]
        self.cores: List[Cpu] = []
        for core_id in range(cfg.num_cores):
            port = CoreMemPort(self, core_id)
            cpu = Cpu(isa=cfg.isa, mem=port, timing=cfg.timing,
                      hart_id=core_id)
            port.cpu = cpu
            self.cores.append(cpu)

    @property
    def mem(self) -> ClusterMemory:
        """Untimed memory view for tensor staging (host side)."""
        return self.raw

    def enable_access_trace(self):
        """Attach (and return) a TCDM access recorder for race detection."""
        from ..analysis.race import AccessTrace

        if self.access_trace is None:
            self.access_trace = AccessTrace()
        return self.access_trace

    def attach_tracer(self, tracer):
        """Attach a :class:`~repro.trace.tracer.Tracer` to the whole cluster.

        Every core delivers retire events through its own hooks; barrier
        and DMA events are emitted by the cluster itself.  Pass None to
        detach.
        """
        self.tracer = tracer
        self.dma.tracer = tracer
        for cpu in self.cores:
            cpu.tracer = tracer
        return tracer

    # ------------------------------------------------------------------

    def load_program(self, program) -> None:
        """Point every core at the same linked program (SPMD model)."""
        for cpu in self.cores:
            cpu.load_program(program)

    def reset(self) -> None:
        for cpu in self.cores:
            cpu.reset()
        self.tcdm.reset_timing()
        self.dma.reset_timing()
        if self.access_trace is not None:
            self.access_trace.clear()

    def run(
        self,
        entry: Optional[int] = None,
        max_instructions: int = 200_000_000,
    ) -> ClusterRun:
        """Step all cores to completion (every core halts).

        Events — instructions that touch data memory, or every
        instruction under ``engine="interp"`` or a per-retire tracer —
        run in ``(start cycle, hart id)`` order: a hart keeps running
        while its next event precedes every other hart's clock.  Since
        every instruction costs at least one cycle, no hart's later event
        can precede one already run, so the order is exact.

        *max_instructions* bounds the total retired across the cluster.
        Raises :class:`SimError` on barrier deadlock (all live cores
        parked with the barrier incomplete) or budget exhaustion.
        """
        cores = self.cores
        eu = self.event_unit
        nc = len(cores)
        if entry is not None:
            for cpu in cores:
                cpu.pc = entry
        self._order[0] = -1
        per_retire = any(cpu._retire_tracer is not None for cpu in cores)
        block = all(cpu.engine == "block" for cpu in cores)
        every_step = per_retire or not block
        if block:
            from ..engine.engine import BlockEngine, EngineStats

            stats = EngineStats()
            engines = [BlockEngine(cpu, stats) for cpu in cores]
            traced = per_retire or self.access_trace is not None
        # Addresses of each hart's event instructions.
        events = [
            None if every_step else frozenset(
                addr for addr, ins in cpu._imem.items()
                if ins.spec.touches_memory)
            for cpu in cores
        ]
        streams: List = [None] * nc
        heap = [cpu.perf.cycles * nc + h for h, cpu in enumerate(cores)
                if cpu.halted is None]
        heapify(heap)
        parked: set = set()
        executed = 0
        streamed = 0
        no_horizon = 1 << 62

        try:
            key = heappop(heap) if heap else -1
            while key >= 0:
                h = key % nc
                horizon = heap[0] if heap else no_horizon
                stream = streams[h]
                if stream is not None:
                    nxt = stream.advance(horizon)
                    if nxt is not None:
                        key = heappushpop(heap, nxt)
                        continue
                    streams[h] = None
                    stream.finish()
                cpu = cores[h]
                perf = cpu.perf
                step = cpu.step
                hw = cpu.hwloops
                own = events[h]
                nxt = None
                while True:
                    event = own is None or cpu.pc in own
                    if event:
                        key = perf.cycles * nc + h
                        if key > horizon:
                            nxt = key
                            break
                    step()
                    executed += 1
                    if executed > max_instructions:
                        raise SimError(
                            f"cluster exceeded {max_instructions} "
                            f"instructions (likely a spin without "
                            f"progress)")
                    if event:
                        arrived = eu.take_pending_arrival()
                        if arrived is not None:
                            self._arrive(arrived, parked, heap)
                            break
                    if cpu._halted is not None:
                        break
                    if not block:
                        continue
                    active = hw.count
                    if active[0] > 0 and cpu.pc == hw.start[0]:
                        level = 0
                    elif active[1] > 0 and cpu.pc == hw.start[1]:
                        level = 1
                    else:
                        continue
                    stream = self._stream(engines[h], level,
                                          max_instructions - executed,
                                          traced)
                    if stream is None:
                        continue
                    executed += stream.instructions
                    streamed += stream.instructions
                    nxt = stream.advance(horizon)
                    if nxt is not None:
                        streams[h] = stream
                        break
                    stream.finish()
                if nxt is not None:
                    key = heappushpop(heap, nxt)
                else:
                    key = heappop(heap) if heap else -1

            if not all(cpu.halted is not None for cpu in cores):
                raise SimError(
                    f"cluster deadlock: cores {sorted(parked)} parked at a "
                    f"barrier that can no longer complete"
                )
        finally:
            if block:
                stats.interp_steps = executed - streamed
                stats.stream_instructions = streamed
                stats.publish()

        if self.tracer is not None:
            for cpu in cores:
                self.tracer.on_halt(cpu)

        return ClusterRun(
            per_core=[cpu.perf.copy() for cpu in self.cores],
            barriers=eu.barriers_completed,
            tcdm_accesses=self.tcdm.accesses,
            tcdm_conflicts=self.tcdm.conflicts,
            tcdm_conflict_cycles=self.tcdm.conflict_cycles,
            dma_cycles=self.dma.total_cycles,
            dma_bytes=self.dma.bytes_moved,
            detail=stats.as_dict() if block else {},
        )

    def _stream(self, engine, level: int, budget: int, traced: bool):
        """A stream for the remaining iterations of loop *level*, which
        *engine*'s hart is entering, or None (side exit recorded)."""
        from ..engine.stream import open_stream

        plan = engine.loop_plan(level, budget)
        if plan is None:
            return None
        cpu = engine.cpu
        stats = engine.stats
        stream = open_stream(cpu, plan, level, self.tcdm, cpu.hart_id,
                             len(self.cores), self._order, traced)
        if isinstance(stream, str):
            stats.side_exit(stream)
            return None
        stats.stream_dispatches += 1
        stats.stream_loads += stream.loads
        return stream

    def _arrive(self, core_id: int, parked: set, heap: list) -> None:
        """Park *core_id* at the barrier; the last arrival releases every
        waiter at the release time and returns them to *heap*."""
        cores = self.cores
        eu = self.event_unit
        parked.add(core_id)
        if not eu.arrive(core_id, cores[core_id].perf.cycles):
            return
        release = eu.release_time
        released = eu.release()
        nc = len(cores)
        for waiter, when in released.items():
            perf = cores[waiter].perf
            perf.idle_cycles += release - when
            perf.cycles = release
            heappush(heap, release * nc + waiter)
        if self.tracer is not None:
            for waiter, when in sorted(released.items()):
                self.tracer.on_barrier(waiter, when, release)
        parked.clear()

    def run_program(self, program, **kwargs) -> ClusterRun:
        """Convenience: reset, load on all cores, run to completion."""
        self.reset()
        self.load_program(program)
        return self.run(entry=program.entry, **kwargs)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"Cluster({cfg.num_cores}x {cfg.isa}, "
            f"{cfg.num_banks}-bank TCDM {cfg.tcdm_size // 1024} kB)"
        )
