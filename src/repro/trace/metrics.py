"""Per-region metrics: one :class:`PerfCounters` per marked region.

:class:`RegionCounters` holds one :class:`~repro.core.perf.PerfCounters`
per ``.region`` of the running program.  The core charges it directly
(:attr:`Cpu.region_counters <repro.core.cpu.Cpu.region_counters>`) with
the same counts it adds to its own, so the per-region counters sum to the
core's end-of-run counters and the usual derived metrics (IPC, stall
shares) are available per phase.  :class:`MetricsTracer` attaches one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.perf import PerfCounters
from .tracer import Tracer


class RegionCounters:
    """Named :class:`PerfCounters` accumulators (one per region)."""

    def __init__(self, default_region: str = "other") -> None:
        #: The region unmarked code is charged to.
        self.default_region = default_region
        self._counters: Dict[str, PerfCounters] = {}
        self._order: List[str] = []

    def counters_for(self, name: Optional[str]) -> PerfCounters:
        """The accumulator for *name* (None: the default region),
        created on first use."""
        if name is None:
            name = self.default_region
        if name not in self._counters:
            self._counters[name] = PerfCounters()
            self._order.append(name)
        return self._counters[name]

    @property
    def regions(self) -> List[str]:
        """Region names in first-seen order."""
        return list(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __getitem__(self, name: str) -> PerfCounters:
        return self._counters[name]

    def total(self) -> PerfCounters:
        """All regions merged."""
        merged = PerfCounters()
        for name in self._order:
            merged.merge(self._counters[name])
        return merged

    def share(self, name: str) -> float:
        """Region cycles as a fraction of all attributed cycles."""
        total = self.total().cycles
        if not total or name not in self._counters:
            return 0.0
        return self._counters[name].cycles / total

    def rows(self):
        """(name, counters, share) per region, largest share first."""
        total = self.total().cycles or 1
        ordered = sorted(
            self._order, key=lambda n: -self._counters[n].cycles)
        return [
            (name, self._counters[name], self._counters[name].cycles / total)
            for name in ordered
        ]

    def to_dict(self) -> Dict[str, dict]:
        payload: Dict[str, dict] = {}
        for name, perf, share in self.rows():
            stalls = {
                "load_use": perf.stall_load_use,
                "branch": perf.stall_branch,
                "jump": perf.stall_jump,
                "misaligned": perf.stall_misaligned,
                "tcdm": perf.stall_tcdm_contention,
            }
            payload[name] = {
                "cycles": perf.cycles,
                "share": share,
                "instructions": perf.instructions,
                "ipc": perf.ipc,
                "stalls": stalls,
                "idle_cycles": perf.idle_cycles,
            }
        return payload

    def render(self, title: str = "") -> str:
        """Fixed-width per-region table (cycles, share, IPC, stalls)."""
        from ..eval.reporting import format_table

        rows = []
        for name, perf, share in self.rows():
            rows.append((
                name, perf.cycles, f"{100 * share:.1f}%",
                perf.instructions, f"{perf.ipc:.3f}",
                perf.stall_load_use, perf.stall_branch + perf.stall_jump,
                perf.stall_misaligned, perf.stall_tcdm_contention,
                perf.idle_cycles,
            ))
        total = self.total()
        rows.append((
            "TOTAL", total.cycles, "100.0%", total.instructions,
            f"{total.ipc:.3f}", total.stall_load_use,
            total.stall_branch + total.stall_jump, total.stall_misaligned,
            total.stall_tcdm_contention, total.idle_cycles,
        ))
        headers = ("region", "cycles", "share", "instrs", "ipc",
                   "ld-use", "ctrl", "unit", "tcdm", "idle")
        return format_table(headers, rows, title=title)


class MetricsTracer(Tracer):
    """Per-region counters for a run, charged by the core itself.

    Attaching it (``cpu.tracer = ...`` or ``Cluster.attach_tracer``)
    hands :attr:`registry` to the core, which charges every retired
    instruction to the ``.region`` of the program it has loaded —
    per step on the interpreter, per block or fused loop on the engine,
    which stays on.  *program* is the program the tracer is built for;
    attribution follows the loaded program's regions.  Unmarked code
    lands in *default_region*; barrier waits land in ``barrier``.
    """

    per_retire = False

    def __init__(self, program=None, default_region: str = "other") -> None:
        self.program = program
        self.registry = RegionCounters(default_region)

    def on_barrier(self, core: int, arrive: int, release: int) -> None:
        perf = self.registry.counters_for("barrier")
        parked = release - arrive
        perf.cycles += parked
        perf.idle_cycles += parked
