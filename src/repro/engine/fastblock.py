"""Tier-A execution: cached blocks run from flat tables.

The segment loop below is the engine's workhorse when fusion does not
apply.  It executes a block's instructions with the original semantic
functions but none of the per-instruction interpreter overhead: no
fetch dict lookup, no :class:`~repro.core.timing.StepTiming`
allocation, no per-retire counter writes.  Cycle and stall accounting
is flushed per *segment* from the block's precomputed prefix sums and
is bit-identical to interpreting the same instructions — including
load-use hazards across segment and block boundaries, misaligned-access
penalties, quantization-FSM stalls, profiled-span attribution and trap
behaviour (a fault flushes the already-retired prefix, leaves ``pc`` on
the faulting instruction, and re-raises).

A *segment* ends where a hardware-loop back-edge can fire: loop counts
only change at a loop-end fall-through, so every interior instruction
is provably straight-line and needs no redirect check.
"""

from __future__ import annotations

from typing import Optional


class SpanInfo:
    """Profiled-span attribution for one block (``Cpu.profile_spans``)."""

    __slots__ = ("mask", "prefix")

    def __init__(self, block, span_addrs) -> None:
        self.mask = [addr in span_addrs for addr in block.addrs]
        prefix = [0] * (block.n + 1)
        total = 0
        for i, inside in enumerate(self.mask):
            if inside:
                total += block.timing.static[i]
            prefix[i + 1] = total
        self.prefix = prefix

    @property
    def any(self) -> bool:
        return self.prefix[-1] > 0 or any(self.mask)


def run_block(cpu, block, limit: int, span: Optional[SpanInfo]) -> int:
    """Execute *block* from its first instruction; returns the number of
    instructions retired (at most *limit*).  ``cpu.pc`` is left exactly
    where the interpreter would leave it."""
    hw = cpu.hwloops
    ft_index = block.ft_index
    n = block.n
    executed = 0
    idx = 0
    while True:
        stop = n
        count = hw.count
        if count[0] > 0:
            j = ft_index.get(hw.end[0], -1)
            if idx <= j < stop:
                stop = j + 1
        if count[1] > 0:
            j = ft_index.get(hw.end[1], -1)
            if idx <= j < stop:
                stop = j + 1
        at_boundary = True
        if executed + (stop - idx) > limit:
            stop = idx + (limit - executed)
            at_boundary = False
            if stop == idx:
                cpu.pc = block.addrs[idx]
                return executed
        _exec_segment(cpu, block, idx, stop, span)
        executed += stop - idx
        if not at_boundary:
            cpu.pc = block.addrs[stop] if stop < n else block.fts[n - 1]
            return executed
        fall_through = block.fts[stop - 1]
        redirect = hw.redirect(fall_through)
        if redirect is None:
            if stop < n:
                idx = stop
                continue
            cpu.pc = fall_through
            return executed
        cpu.perf.hwloop_backedges += 1
        j = block.addr_index.get(redirect, -1)
        if j < 0:
            cpu.pc = redirect
            return executed
        idx = j


def _exec_segment(cpu, block, lo: int, hi: int,
                  span: Optional[SpanInfo]) -> None:
    mis_pen = cpu.timing.params.misaligned_penalty
    entry_lu = block.timing.entry_stall(lo, cpu.timing.pending)
    execs = block.execs
    instrs = block.instrs
    addrs = block.addrs
    mask = span.mask if span is not None else None
    cpu._misaligned = 0
    cpu._extra_stalls = 0
    cpu._tcdm_stalls = 0
    dyn_mis = 0
    dyn_tcdm = 0
    dyn_profiled = 0
    i = lo
    try:
        while i < hi:
            cpu.pc = addrs[i]
            execs[i](cpu, instrs[i])
            if cpu._misaligned or cpu._extra_stalls or cpu._tcdm_stalls:
                mis = cpu._misaligned * mis_pen + cpu._extra_stalls
                tcdm = cpu._tcdm_stalls
                dyn_mis += mis
                dyn_tcdm += tcdm
                if mask is not None and mask[i]:
                    dyn_profiled += mis + tcdm
                cpu._misaligned = 0
                cpu._extra_stalls = 0
                cpu._tcdm_stalls = 0
            i += 1
    except BaseException:
        # Trap mid-segment: account the instructions that retired before
        # the fault (the faulting one is charged nothing, exactly like
        # Cpu.step aborting before its timing update) and re-raise with
        # pc parked on the faulting instruction.
        _flush(cpu, block, lo, i, entry_lu, dyn_mis, dyn_tcdm,
               dyn_profiled, span)
        raise
    _flush(cpu, block, lo, hi, entry_lu, dyn_mis, dyn_tcdm,
           dyn_profiled, span)


def _flush(cpu, block, lo: int, hi: int, entry_lu: int, dyn_mis: int,
           dyn_tcdm: int, dyn_profiled: int,
           span: Optional[SpanInfo]) -> None:
    if hi == lo:
        return
    perf = cpu.perf
    timing = block.timing
    entry_delta = entry_lu - timing.lu[lo]
    perf.cycles += (
        timing.prefix[hi] - timing.prefix[lo] + entry_delta
        + dyn_mis + dyn_tcdm
    )
    perf.instructions += hi - lo
    by_class = perf.by_class
    for cls, pref in timing.cls_prefix.items():
        delta = pref[hi] - pref[lo]
        if delta:
            by_class[cls] += delta
    perf.stall_load_use += (
        timing.lu_prefix[hi] - timing.lu_prefix[lo] + entry_delta)
    perf.stall_misaligned += dyn_mis
    perf.stall_tcdm_contention += dyn_tcdm
    if cpu.collect_mnemonics:
        by_mn = perf.by_mnemonic
        for mn, pref in block.mn_prefix.items():
            delta = pref[hi] - pref[lo]
            if delta:
                by_mn[mn] += delta
    if span is not None:
        profiled = span.prefix[hi] - span.prefix[lo] + dyn_profiled
        if span.mask[lo]:
            profiled += entry_delta
        cpu.profiled_cycles += profiled
    cpu.timing.pending = timing.instrs[hi - 1].pending
