"""Cluster streams: store-free hardware loops on the block engine.

A cluster hart that reaches an active hardware loop whose body fuses
(:mod:`repro.engine.fusion`) and stores nothing becomes a *stream*.  Its
loads are all that other harts can observe, and their timing is static
apart from bank conflicts: load ``k`` starts at the hart's clock on
entry, plus its offset in the loop's steady-state timing
(:class:`~repro.core.timing.BlockTiming`), plus the conflict stalls of
the loads before it.  The cluster scheduler grants each load through
:meth:`~repro.cluster.tcdm.Tcdm.access` at that exact cycle, in global
event order, and the stream records the word the load read at that
moment.  When the last load is granted, the fused plan computes the
registers from the recorded words and charges the counters: the same
values, cycles and stalls the interpreter produces, with no assumption
that other harts leave the stream's data alone.

A loop streams only when every load's address is known on entry (an
induction or invariant base register), lies in the TCDM and is aligned;
anything else is a side exit and the hart interprets the loop.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Union

import numpy as np

from .fusion import FusedPlan, execute_plan
from .vector import MASK32


class Stream:
    """One hart's store-free loop, granted one load at a time.

    :meth:`advance` resumes a generator that keeps the grant loop's
    state in its frame between the scheduler's turns."""

    __slots__ = ("cpu", "plan", "level", "load_addrs", "loads", "vals",
                 "stall", "instructions", "advance")

    def __init__(self, cpu, plan: FusedPlan, level: int, tcdm,
                 hart: int, num_harts: int, order: list,
                 addrs: np.ndarray, offs: np.ndarray) -> None:
        self.cpu = cpu
        self.plan = plan
        self.level = level
        #: ``(N, loads)`` byte addresses, iteration-major.
        self.load_addrs = addrs
        self.loads = addrs.size
        self.vals: list = []
        self.stall = 0
        self.instructions = plan.body_len * cpu.hwloops.count[level]
        grants = self._grants(tcdm, cpu.perf.cycles, hart, num_harts,
                              order, addrs, offs)
        next(grants)
        #: ``advance(horizon)``: grant loads while their event key
        #: ``cycle * num_harts + hart`` precedes *horizon*; returns the
        #: next load's key, or None once every load is granted.
        self.advance = grants.send

    def _grants(self, tcdm, t0: int, hart: int, num_harts: int,
                order: list, addrs: np.ndarray, offs: np.ndarray):
        horizon = yield
        access = tcdm.access
        data = tcdm.mem._data
        view = memoryview(data)[:len(data) & ~3].cast("I")
        append = self.vals.append
        words = ((addrs - tcdm.base) >> 2).ravel().tolist()
        stall = 0
        key = -1
        for addr, off, word in zip(addrs.ravel().tolist(),
                                   offs.ravel().tolist(), words):
            t = t0 + off + stall
            nxt = t * num_harts + hart
            if nxt > horizon:
                if key >= 0:
                    order[0] = key
                # The scheduler resumes a stream only when this load is
                # the earliest pending event.
                horizon = yield nxt
            key = nxt
            stall += access(addr, t)
            append(view[word])
        view.release()
        if key >= 0:
            order[0] = key
        self.stall = stall
        while True:
            yield None

    def finish(self) -> int:
        """Retire the loop from the recorded words; returns the
        instructions it retired."""
        plan = self.plan
        addrs = self.load_addrs
        loaded = {}
        if plan.stream:
            words = np.array(self.vals, dtype=np.int64).reshape(addrs.shape)
            for j, (index, _, _, _, size, signed) in enumerate(plan.stream):
                value = words[:, j]
                if size < 4:
                    value = (value >> ((addrs[:, j] & 3) * 8)) \
                        & ((1 << (8 * size)) - 1)
                    if signed:
                        sign_bit = 1 << (8 * size - 1)
                        value = ((value ^ sign_bit) - sign_bit) & MASK32
                loaded[index] = value
        return execute_plan(self.cpu, plan, self.level, loaded, self.stall)


def open_stream(cpu, plan: FusedPlan, level: int, tcdm, hart: int,
                num_harts: int, order: list,
                traced: bool) -> Union[Stream, str]:
    """A :class:`Stream` for the remaining iterations of loop *level*
    under *plan*, or the side-exit reason it declines with.  *order* is
    the cluster's one-element last-event-key cell; grants advance it."""
    loads = plan.stream
    if isinstance(loads, str):
        return loads
    if traced:
        # A per-retire tracer sees every instruction, the race detector
        # every access with its pc.
        return "stream-traced"
    n = cpu.hwloops.count[level]
    regs = cpu.regs
    iters = np.arange(n, dtype=np.int64)[:, None]
    base = np.array([regs[rs1] + offset for _, rs1, offset, _, _, _ in loads],
                    dtype=np.int64)
    delta = np.array([d for _, _, _, d, _, _ in loads], dtype=np.int64)
    size = np.array([s for _, _, _, _, s, _ in loads], dtype=np.int64)
    addrs = base + delta * iters
    if loads:
        if (addrs.min() < tcdm.base
                or (addrs + size).max() > tcdm.base + tcdm.size):
            return "stream-bounds"
        if (addrs % size).any():
            return "stream-misaligned"

    steady = plan.steady
    starts = list(accumulate(steady.static, initial=0))
    extra = plan.timing.entry_stall(0, cpu.timing.pending) - steady.lu0
    offs = (iters * steady.total
            + np.array([starts[index] for index, *_ in loads],
                       dtype=np.int64) + extra)
    if loads and loads[0][0] == 0:
        # The first instruction's own entry stall comes after its access.
        offs[0, 0] -= extra
    return Stream(cpu, plan, level, tcdm, hart, num_harts, order, addrs,
                  offs)
