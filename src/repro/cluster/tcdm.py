"""Banked L1 TCDM with per-cycle contention accounting.

The PULP cluster's shared L1 is a multi-banked scratchpad behind a
single-cycle logarithmic interconnect: word ``w`` lives in bank
``w % num_banks`` (word interleaving), each bank serves one access per
cycle, and simultaneous requests to the same bank serialize — the losing
cores stall.  With the usual banking factor of 2 (banks = 2 x cores),
kernels whose cores walk different addresses see almost no conflicts;
cores marching in lockstep over *shared* data collide once and are
thereby staggered, after which the interleaving pipelines them
conflict-free.  That transient is exactly what the
``stall_tcdm_contention`` counter measures.

Storage is a plain :class:`~repro.soc.memory.Memory`; the timing side
(:meth:`Tcdm.access`) is driven by the cluster's per-core memory ports
with each core's local cycle clock.
"""

from __future__ import annotations

from typing import List

from ..errors import SimError
from ..soc.memmap import TCDM_BASE, TCDM_SIZE
from ..soc.memory import Memory


class Tcdm:
    """Word-interleaved banked scratchpad with single-port banks."""

    def __init__(self, size: int = TCDM_SIZE, base: int = TCDM_BASE,
                 num_banks: int = 16) -> None:
        if num_banks <= 0:
            raise SimError("TCDM needs at least one bank")
        self.mem = Memory(size, base=base, name="tcdm")
        self.num_banks = num_banks
        #: Per-bank time up to which the bank is granted (exclusive).
        self._busy_until: List[int] = [0] * num_banks
        #: Total accesses and conflicted accesses (for the report).
        self.accesses = 0
        self.conflicts = 0
        self.conflict_cycles = 0
        self.conflicts_by_bank: List[int] = [0] * num_banks

    @property
    def base(self) -> int:
        return self.mem.base

    @property
    def size(self) -> int:
        return self.mem.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.mem.contains(addr, length)

    def reset_timing(self) -> None:
        self._busy_until = [0] * self.num_banks
        self.accesses = 0
        self.conflicts = 0
        self.conflict_cycles = 0
        self.conflicts_by_bank = [0] * self.num_banks

    def access(self, addr: int, when: int) -> int:
        """Arbitrate one access to the bank holding *addr* at time *when*.

        Returns the stall cycles: if the bank is already granted to an
        earlier request, the access waits until the bank frees (it is
        granted at ``when + stall``).  The caller charges the stall to
        the requesting core.
        Accesses must be presented in non-decreasing *when* order per bank
        (the cluster's event-ordered scheduler guarantees this globally).
        """
        bank = ((addr - self.mem.base) >> 2) % self.num_banks
        self.accesses += 1
        busy = self._busy_until[bank]
        stall = busy - when if busy > when else 0
        self._busy_until[bank] = when + stall + 1
        if stall:
            self.conflicts += 1
            self.conflict_cycles += stall
            self.conflicts_by_bank[bank] += 1
        return stall

    @property
    def conflict_rate(self) -> float:
        """Fraction of accesses that lost at least one arbitration."""
        return self.conflicts / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"Tcdm({self.size // 1024} kB, {self.num_banks} banks, "
            f"{self.conflicts}/{self.accesses} conflicts)"
        )
