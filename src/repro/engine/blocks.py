"""Basic-block discovery and the translation cache.

A *block* is a maximal run of straight-line instructions: everything
whose timing class cannot transfer control or mutate loop/CSR state
mid-stream.  Branches, jumps, ``ebreak``/``ecall``, CSR accesses (they
read live cycle counters and can write hardware-loop registers) and the
``lp.*`` setup instructions terminate discovery and always execute on
the interpreter.  A block also ends where the program's ``.region``
changes, so each block charges exactly one region
(:meth:`~repro.core.cpu.Cpu.charge`).

Blocks are decoded once into flat per-instruction tables — semantics,
fall-through addresses — plus the block's
:class:`~repro.core.timing.BlockTiming` summary, so the executors in
:mod:`repro.engine.fastblock` and :mod:`repro.engine.fusion` never touch
a dict-per-instruction fetch or allocate a
:class:`~repro.core.timing.StepTiming` again.

Translated blocks are cached process-wide keyed on
``(program digest, ISA name, timing-parameter signature)`` plus the
block's start address, so repeated runs of the same program (the serve
pool, sweeps, trajectory regeneration) skip discovery entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..core.timing import BlockTiming

#: Timing classes that end a block (and run on the interpreter).
TERMINATOR_CLASSES = frozenset({"branch", "jump", "system", "csr", "hwloop"})

#: Discovery cap; longer straight-line runs split into chained blocks.
MAX_BLOCK_INSTRUCTIONS = 256

#: Process-wide translated-program cap (LRU).
MAX_CACHED_PROGRAMS = 64


class Block:
    """One decoded straight-line block with its timing summary."""

    __slots__ = (
        "addr", "n", "instrs", "execs", "addrs", "fts", "ft_index",
        "addr_index", "timing", "region", "fused",
    )

    def __init__(self, instrs: list, params, region: Optional[str]) -> None:
        self.addr = instrs[0].addr
        self.n = len(instrs)
        self.instrs = instrs
        self.execs = [ins.spec.execute for ins in instrs]
        self.addrs = [ins.addr for ins in instrs]
        self.fts = [ins.addr + ins.spec.size for ins in instrs]
        self.ft_index = {ft: i for i, ft in enumerate(self.fts)}
        self.addr_index = {a: i for i, a in enumerate(self.addrs)}
        self.timing = BlockTiming(instrs, params)
        #: The ``.region`` every instruction belongs to (None: unmarked).
        self.region = region
        #: Fused-plan cache: loop-end fall-through address -> FusedPlan,
        #: or a side-exit reason string when fusion was statically
        #: declined (so the analysis never reruns per dispatch).
        self.fused: Dict[int, object] = {}

    def __repr__(self) -> str:
        return f"Block({self.addr:#x}, {self.n} instrs)"


def discover(imem: dict, addr: int, params,
             region_of: dict) -> Optional[Block]:
    """Decode the block starting at *addr*, or ``None`` when the first
    instruction is absent (fetch fault) or interpreter-only.  *region_of*
    maps addresses to region names (:meth:`Cpu.region_map`)."""
    region = region_of.get(addr)
    instrs = []
    a = addr
    while len(instrs) < MAX_BLOCK_INSTRUCTIONS:
        ins = imem.get(a)
        if (ins is None or ins.spec.timing in TERMINATOR_CLASSES
                or region_of.get(a) != region):
            break
        instrs.append(ins)
        a += ins.spec.size
    if not instrs:
        return None
    return Block(instrs, params, region)


class ProgramBlockCache:
    """LRU map of translated programs shared across cores.

    Keys are ``(program digest, ISA name, timing signature)``; the value
    is the per-program ``{start addr: Block | None}`` map (``None``
    records interpreter-only start addresses so repeated dispatches skip
    re-discovery).
    """

    def __init__(self, max_programs: int = MAX_CACHED_PROGRAMS) -> None:
        self._programs: OrderedDict[Tuple, Dict[int, Optional[Block]]] = (
            OrderedDict())
        self.max_programs = max_programs

    def map_for(self, key: Tuple) -> Dict[int, Optional[Block]]:
        try:
            blocks = self._programs[key]
            self._programs.move_to_end(key)
        except KeyError:
            blocks = self._programs[key] = {}
            while len(self._programs) > self.max_programs:
                self._programs.popitem(last=False)
        return blocks

    def clear(self) -> None:
        self._programs.clear()

    def __len__(self) -> int:
        return len(self._programs)


#: The shared cross-run cache (see :meth:`BlockEngine._block_map`).
GLOBAL_CACHE = ProgramBlockCache()
