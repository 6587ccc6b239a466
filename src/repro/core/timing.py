"""Cycle-approximate timing model of the (extended) RI5CY pipeline.

The paper's performance results are cycle counts on a 4-stage in-order
single-issue core.  On such a core, kernel cycle counts decompose into
per-instruction occupancy plus a small set of hazards; this module encodes
exactly those, with every parameter documented and overridable:

* single-cycle ALU/SIMD/MUL/dot-product ops (the extended dot-product unit
  is designed *not* to add pipeline stages — paper §III-B1);
* loads/stores: 1-cycle occupancy against single-cycle TCDM, plus a 1-cycle
  load-use stall when the next instruction consumes the loaded register;
* taken branches flush the front-end (+2), jumps always do (+1);
* zero-overhead hardware-loop back-edges;
* ``pv.qnt.n`` / ``pv.qnt.c``: 9 / 5 cycles total for two activations, the
  pipelined quantization-FSM latency of §III-B2;
* misaligned data accesses split into two transactions (+1).

Every reported cycle is charged from one summary built here:
:class:`InstrTiming` per instruction (:meth:`InstrTiming.load_use` is the
one load-use hazard rule) and :class:`BlockTiming` per straight-line run,
with its cyclic hardware-loop steady state.  The interpreter
(:class:`TimingModel`), the block engine (:mod:`repro.engine`) and the
static analyzer (:mod:`repro.analysis.cost`) all charge from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional

from ..isa.instruction import Instruction


def _default_class_cycles() -> Dict[str, int]:
    return {
        "alu": 1,
        "mul": 1,
        "div": 35,
        "load": 1,
        "store": 1,
        "branch": 1,     # not-taken occupancy; taken adds branch_penalty
        "jump": 1,       # plus jump_penalty (always)
        "hwloop": 1,
        "qnt_n": 9,      # two 4-bit activations (paper §III-B2)
        "qnt_c": 5,      # two 2-bit activations
        "system": 1,
        "csr": 1,
    }


@dataclass
class TimingParams:
    """Tunable pipeline parameters (defaults model RI5CY in PULPissimo)."""

    class_cycles: Dict[str, int] = field(default_factory=_default_class_cycles)
    branch_taken_penalty: int = 2
    jump_penalty: int = 1
    load_use_penalty: int = 1
    misaligned_penalty: int = 1

    def signature(self) -> tuple:
        """Hashable identity of the parameter set.  Part of the
        translated-block cache key: blocks precompute static cycle
        prefix sums, so two cores may only share translations when
        every timing parameter agrees."""
        return (
            tuple(sorted(self.class_cycles.items())),
            self.branch_taken_penalty,
            self.jump_penalty,
            self.load_use_penalty,
            self.misaligned_penalty,
        )


@dataclass
class StepTiming:
    """Cycle breakdown of one retired instruction."""

    base: int
    branch_stall: int = 0
    jump_stall: int = 0
    load_use_stall: int = 0
    misaligned_stall: int = 0

    @property
    def total(self) -> int:
        return (
            self.base
            + self.branch_stall
            + self.jump_stall
            + self.load_use_stall
            + self.misaligned_stall
        )


class InstrTiming:
    """Timing summary of one instruction under one parameter set."""

    __slots__ = ("ins", "cls", "base", "srcs", "pending", "branch", "jump",
                 "load_use_penalty")

    def __init__(self, ins: Instruction, params: TimingParams) -> None:
        self.ins = ins
        cls = self.cls = ins.spec.timing
        self.base = params.class_cycles[cls]
        #: Registers read, without x0 (a load into x0 never stalls).
        self.srcs = frozenset(ins.source_registers()) - {0}
        #: Register this instruction's load leaves in flight, or None.
        self.pending = ins.rd if cls == "load" and ins.rd != 0 else None
        #: Penalty when the branch is taken / always charged to a jump.
        self.branch = params.branch_taken_penalty if cls == "branch" else 0
        self.jump = params.jump_penalty if cls == "jump" else 0
        self.load_use_penalty = params.load_use_penalty

    def load_use(self, pending: Optional[int]) -> int:
        """Stall this instruction takes when the previous one left
        *pending* loading: the load-use hazard rule."""
        return self.load_use_penalty if pending in self.srcs else 0


class LoopTiming(NamedTuple):
    """Steady state of a hardware-loop body, iteration 2 onwards."""

    lu0: int                # first instruction's stall after the last one
    static: List[int]       # per-instruction cycles of one iteration
    total: int              # sum(static)
    load_use: int           # load-use stall cycles per iteration


def prefix_counts(labels: List[str]) -> Dict[str, List[int]]:
    """Per-label prefix counts: ``out[label][i]`` labels among the first
    *i* entries."""
    return {key: list(accumulate((label == key for label in labels),
                                 initial=0))
            for key in set(labels)}


class BlockTiming:
    """Static timing of a straight-line run of instructions.

    ``static[i]`` is instruction *i*'s base cycles plus its load-use stall
    on instruction ``i - 1``; the first instruction's stall depends on
    what precedes the run and comes from :meth:`entry_stall`.
    """

    __slots__ = ("instrs", "lu", "static", "prefix", "lu_prefix",
                 "cls_prefix")

    def __init__(self, instrs: List[Instruction],
                 params: TimingParams) -> None:
        timings = self.instrs = [InstrTiming(ins, params) for ins in instrs]
        self.lu = [0] + [t.load_use(prev.pending)
                         for prev, t in zip(timings, timings[1:])]
        self.static = [t.base + lu for t, lu in zip(timings, self.lu)]
        self.prefix = list(accumulate(self.static, initial=0))
        self.lu_prefix = list(accumulate(self.lu, initial=0))
        self.cls_prefix = prefix_counts([t.cls for t in timings])

    def entry_stall(self, i: int, pending: Optional[int]) -> int:
        """Load-use stall of instruction *i* when entered with *pending*
        in flight (in place of ``lu[i]``)."""
        return self.instrs[i].load_use(pending)

    def loop(self, body_len: int) -> LoopTiming:
        """Cyclic steady state of the first *body_len* instructions run
        as a loop body: the back-edge is a pure fetch redirect, so the
        first instruction's hazard wraps around to the last one."""
        lu0 = self.entry_stall(0, self.instrs[body_len - 1].pending)
        static = [self.instrs[0].base + lu0] + self.static[1:body_len]
        return LoopTiming(lu0, static, sum(static),
                          lu0 + self.lu_prefix[body_len] - self.lu_prefix[1])


class TimingModel:
    """Stateful per-step cycle accounting (tracks the previous load)."""

    def __init__(self, params: Optional[TimingParams] = None) -> None:
        self.params = params or TimingParams()
        #: Register the previous instruction's load left in flight, or
        #: None: the pipeline state a block or fused dispatch enters with.
        self.pending: Optional[int] = None
        # InstrTiming by id(); each summary holds its instruction, so an
        # id cannot be reused while its entry exists.
        self._summaries: Dict[int, InstrTiming] = {}

    def reset(self) -> None:
        self.pending = None
        # Rebuilt from the (possibly edited) params as instructions run.
        self._summaries.clear()

    def step(
        self,
        ins: Instruction,
        taken: bool,
        misaligned_accesses: int,
    ) -> StepTiming:
        """Account one instruction; *taken* flags a non-fall-through next PC
        for control transfers, *misaligned_accesses* counts split data
        transactions performed by the instruction."""
        timing = self._summaries.get(id(ins))
        if timing is None:
            timing = self._summaries[id(ins)] = InstrTiming(ins, self.params)
        pending = self.pending
        self.pending = timing.pending
        return StepTiming(
            timing.base,
            timing.branch if taken else 0,
            timing.jump,
            0 if pending is None else timing.load_use(pending),
            misaligned_accesses * self.params.misaligned_penalty,
        )
