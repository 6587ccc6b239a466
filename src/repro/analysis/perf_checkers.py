"""Opt-in performance-hazard checkers.

These lints flag code that is *correct* but leaves cycles on the table —
the hazards the static cost analyzer (:mod:`repro.analysis.cost`) charges
for.  They are warnings by default-severity and excluded from the default
``repro lint`` selection (``Checker.default = False``); enable them with
``repro lint --perf`` or by naming them in ``--checks``.

Four hazard classes, matching the paper's cycle-overhead taxonomy:

* ``load-use-stall`` — a load immediately followed by its consumer where
  an independent instruction later in the same block could be scheduled
  between the two, hiding the one-cycle stall;
* ``tcdm-bank-conflict`` — a post-increment access stride inside a
  hardware loop that is a multiple of the TCDM bank span, so every
  iteration hits the same bank (worst case for cluster arbitration);
* ``missed-simd`` — a hardware loop doing scalar sub-word loads feeding
  multiplies with no ``pv.*`` instruction in sight: a packed dot product
  (``pv.sdotusp4`` and friends) would do 4-8 MACs per cycle;
* ``hwloop-overhead`` — a hardware loop whose known trip count and body
  are so short that unrolling would beat the setup overhead.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.timing import InstrTiming, TimingParams
from ..isa.instruction import Instruction
from ..isa.registers import register_name
from .cfg import HWLOOP_MNEMONICS
from .checkers import Checker, LintContext, register_checker
from .dataflow import written_registers
from .findings import Finding

#: Scalar loads narrower than a 32-bit word (sign- and zero-extending,
#: with and without the XpulpV2 post-increment forms).
_SUBWORD_LOADS = frozenset(
    {"lb", "lbu", "lh", "lhu", "p.lb", "p.lbu", "p.lh", "p.lhu"}
)


class PerfChecker(Checker):
    """Base for the opt-in hazard lints: warnings, not defaults."""

    default = False

    def finding(self, ins: Instruction, message: str) -> Finding:
        return Finding(checker=self.name, addr=ins.addr,
                       mnemonic=ins.mnemonic, severity="warning",
                       message=message)


# ---------------------------------------------------------------------------
# load-use stalls that scheduling could hide
# ---------------------------------------------------------------------------

def _movable_between(candidate: Instruction,
                     between: List[Instruction]) -> bool:
    """Can *candidate* be hoisted above every instruction in *between*?

    Conservative: only plain ALU/mul instructions move (no memory, no
    control, no hwloop bookkeeping), and only when no register the
    candidate touches is read or written by the instructions it crosses.
    """
    if candidate.spec.timing not in ("alu", "mul"):
        return False
    if candidate.mnemonic in HWLOOP_MNEMONICS:
        return False
    cand_sources = set(candidate.source_registers())
    cand_writes = set(written_registers(candidate))
    for other in between:
        other_writes = set(written_registers(other))
        other_sources = set(other.source_registers())
        if cand_sources & other_writes:
            return False          # candidate reads a value produced here
        if cand_writes & (other_sources | other_writes):
            return False          # candidate clobbers something still used
    return True


@register_checker
class LoadUseStallChecker(PerfChecker):
    name = "load-use-stall"
    description = ("load immediately consumed by the next instruction "
                   "where an independent instruction could be scheduled "
                   "between (hides the 1-cycle stall)")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        params = TimingParams()
        for block in ctx.cfg.blocks:
            body = block.instructions
            timing = [InstrTiming(ins, params) for ins in body]
            for i, ins in enumerate(body[:-1]):
                consumer = body[i + 1]
                if not timing[i + 1].load_use(timing[i].pending):
                    continue
                # Look for a later, independent instruction that could be
                # moved between the load and its consumer.
                for j in range(i + 2, len(body)):
                    if _movable_between(body[j], body[i + 1:j]):
                        yield self.finding(ins, (
                            f"load into {register_name(ins.rd)} is consumed "
                            f"by the next instruction ({consumer.mnemonic}); "
                            f"the independent {body[j].mnemonic} at "
                            f"{body[j].addr:#x} could be scheduled between "
                            f"them to hide the load-use stall"
                        ))
                        break


# ---------------------------------------------------------------------------
# TCDM bank-conflict strides
# ---------------------------------------------------------------------------

@register_checker
class TcdmBankConflictChecker(PerfChecker):
    name = "tcdm-bank-conflict"
    description = ("post-increment stride inside a hardware loop that is "
                   "a multiple of the TCDM bank span (every iteration "
                   "hits the same bank)")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        span = 4 * ctx.config.tcdm_banks   # bytes covered by one sweep
        for ins in ctx.program.instructions:
            if ins.spec.timing not in ("load", "store"):
                continue
            if not any("!" in part for part in ins.spec.syntax):
                continue           # not a post-increment form
            if "rs2(rs1" in "".join(ins.spec.syntax):
                continue           # register-indexed stride: not static
            stride = ins.imm
            if stride == 0 or stride % span:
                continue
            if not ctx.cfg.loops_containing(ins.addr):
                continue           # straight-line access, no repetition
            yield self.finding(ins, (
                f"post-increment stride {stride} is a multiple of the "
                f"TCDM bank span ({span} B for {ctx.config.tcdm_banks} "
                f"banks); every iteration of the enclosing hardware loop "
                f"hits the same bank"
            ))


# ---------------------------------------------------------------------------
# scalar loops that a pv.* dot product would collapse
# ---------------------------------------------------------------------------

@register_checker
class MissedSimdChecker(PerfChecker):
    name = "missed-simd"
    description = ("hardware loop doing scalar sub-word loads into "
                   "multiplies with no pv.* instruction; a packed "
                   "dot product would do 4-8 MACs per cycle")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for loop in ctx.cfg.loops:
            body = [ins for ins in ctx.program.instructions
                    if loop.contains(ins.addr)]
            if any(ins.mnemonic.startswith("pv.") for ins in body):
                continue
            loads = [ins for ins in body
                     if ins.mnemonic in _SUBWORD_LOADS]
            muls = [ins for ins in body if ins.spec.timing == "mul"]
            if not loads or not muls:
                continue
            stem = loads[0].mnemonic.removeprefix("p.")
            width = {"b": 8, "h": 16}[stem[1]]
            lanes = 32 // width
            yield self.finding(loads[0], (
                f"hardware loop at [{loop.start:#x}, {loop.end:#x}) "
                f"multiplies {width}-bit scalars loaded one at a time; "
                f"a packed dot product (pv.sdotusp{lanes}-style) would "
                f"compute {lanes} MACs per cycle from word loads"
            ))


# ---------------------------------------------------------------------------
# hardware loops too short to amortize their setup
# ---------------------------------------------------------------------------

@register_checker
class HwloopOverheadChecker(PerfChecker):
    name = "hwloop-overhead"
    description = ("hardware loop with a known short trip count whose "
                   "unrolled form would cost no more than the loop")

    #: Extra instructions the loop machinery costs (the lp.setup itself;
    #: count materialization usually rides along for register counts).
    SETUP_COST = 1

    def _known_count(self, ctx: LintContext, setup_addr: int) -> Optional[int]:
        ins = ctx.program.at(setup_addr)
        if ins.mnemonic == "lp.setupi":
            return ins.rs1
        state = ctx.constants.get(setup_addr)
        if state is not None and ins.rs1 in state:
            return state[ins.rs1]
        return None

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for loop in ctx.cfg.loops:
            count = self._known_count(ctx, loop.setup_addr)
            if count is None:
                continue
            body_len = sum(1 for ins in ctx.program.instructions
                           if loop.contains(ins.addr))
            if body_len == 0:
                continue
            unrolled = max(count, 1) * body_len
            if unrolled > body_len + 2 * self.SETUP_COST:
                continue
            setup = ctx.program.at(loop.setup_addr)
            yield self.finding(setup, (
                f"hardware loop runs its {body_len}-instruction body "
                f"{count} time(s); unrolling to {unrolled} instruction(s) "
                f"would drop the loop setup and free the loop level"
            ))
