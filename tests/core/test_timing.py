"""Cycle-approximate timing model behaviour (RI5CY parameters)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.core import Cpu, TimingParams
from repro.core.timing import BlockTiming, TimingModel
from tests.conftest import run_asm


class TestClassCycles:
    def test_alu_one_cycle(self, cpu):
        run_asm(cpu, "addi a0, zero, 1\nebreak")
        assert cpu.perf.cycles == 2

    def test_load_one_cycle_no_use(self, cpu):
        cpu.mem.store(0x100, 4, 1)
        run_asm(cpu, "lw a0, 0(a2)\naddi a3, a4, 0\nebreak", a2=0x100)
        assert cpu.perf.cycles == 3
        assert cpu.perf.stall_load_use == 0

    def test_load_use_stall(self, cpu):
        cpu.mem.store(0x100, 4, 5)
        run_asm(cpu, "lw a0, 0(a2)\naddi a1, a0, 1\nebreak", a2=0x100)
        assert cpu.perf.stall_load_use == 1
        assert cpu.perf.cycles == 4

    def test_load_use_stall_skipped_with_gap(self, cpu):
        cpu.mem.store(0x100, 4, 5)
        run_asm(cpu, "lw a0, 0(a2)\nnop\naddi a1, a0, 1\nebreak", a2=0x100)
        assert cpu.perf.stall_load_use == 0

    def test_load_use_stall_on_accumulator(self, cpu):
        """sdotp reads rd, so a load into rd stalls too."""
        cpu.mem.store(0x100, 4, 5)
        run_asm(cpu, "lw a0, 0(a2)\npv.sdotsp.b a0, a3, a4\nebreak", a2=0x100)
        assert cpu.perf.stall_load_use == 1

    def test_x0_load_never_stalls(self, cpu):
        cpu.mem.store(0x100, 4, 5)
        run_asm(cpu, "lw zero, 0(a2)\naddi a1, zero, 1\nebreak", a2=0x100)
        assert cpu.perf.stall_load_use == 0


class TestControlFlow:
    def test_taken_branch_penalty(self, cpu):
        run_asm(cpu, "beq zero, zero, t\nnop\nt:\nebreak")
        assert cpu.perf.stall_branch == 2
        assert cpu.perf.cycles == 1 + 2 + 1

    def test_not_taken_branch_no_penalty(self, cpu):
        run_asm(cpu, "bne zero, zero, t\nnop\nt:\nebreak")
        assert cpu.perf.stall_branch == 0

    def test_jump_penalty(self, cpu):
        run_asm(cpu, "j t\nnop\nt:\nebreak")
        assert cpu.perf.stall_jump == 1
        assert cpu.perf.cycles == 1 + 1 + 1


class TestMisalignment:
    def test_misaligned_load_costs_extra(self, cpu):
        cpu.mem.store(0x100, 4, 0)
        run_asm(cpu, "lw a0, 1(a2)\nebreak", a2=0x100)
        assert cpu.perf.stall_misaligned == 1

    def test_aligned_load_no_extra(self, cpu):
        run_asm(cpu, "lw a0, 0(a2)\nebreak", a2=0x100)
        assert cpu.perf.stall_misaligned == 0

    def test_misaligned_halfword_store(self, cpu):
        run_asm(cpu, "sh a1, 1(a2)\nebreak", a1=5, a2=0x100)
        assert cpu.perf.stall_misaligned == 1


class TestQuantTiming:
    def test_qnt_n_occupies_9(self, cpu):
        cpu.mem.write_i16(0x4000, [0] * 16)
        run_asm(cpu, "pv.qnt.n a0, a1, a2\nebreak", a1=0, a2=0x4000)
        assert cpu.perf.cycles == 9 + 1

    def test_qnt_c_occupies_5(self, cpu):
        cpu.mem.write_i16(0x4000, [0] * 8)
        run_asm(cpu, "pv.qnt.c a0, a1, a2\nebreak", a1=0, a2=0x4000)
        assert cpu.perf.cycles == 5 + 1

    def test_misaligned_threshold_base_stalls(self, cpu):
        cpu.mem.write_i16(0x4000, [0] * 40)
        run_asm(cpu, "pv.qnt.n a0, a1, a2\nebreak", a1=0, a2=0x4001)
        assert cpu.perf.stall_misaligned >= 8  # every tree read split


class TestCustomParams:
    def test_overridable_penalties(self):
        params = TimingParams()
        params.branch_taken_penalty = 5
        params.jump_penalty = 4
        cpu = Cpu(isa="xpulpnn", timing=params)
        run_asm(cpu, "beq zero, zero, t\nnop\nt:\nj u\nnop\nu:\nebreak")
        assert cpu.perf.stall_branch == 5
        assert cpu.perf.stall_jump == 4

    def test_params_edit_applies_after_reset(self, cpu):
        cpu.mem.store(0x100, 4, 5)
        source = "lw a0, 0(a2)\naddi a1, a0, 1\nebreak"
        run_asm(cpu, source, a2=0x100)
        cpu.timing.params.load_use_penalty = 3
        run_asm(cpu, source, a2=0x100)
        assert cpu.perf.stall_load_use == 3

    def test_model_rejects_unknown_class(self):
        model = TimingModel()
        from repro.isa.instruction import InstrSpec

        with pytest.raises(ValueError):
            InstrSpec(mnemonic="x", fmt="R", fixed={}, syntax=(),
                      execute=lambda c, i: None, timing="warp")


# Straight-line instructions that exercise every summary field: loads
# into several registers (and x0), consumers reading them as rs1, rs2 or
# an accumulating rd, post-increment writeback, and multicycle classes.
_STRAIGHT_LINE = (
    "lw a0, 0(a1)", "lw a1, 0(a2)", "lw zero, 0(a0)", "p.lw a2, 4(a0!)",
    "lbu a0, 1(a2)", "addi a2, a0, 1", "add a0, a1, a2",
    "pv.sdotsp.b a0, a1, a2", "sw a0, 0(a1)", "mul a1, a0, a2",
    "div a2, a1, a0", "nop",
)

_SEQUENCES = st.lists(st.sampled_from(_STRAIGHT_LINE), min_size=1,
                      max_size=12)
_PARAMS = st.builds(TimingParams, branch_taken_penalty=st.integers(0, 3),
                    jump_penalty=st.integers(0, 3),
                    load_use_penalty=st.integers(0, 3))


def _stepped(model, instrs):
    return [model.step(ins, False, 0) for ins in instrs]


class TestTimingSummary:
    """The block summary equals stepping TimingModel instruction by
    instruction: the interpreter and the engine charge the same cycles."""

    @settings(max_examples=150, deadline=None)
    @given(_SEQUENCES, st.sampled_from([None, 10, 11, 12]), _PARAMS)
    def test_block_matches_stepping(self, lines, pending, params):
        instrs = assemble("\n".join(lines), isa="xpulpnn").instructions
        block = BlockTiming(instrs, params)
        model = TimingModel(params)
        model.pending = pending
        steps = _stepped(model, instrs)
        entry = block.entry_stall(0, pending)
        assert entry == steps[0].load_use_stall
        assert block.lu[1:] == [t.load_use_stall for t in steps[1:]]
        assert (block.prefix[-1] - block.lu[0] + entry
                == sum(t.total for t in steps))
        assert (block.lu_prefix[-1] - block.lu[0] + entry
                == sum(t.load_use_stall for t in steps))
        assert block.instrs[-1].pending == model.pending
        for cls, pref in block.cls_prefix.items():
            assert pref[-1] == sum(ins.spec.timing == cls for ins in instrs)

    @settings(max_examples=150, deadline=None)
    @given(_SEQUENCES, _PARAMS)
    def test_loop_matches_two_iterations(self, lines, params):
        body = assemble("\n".join(lines), isa="xpulpnn").instructions
        steady = BlockTiming(body, params).loop(len(body))
        model = TimingModel(params)
        _stepped(model, body)
        second = _stepped(model, body)
        assert steady.lu0 == second[0].load_use_stall
        assert steady.static == [t.total for t in second]
        assert steady.total == sum(t.total for t in second)
        assert steady.load_use == sum(t.load_use_stall for t in second)
