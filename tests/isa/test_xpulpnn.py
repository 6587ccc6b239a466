"""XpulpNN nibble/crumb SIMD and pv.qnt semantics (paper Table II)."""

import numpy as np
import pytest

from repro.errors import IsaError
from repro.isa import build_isa
from repro.isa.bits import join_lanes, replicate_scalar, split_lanes
from repro.isa.simd import LANE_OPS, simd_dotp, simd_lane_op
from repro.isa.xpulpnn import (
    CRUMB_TREE_STRIDE,
    NIBBLE_TREE_STRIDE,
    walk_threshold_tree,
)
from repro.qnn import random_threshold_table, sorted_to_heap
from tests.conftest import run_asm

WORD_A = 0x8F27_31C5
WORD_B = 0x14E9_0BD2

_NN_LANE_OPS = [op for op in sorted(LANE_OPS) if op not in ("or", "xor", "and")]


def _run(cpu, mnemonic, a, b):
    run_asm(cpu, f"{mnemonic} a0, a1, a2\nebreak", a1=a, a2=b)
    return cpu.regs[10]


@pytest.mark.parametrize("op", _NN_LANE_OPS)
@pytest.mark.parametrize("width,suffix", [(4, "n"), (2, "c")])
def test_lane_ops_match_model(cpu, op, width, suffix):
    got = _run(cpu, f"pv.{op}.{suffix}", WORD_A, WORD_B)
    assert got == simd_lane_op(op, WORD_A, WORD_B, width)


@pytest.mark.parametrize("op", ["add", "min", "sra"])
@pytest.mark.parametrize("width,suffix", [(4, "n"), (2, "c")])
def test_sc_variants(cpu, op, width, suffix):
    got = _run(cpu, f"pv.{op}.sc.{suffix}", WORD_A, WORD_B)
    assert got == simd_lane_op(op, WORD_A, replicate_scalar(WORD_B, width), width)


class TestIsaBoundaries:
    def test_no_sci_variant_for_subbyte(self):
        """Paper §III-A: no encoding room for .sci at nibble/crumb."""
        isa = build_isa("xpulpnn")
        assert not isa.has("pv.add.sci.n")
        assert not isa.has("pv.sdotsp.sci.c")
        assert isa.has("pv.add.sci.b")  # but XpulpV2 has it

    def test_no_logical_subbyte_ops(self):
        isa = build_isa("xpulpnn")
        assert not isa.has("pv.and.n")
        assert not isa.has("pv.or.c")

    def test_baseline_lacks_nibble_ops(self):
        ri5cy = build_isa("ri5cy")
        assert not ri5cy.has("pv.sdotusp.n")
        assert not ri5cy.has("pv.qnt.n")
        with pytest.raises(IsaError):
            ri5cy.spec("pv.qnt.c")

    def test_extended_is_superset(self):
        ri5cy = build_isa("ri5cy")
        ext = build_isa("xpulpnn")
        for mnemonic in ri5cy.by_name:
            assert ext.has(mnemonic)


class TestSubbyteDot:
    @pytest.mark.parametrize("suffix,width", [("n", 4), ("c", 2)])
    def test_dot_variants(self, cpu, suffix, width):
        for op, sa, sb in (("dotup", False, False), ("dotusp", False, True),
                           ("dotsp", True, True)):
            got = _run(cpu, f"pv.{op}.{suffix}", WORD_A, WORD_B)
            assert got == simd_dotp(WORD_A, WORD_B, width, sa, sb)

    @pytest.mark.parametrize("suffix,width", [("n", 4), ("c", 2)])
    def test_sdot_accumulates(self, cpu, suffix, width):
        run_asm(cpu, f"pv.sdotusp.{suffix} a0, a1, a2\nebreak",
                a0=123456, a1=WORD_A, a2=WORD_B)
        assert cpu.regs[10] == simd_dotp(WORD_A, WORD_B, width, False, True,
                                         acc=123456)

    def test_nibble_dot_has_8_lanes(self, cpu):
        a = join_lanes([1] * 8, 4)
        b = join_lanes([1] * 8, 4)
        assert _run(cpu, "pv.dotup.n", a, b) == 8

    def test_crumb_dot_has_16_lanes(self, cpu):
        a = join_lanes([1] * 16, 2)
        b = join_lanes([1] * 16, 2)
        assert _run(cpu, "pv.dotup.c", a, b) == 16

    def test_signed_nibble_range(self, cpu):
        # -8 * 7 in every lane
        a = join_lanes([8] * 8, 4)   # 0x8 = -8 signed
        b = join_lanes([7] * 8, 4)
        got = _run(cpu, "pv.dotsp.n", a, b)
        assert got == (-8 * 7 * 8) & 0xFFFFFFFF

    def test_numpy_cross_check(self, cpu, rng):
        for width, suffix in ((4, "n"), (2, "c")):
            for _ in range(10):
                a = int(rng.integers(0, 1 << 32))
                b = int(rng.integers(0, 1 << 32))
                av = np.array(split_lanes(a, width), dtype=np.int64)
                bv = np.array(split_lanes(b, width, signed=True), dtype=np.int64)
                expected = int(av @ bv) & 0xFFFFFFFF
                assert _run(cpu, f"pv.dotusp.{suffix}", a, b) == expected


class TestQuantizationInstruction:
    def _setup_table(self, cpu, bits, channels=2, seed=1):
        table = random_threshold_table(channels, bits, rng=np.random.default_rng(seed))
        table.write_to_memory(cpu.mem, 0x4000)
        return table

    @pytest.mark.parametrize("bits,suffix", [(4, "n"), (2, "c")])
    def test_qnt_matches_golden(self, cpu, bits, suffix):
        table = self._setup_table(cpu, bits)
        for a0, a1 in ((-3000, 100), (0, -1), (32767, -32768), (5, 5)):
            packed = (a0 & 0xFFFF) | ((a1 & 0xFFFF) << 16)
            run_asm(cpu, f"pv.qnt.{suffix} a0, a1, a2\nebreak",
                    a1=packed, a2=0x4000)
            got = cpu.regs[10]
            q0, q1 = got & ((1 << bits) - 1), (got >> bits) & ((1 << bits) - 1)
            exp = table.quantize(np.array([[a0, a1]]))[0]
            assert (q0, q1) == (exp[0], exp[1])

    def test_qnt_n_latency_is_9_cycles(self, cpu):
        self._setup_table(cpu, 4)
        run_asm(cpu, "pv.qnt.n a0, a1, a2\nebreak", a1=0, a2=0x4000)
        qnt_cycles = cpu.perf.by_class["qnt_n"] * 9
        assert qnt_cycles == 9
        assert cpu.perf.cycles >= 9

    def test_qnt_c_latency_is_5_cycles(self, cpu):
        self._setup_table(cpu, 2)
        run_asm(cpu, "pv.qnt.c a0, a1, a2\nebreak", a1=0, a2=0x4000)
        assert cpu.perf.by_class["qnt_c"] == 1
        assert cpu.perf.cycles >= 5

    def test_second_tree_at_hardwired_stride(self, cpu):
        """Channel i+1's tree must sit exactly one stride after channel i's."""
        table = self._setup_table(cpu, 4)
        act = 1234
        packed = (act & 0xFFFF) | ((act & 0xFFFF) << 16)
        run_asm(cpu, "pv.qnt.n a0, a1, a2\nebreak", a1=packed, a2=0x4000)
        q1_via_pair = (cpu.regs[10] >> 4) & 0xF
        # Quantize against channel 1's tree directly.
        run_asm(cpu, "pv.qnt.n a0, a1, a2\nebreak",
                a1=packed, a2=0x4000 + NIBBLE_TREE_STRIDE)
        q1_direct = cpu.regs[10] & 0xF
        assert q1_via_pair == q1_direct

    def test_walk_matches_searchsorted(self, rng):
        for bits in (4, 2):
            count = (1 << bits) - 1
            thresholds = np.sort(rng.integers(-1000, 1000, count))
            for i in range(1, count):
                if thresholds[i] <= thresholds[i - 1]:
                    thresholds[i] = thresholds[i - 1] + 1
            heap = sorted_to_heap(thresholds)
            memory = {2 * i: int(v) for i, v in enumerate(heap)}
            for act in (-2000, -1, 0, 500, 2000):
                code = walk_threshold_tree(lambda a: memory[a], 0, act, bits)
                assert code == int(np.searchsorted(thresholds, act, side="left"))

    def test_strides(self):
        assert NIBBLE_TREE_STRIDE == 32  # 15 x int16, aligned
        assert CRUMB_TREE_STRIDE == 8    # 3 x int16, aligned
