"""Deterministic engine-parity cases and the kernel-level contract.

The hypothesis suite (test_engine_property) sweeps random programs; this
file pins the named edge cases from the fusion legality rules — shared
loop ends, zero-trip loops, redirect priority — and proves the contract
on real workloads: every tiny-geometry conv configuration and the
benchmark-geometry catalog kernels retire bit- and cycle-identically
under both engines.
"""

import pytest

from repro.core import Cpu
from repro.engine import set_default_mode
from repro.engine.blocks import GLOBAL_CACHE
from repro.soc.memory import Memory

from tests.conftest import TINY_GEOMETRY
from tests.engine.conftest import run_both, state_of


class TestLoopEdgeCases:
    def test_zero_trip_loop(self):
        run_both("""
            lp.setupi 0, 0, end0
            addi a0, a0, 1
        end0:
            addi a1, a1, 1
            ebreak
        """)

    def test_single_instruction_body(self):
        run_both("""
            lp.setupi 0, 9, end0
        end0:
            addi a0, a0, 2
            ebreak
        """)

    def test_shared_end_l0_priority(self):
        """Both loops end on the same instruction: L0's redirect fires
        first, and L0's final decrement shadows L1's for that visit."""
        run_both("""
            lp.setupi 1, 3, shared
            lp.setupi 0, 4, shared
        shared:
            addi a0, a0, 1
            ebreak
        """)

    def test_l1_only_loop(self):
        run_both("""
            lp.setupi 1, 6, end1
            addi a0, a0, 3
        end1:
            addi a1, a1, 1
            ebreak
        """)

    def test_loop_body_with_branch(self):
        """A branch inside the body splits it across blocks — the fuser
        declines (loop-shape) and the fast-block/interpreter tiers carry
        the iterations."""
        interp, block = run_both("""
            addi a2, zero, 0
            lp.setupi 0, 8, end0
            andi a3, a2, 1
            beq a3, zero, even
            addi a0, a0, 1
        even:
            addi a2, a2, 1
        end0:
            addi a1, a1, 1
            ebreak
        """)
        assert block.engine_stats is not None

    def test_runaway_guard_identical_error(self):
        """Mid-loop budget exhaustion raises the same SimError text."""
        run_both("""
        loop:
            addi a0, a0, 1
            j loop
        """, max_instructions=50)


class TestEligibility:
    def test_tracer_forces_interpreter(self):
        from repro.asm import assemble
        from repro.trace import EventTracer

        program = assemble("addi a0, a0, 1\nebreak", isa="xpulpnn")
        cpu = Cpu(isa="xpulpnn", engine="block")
        cpu.tracer = EventTracer(program=program)
        cpu.run_program(program)
        assert cpu.engine_stats is None

    def test_metrics_tracer_keeps_engine(self):
        """Region counting is charged by the core, so a MetricsTracer
        dispatches exactly as an untraced run does."""
        from repro.trace import MetricsTracer

        stats = []
        for tracer in (None, MetricsTracer()):
            GLOBAL_CACHE.clear()
            cpu = Cpu(isa="xpulpnn", engine="block")
            cpu.tracer = tracer
            _run_tiny_conv(cpu, 4, "xpulpnn", "hw")
            stats.append(cpu.engine_stats)
        assert stats[1] is not None
        assert stats[1]["fused_instructions"] > 0
        assert stats[0] == stats[1]

    def test_contended_memory_forces_interpreter(self):
        """Any Memory subclass (the cluster's contention-modelled TCDM)
        keeps the interpreter: fused execution can't replay per-access
        arbitration."""
        from repro.asm import assemble

        class PortedMemory(Memory):
            pass

        cpu = Cpu(isa="xpulpnn", engine="block")
        cpu.mem = PortedMemory(size=cpu.mem.size)
        cpu.run_program(assemble("addi a0, a0, 1\nebreak", isa="xpulpnn"))
        assert cpu.engine_stats is None

    def test_interp_mode_never_builds_engine(self):
        from repro.asm import assemble

        cpu = Cpu(isa="xpulpnn")
        cpu.run_program(assemble("ebreak", isa="xpulpnn"))
        assert cpu.engine == "interp"
        assert cpu.engine_stats is None


def _run_tiny_conv(cpu, bits, isa, quant):
    """One tiny-geometry conv layer (quant cycles profiled) on *cpu*."""
    import numpy as np

    from repro.kernels import ConvConfig, ConvKernel
    from repro.qnn import (
        conv2d_golden,
        random_activations,
        random_weights,
        thresholds_from_accumulators,
    )
    from repro.soc import L2_SIZE

    g = TINY_GEOMETRY
    rng = np.random.default_rng(0xB10C)
    w = random_weights((g.out_ch, g.kh, g.kw, g.in_ch), bits, rng)
    x = random_activations((g.in_h, g.in_w, g.in_ch), bits, rng)
    kernel = ConvKernel(ConvConfig(geometry=g, bits=bits, isa=isa,
                                   quant=quant))
    cpu.mem = Memory(max(kernel.layout.end + 4096, L2_SIZE))
    if quant == "shift":
        return kernel.run(w, x, shift=7, cpu=cpu, profile_quant=True)
    acc = conv2d_golden(x, w, stride=g.stride, pad=g.pad)
    return kernel.run(w, x, thresholds=thresholds_from_accumulators(acc, bits),
                      cpu=cpu, profile_quant=True)


def _conv_states(bits, isa, quant):
    states = []
    for mode in ("interp", "block"):
        cpu = Cpu(isa=isa, engine=mode)
        out = _run_tiny_conv(cpu, bits, isa, quant)
        states.append((out.output.tolist(), out.detail, state_of(cpu),
                       cpu.engine_stats))
    return states


@pytest.mark.parametrize("bits,isa,quant", [
    (8, "ri5cy", "shift"),
    (8, "xpulpnn", "shift"),
    (4, "xpulpnn", "hw"),
    (4, "xpulpnn", "sw"),
    (4, "ri5cy", "sw"),
    (2, "xpulpnn", "hw"),
    (2, "xpulpnn", "sw"),
    (2, "ri5cy", "sw"),
])
def test_conv_kernel_parity(bits, isa, quant):
    interp, block = _conv_states(bits, isa, quant)
    assert interp[0] == block[0], "kernel output diverged"
    assert interp[1]["quant_cycles"] > 0
    assert interp[1] == block[1], "quant cycles diverged"
    for key in interp[2]:
        assert interp[2][key] == block[2][key], f"diverged on {key}"
    if isa == "ri5cy" and bits < 8:
        # Both unpack loop families fuse: as many fused dispatches as
        # the XpulpNN kernel's loops, and none of the exits they took
        # before their unpack ops had batch forms.
        stats = block[3]
        assert not {"unsupported-op", "mem-alias"} & set(stats["side_exits"])
        native = Cpu(isa="xpulpnn", engine="block")
        _run_tiny_conv(native, bits, "xpulpnn", "sw")
        assert stats["fused_dispatches"] == \
            native.engine_stats["fused_dispatches"] > 0


@pytest.mark.parametrize("bits", [4, 2])
@pytest.mark.parametrize("style", ["extract", "shuffle"])
def test_matmul_unpack_style_parity(style, bits):
    """The unpack-style ablation's baseline MatMul kernels
    (EXPERIMENTS.md) fuse and retire identically under both engines."""
    import numpy as np

    from repro.kernels import MatmulConfig, MatmulKernel

    rng = np.random.default_rng(3)
    w = rng.integers(-(1 << (bits - 1)), 1 << (bits - 1), (8, 96))
    x0, x1 = rng.integers(0, 1 << bits, (2, 96))
    states = []
    for mode in ("interp", "block"):
        kernel = MatmulKernel(MatmulConfig(
            reduction=96, out_ch=8, bits=bits, isa="ri5cy", quant="none",
            unpack_style=style))
        cpu = Cpu(isa="ri5cy", engine=mode)
        run = kernel.run(w, x0, x1, cpu=cpu)
        states.append((run.output.tolist(), state_of(cpu)))
    assert states[0] == states[1]
    assert cpu.engine_stats["fused_dispatches"] > 0


@pytest.mark.parametrize("kernel", ["conv_4bit", "matmul_4bit"])
def test_profile_kernel_parity(kernel, monkeypatch):
    """The profiler's full region/stall breakdown is engine-invariant,
    and under the block engine the profiled core really runs it.

    CI repeats this over the whole catalog (the engine-parity job);
    tier-1 pins one conv and one matmul.
    """
    from repro.trace.profile import profile_kernel

    cores = []
    real_run = Cpu.run

    def recording_run(self, *args, **kwargs):
        cores.append(self)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Cpu, "run", recording_run)
    results = {}
    for mode in ("interp", "block"):
        set_default_mode(mode)
        results[mode] = profile_kernel(kernel).to_dict()
    set_default_mode(None)
    assert results["interp"] == results["block"]
    stats = cores[-1].engine_stats
    assert stats is not None, "the profiled kernel fell back to interp"
    if kernel == "conv_4bit":
        assert stats["fused_instructions"] > 0


def test_cluster_profile_kernel_parity(monkeypatch):
    """The 8-core profile is engine-invariant, and a region-counting
    tracer leaves the cluster's hwloop streams on under the block engine."""
    from repro.cluster import Cluster
    from repro.trace.profile import profile_kernel

    runs = []
    real_run = Cluster.run

    def recording_run(self, *args, **kwargs):
        result = real_run(self, *args, **kwargs)
        runs.append(result)
        return result

    monkeypatch.setattr(Cluster, "run", recording_run)
    results = {}
    for mode in ("interp", "block"):
        set_default_mode(mode)
        results[mode] = profile_kernel("matmul_4bit", cores=8).to_dict()
    set_default_mode(None)
    assert results["interp"] == results["block"]
    assert runs[-1].detail["stream_dispatches"] > 0


def test_region_attribution_parity():
    """Region counters survive fused execution: the fused loop body and
    the code around it land in their regions exactly as interpreted."""
    from repro.asm import assemble
    from repro.trace import RegionCounters

    source = """
        addi s0, zero, 0x40
        lp.setupi 0, 12, end0
    .region body
        p.lw a0, 4(s0!)
        pv.sdotsp.b a1, a0, a0
    .endregion
    end0:
        addi a2, a2, 1
        ebreak
    """
    states = []
    for mode in ("interp", "block"):
        program = assemble(source, isa="xpulpnn")
        cpu = Cpu(isa="xpulpnn", engine=mode)
        cpu.region_counters = RegionCounters()
        cpu.run_program(program)
        states.append(state_of(cpu))
    assert states[1]["regions"][0][0] == "other"
    assert dict(states[1]["regions"])["body"]["instructions"] == 24
    assert cpu.engine_stats["fused_instructions"] == 24
    assert states[0] == states[1]


def _fused_stats(source, **regs):
    """Run *source* under both engines (asserting parity); the block
    engine's dispatch statistics."""
    _, block = run_both(source, isa="xpulpnn", regs=regs or None)
    return block.engine_stats


class TestUnpackFusion:
    """The legality rules for the RI5CY unpack ops, one edge each."""

    CHAIN = """
        lp.setupi 0, 6, end0
        p.lw a0, 4(s0!)
        {chain}
    end0:
        pv.sdotsp.b a2, a1, a1
        ebreak
    """

    def _chain(self, lanes):
        return "\n".join(
            f"p.extract a3, a0, {4 * lane}, 4\npv.insert.b a1, a3, {lane}"
            for lane in lanes)

    def test_covering_insert_chain_fuses(self):
        stats = _fused_stats(self.CHAIN.format(chain=self._chain(
            [2, 0, 3, 1])), s0=0x8000)
        assert stats["fused_dispatches"] == 1 and not stats["side_exits"]

    def test_partial_insert_chain_declines(self):
        stats = _fused_stats(self.CHAIN.format(chain=self._chain(
            [0, 1, 3])), s0=0x8000)
        assert stats["side_exits"] == {"reg-pattern": 1}

    def test_read_before_coverage_declines(self):
        chain = self._chain([0, 1]) + "\nadd a4, a1, a4\n" \
            + self._chain([2, 3])
        stats = _fused_stats(self.CHAIN.format(chain=chain), s0=0x8000)
        assert stats["side_exits"] == {"reg-pattern": 1}

    @pytest.mark.parametrize("written_first", [True, False])
    def test_shuffle2_old_rd(self, written_first):
        body = "addi a1, a4, 0\n" if written_first else ""
        stats = _fused_stats(f"""
            lp.setupi 0, 5, end0
            pv.srl.sci.b a4, a0, 4
            {body}pv.shuffle2.b a1, a4, a5
        end0:
            addi a0, a0, 1
            ebreak
        """, a0=0x12345678, a5=0x05010400)
        if written_first:
            assert stats["fused_dispatches"] == 1
        else:
            assert stats["side_exits"] == {"reg-pattern": 1}

    @pytest.mark.parametrize("first,reason", [
        (4, None), (2, "mem-alias"), (6, "mem-alias")])
    def test_same_stride_stores(self, first, reason):
        """Two word stores on one pointer, stride 8: interleaved at
        phase 4 they never touch; at phase 2 or 6 they overlap."""
        stats = _fused_stats(f"""
            lp.setupi 0, 6, end0
            p.sw a0, {first}(s0!)
            p.sw a1, {8 - first}(s0!)
        end0:
            addi a0, a0, 1
            ebreak
        """, s0=0x8000, a0=0x11111111, a1=0x22222222)
        if reason is None:
            assert stats["fused_dispatches"] == 1
        else:
            assert stats["side_exits"] == {reason: 1}
