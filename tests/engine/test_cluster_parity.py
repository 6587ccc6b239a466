"""Cluster parity: the block engine's streams against the interpreter.

Every ``Cluster.run`` of a workload runs once with ``engine="interp"``
(every instruction an event, the reference schedule) and once with
``engine="block"`` (harts run ahead between memory events; store-free
hardware loops become streams), and the two must agree on every
observable: per-core ``PerfCounters``, registers and pc, per-region
counters, TCDM arbitration statistics, DMA statistics, and every byte of
TCDM and L2.  Error paths must raise the same exception with the same
message.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cluster import Cluster
from repro.engine import set_default_mode
from repro.kernels import (
    ParallelConvConfig,
    ParallelConvKernel,
    ParallelMatmulConfig,
    ParallelMatmulKernel,
)
from repro.qnn import ConvGeometry, random_threshold_table
from repro.soc.memmap import EU_BARRIER_WAIT, TCDM_BASE
from repro.trace import RegionCounters

from tests.engine.conftest import region_state

FIXTURES = Path(__file__).parent.parent / "analysis" / "fixtures"


def cluster_state(cluster):
    """Every observable of a cluster after a run."""
    tcdm, dma = cluster.tcdm, cluster.dma
    return {
        "perf": [cpu.perf.snapshot() for cpu in cluster.cores],
        "regs": [list(cpu.regs) for cpu in cluster.cores],
        "pc": [cpu.pc for cpu in cluster.cores],
        "halted": [cpu.halted for cpu in cluster.cores],
        "regions": [region_state(cpu.region_counters)
                    for cpu in cluster.cores],
        "tcdm": (tcdm.accesses, tcdm.conflicts, tcdm.conflict_cycles,
                 list(tcdm.conflicts_by_bank)),
        "dma": (dma.total_cycles, dma.bytes_moved, dma.busy_until,
                [(t.start, t.done) for t in dma.transfers]),
        "tcdm_bytes": bytes(tcdm.mem._data),
        "l2_bytes": bytes(cluster.l2._data),
    }


def record(monkeypatch, mode, workload):
    """Run *workload* with every cluster in *mode*; returns one state per
    ``Cluster.run`` call (or its exception) plus the engine details."""
    set_default_mode(mode)
    states, details = [], []
    real = Cluster.run

    def run(self, *args, **kwargs):
        for cpu in self.cores:
            if cpu.region_counters is None:
                cpu.region_counters = RegionCounters()
        try:
            result = real(self, *args, **kwargs)
        except Exception as exc:                  # noqa: BLE001 - compared
            states.append((type(exc).__name__, str(exc)))
            raise
        states.append(cluster_state(self))
        details.append(result.detail)
        return result

    monkeypatch.setattr(Cluster, "run", run)
    try:
        workload()
    except Exception:
        if not (states and isinstance(states[-1], tuple)):
            raise            # not an error of a cluster run
    finally:
        monkeypatch.setattr(Cluster, "run", real)
        set_default_mode(None)
    return states, details


def assert_parity(monkeypatch, workload):
    """Both engines agree on every run; returns the block details."""
    interp, _ = record(monkeypatch, "interp", workload)
    block, details = record(monkeypatch, "block", workload)
    assert interp, "the workload ran no cluster"
    assert len(interp) == len(block)
    for i, (want, got) in enumerate(zip(interp, block)):
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert want == got, f"run {i}: interp={want} block={got}"
            continue
        for key in want:
            assert want[key] == got[key], (
                f"run {i}: engines diverged on {key}")
    return details


# ---------------------------------------------------------------------------
# Kernels and networks
# ---------------------------------------------------------------------------

K, CO = 128, 32
GEOM = ConvGeometry(in_h=8, in_w=8, in_ch=16, out_ch=8, kh=3, kw=3,
                    stride=1, pad=1)
BITS = [(8, "shift"), (4, "hw"), (2, "hw")]
CORES = [1, 2, 4, 8]


def _rand(rng, bits, shape, signed):
    lo, hi = (-(1 << (bits - 1)), 1 << (bits - 1)) if signed \
        else (0, 1 << bits)
    return rng.integers(lo, hi, shape).astype(np.int32)


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("bits,quant", BITS)
def test_parallel_matmul_parity(monkeypatch, bits, quant, cores):
    rng = np.random.default_rng(bits * 10 + cores)
    w = _rand(rng, bits, (CO, K), True)
    x0, x1 = _rand(rng, bits, K, False), _rand(rng, bits, K, False)
    table = (random_threshold_table(CO, bits, spread=300, rng=rng)
             if bits != 8 else None)
    kernel = ParallelMatmulKernel(ParallelMatmulConfig(
        reduction=K, out_ch=CO, bits=bits, num_cores=cores, quant=quant))

    details = assert_parity(monkeypatch, lambda: kernel.run(
        w, x0, x1, thresholds=table, shift=8))
    assert details[0]["stream_dispatches"] > 0


@pytest.mark.parametrize("cores", CORES)
@pytest.mark.parametrize("bits,quant", BITS)
def test_parallel_conv_parity(monkeypatch, bits, quant, cores):
    rng = np.random.default_rng(bits * 100 + cores)
    g = GEOM
    w = _rand(rng, bits, (g.out_ch, g.kh, g.kw, g.in_ch), True)
    x = _rand(rng, bits, (g.in_h, g.in_w, g.in_ch), False)
    table = (random_threshold_table(g.out_ch, bits, spread=300, rng=rng)
             if bits != 8 else None)
    kernel = ParallelConvKernel(ParallelConvConfig(
        geometry=g, bits=bits, isa="xpulpnn", quant=quant, num_cores=cores))

    details = assert_parity(monkeypatch, lambda: kernel.run(
        w, x, thresholds=table, shift=8))
    assert details[0]["stream_dispatches"] > 0


@pytest.mark.parametrize("name", ["mixed3", "paper"])
def test_catalog_network_parity(monkeypatch, name):
    from repro.compiler import NetworkCompiler, PlanExecutor, build_network

    built = build_network(name)
    compiled = NetworkCompiler(
        built.network, built.input_shape, input_bits=built.input_bits,
        num_cores=8, tcdm_budget=built.tcdm_budget).compile()

    def execute():
        assert PlanExecutor(compiled).run(built.input).verified

    details = assert_parity(monkeypatch, execute)
    steps = sum(d["interp_steps"] for d in details)
    streamed = sum(d["stream_instructions"] for d in details)
    assert steps < 0.2 * (steps + streamed)


# ---------------------------------------------------------------------------
# Hand-written programs
# ---------------------------------------------------------------------------

def _program(source):
    return assemble(source, isa="xpulpnn", base=TCDM_BASE)


def _run_source(source, cores, *, trace=False, max_instructions=None,
                setup=None):
    def workload():
        cluster = Cluster(num_cores=cores)
        if trace:
            cluster.enable_access_trace()
        program = _program(source)
        cluster.reset()
        if setup is not None:
            setup(cluster)
        cluster.load_program(program)
        kwargs = {} if max_instructions is None else {
            "max_instructions": max_instructions}
        cluster.run(entry=program.entry, **kwargs)
    return workload


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("cores", [2, 8])
@pytest.mark.parametrize("fixture", ["missing_barrier.s", "with_barrier.s"])
def test_race_fixture_parity(monkeypatch, fixture, cores, trace):
    source = (FIXTURES / fixture).read_text()
    assert_parity(monkeypatch, _run_source(source, cores, trace=trace))


def test_deadlock_same_error(monkeypatch):
    source = f"""
        csrr t0, 0xF14
        beqz t0, done
        li   t1, {EU_BARRIER_WAIT:#x}
        lw   t2, 0(t1)
    done:
        ebreak
    """
    interp, _ = record(monkeypatch, "interp", _run_source(source, 4))
    assert interp[-1][0] == "SimError" and "deadlock" in interp[-1][1]
    assert_parity(monkeypatch, _run_source(source, 4))


def test_budget_same_error_mid_stream(monkeypatch):
    """The budget runs out while streams are in flight."""
    source = f"""
        li   a0, {TCDM_BASE + 0x1000:#x}
    again:
        mv   a1, a0
        li   t3, 40
        lp.setup 0, t3, end0
        p.lw t1, 4(a1!)
        pv.sdotusp.b s2, t1, t1
    end0:
        j    again
    """
    interp, _ = record(monkeypatch, "interp",
                       _run_source(source, 4, max_instructions=1000))
    assert interp[-1][0] == "SimError" and "exceeded" in interp[-1][1]
    assert_parity(monkeypatch, _run_source(source, 4,
                                           max_instructions=1000))


def test_traced_run_declines_streams(monkeypatch):
    source = f"""
        li   a0, {TCDM_BASE + 0x1000:#x}
        lp.setupi 0, 16, end0
        p.lw t1, 4(a0!)
        pv.sdotusp.b s2, t1, t1
    end0:
        ebreak
    """
    details = assert_parity(monkeypatch,
                            _run_source(source, 2, trace=True))
    assert details[0]["stream_dispatches"] == 0
    # Each hart retries at every iteration with at least two to go.
    assert details[0]["side_exits"]["stream-traced"] == 2 * 15


@pytest.mark.parametrize("pad", range(5))
def test_entry_stall_on_first_load(monkeypatch, pad):
    """Hart 0 falls into the loop straight from a load of the first
    body load's base register: that load-use stall comes after the
    first load's access, which hart 1 (arriving by a jump) contends
    with."""
    nops = "\n".join(["nop"] * pad)
    source = f"""
        csrr t0, 0xF14
        li   a0, {TCDM_BASE + 0x1000:#x}
        li   sp, {TCDM_BASE + 0x0F00:#x}
        sw   a0, 0(sp)
        lp.starti 0, body
        lp.endi 0, end
        lp.counti 0, 8
        bnez t0, other
        {nops}
        lw   a0, 0(sp)
    body:
        p.lw t1, 4(a0!)
        pv.sdotusp.b s2, t1, t1
    end:
        ebreak
    other:
        j    body
    """
    details = assert_parity(monkeypatch, _run_source(source, 2))
    assert details[0]["stream_dispatches"] == 2


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("loads,start", [
    ("p.lb t1, 1(a0!)\n p.lbu t2, 3(a1!)", 0x1001),
    ("p.lh t1, 2(a0!)\n p.lhu t2, 2(a1!)", 0x1002),
    ("lw t1, 8(a2)\n p.lh t2, 6(a1!)", 0x1000),
])
def test_subword_and_invariant_loads(monkeypatch, loads, start, level):
    """Byte and halfword loads at odd word offsets, sign-extended or not,
    and a load from an invariant base, on both loop levels."""
    source = f"""
        csrr t0, 0xF14
        slli t0, t0, 3
        li   a0, {TCDM_BASE + start:#x}
        add  a0, a0, t0
        li   a1, {TCDM_BASE + 0x1102:#x}
        li   a2, {TCDM_BASE + 0x1200:#x}
        lp.setupi {level}, 20, end
        {loads}
        p.mac s2, t1, t2
        p.mac s3, t2, t2
    end:
        ebreak
    """
    data = np.random.default_rng(7).integers(
        0, 256, 0x400, dtype=np.uint8).tobytes()
    details = assert_parity(monkeypatch, _run_source(
        source, 4,
        setup=lambda cluster: cluster.mem.write_bytes(TCDM_BASE + 0x1000,
                                                      data)))
    assert details[0]["stream_dispatches"] == 4


def test_out_of_order_access_refused():
    """A port access keyed before the last granted event is a scheduler
    bug: the port raises instead of arbitrating it."""
    from repro.errors import SimError

    cluster = Cluster(num_cores=2)
    cluster.load_program(_program(
        f"li t0, {TCDM_BASE + 0x1000:#x}\nlw t1, 0(t0)\nebreak"))
    first, second = cluster.cores
    first.perf.cycles = 10
    first.step()
    first.step()                  # its lw, granted at cycle 10
    second.step()                 # li: core-local, not an event
    with pytest.raises(SimError, match="out of event order"):
        second.step()             # its lw at cycle 1


# ---------------------------------------------------------------------------
# Property: streams see a concurrent store exactly when the interpreter does
# ---------------------------------------------------------------------------

XBASE = TCDM_BASE + 0x1000
WBASE = TCDM_BASE + 0x1800
OFFSETS = TCDM_BASE + 0x0F00


def _stream_program(trips, storer, delay, target, value):
    return f"""
        csrr  t0, 0xF14
        slli  t1, t0, 2
        li    t2, {OFFSETS:#x}
        add   t2, t2, t1
        lw    t3, 0(t2)
        li    a0, {XBASE:#x}
        add   a0, a0, t3
        li    a1, {WBASE:#x}
        li    t4, {storer}
        bne   t0, t4, compute
        li    t5, {delay}
        lp.setup 1, t5, delay_end
        addi  t6, t6, 1
    delay_end:
        li    t6, {value:#x}
        li    a2, {target:#x}
        sw    t6, 0(a2)
    compute:
        li    t4, {trips}
        lp.setup 0, t4, body_end
        p.lw  t5, 4(a0!)
        p.lw  t6, 4(a1!)
        pv.sdotusp.b s2, t5, t6
    body_end:
        lw    s3, 0(a0)
        ebreak
    """


@st.composite
def stream_cases(draw):
    cores = draw(st.sampled_from([2, 4, 8]))
    trips = draw(st.integers(2, 36))
    offsets = draw(st.lists(st.integers(0, 40), min_size=cores,
                            max_size=cores))
    storer = draw(st.integers(0, cores - 1))
    victim = draw(st.integers(0, cores - 1).filter(lambda v: v != storer))
    word = draw(st.integers(0, trips))
    delay = draw(st.integers(2, 3 * trips))
    value = draw(st.integers(0, 0xFFFFFFFF))
    seed = draw(st.integers(0, 2**16))
    target = XBASE + 4 * offsets[victim] + 4 * word
    return cores, trips, offsets, storer, delay, target, value, seed


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=stream_cases())
def test_concurrent_store_into_stream_parity(monkeypatch, case):
    cores, trips, offsets, storer, delay, target, value, seed = case
    data = np.random.default_rng(seed).integers(
        0, 256, 0x1000, dtype=np.uint8).tobytes()

    def setup(cluster):
        cluster.mem.write_bytes(XBASE, data)
        cluster.mem.write_words(OFFSETS, [4 * o for o in offsets])

    source = _stream_program(trips, storer, delay, target, value)
    details = assert_parity(monkeypatch,
                            _run_source(source, cores, setup=setup))
    assert details[0]["stream_dispatches"] >= cores - 1
