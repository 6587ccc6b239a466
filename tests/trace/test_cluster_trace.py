"""Tracing multi-core cluster runs: barriers, DMA and region spans."""

from repro.asm import assemble
from repro.cluster import Cluster
from repro.soc.memmap import EU_BARRIER_WAIT, TCDM_BASE
from repro.trace import EventTracer, MetricsTracer, chrome_trace, validate_chrome_trace

BARRIER_PROG = f"""
.region work
    csrr t0, 0xF14
    slli t1, t0, 2
    li   t2, {TCDM_BASE + 0x400:#x}
    add  t2, t2, t1
    addi t3, t0, 1
loop:
    addi t3, t3, -1
    bnez t3, loop
    sw   t0, 0(t2)
.endregion
.region sync
    li   t4, {EU_BARRIER_WAIT:#x}
    lw   t5, 0(t4)
.endregion
    ebreak
"""


def _traced_run(tracer, cores=4):
    program = assemble(BARRIER_PROG, isa="xpulpnn", base=TCDM_BASE)
    cluster = Cluster(num_cores=cores, isa="xpulpnn")
    cluster.attach_tracer(tracer)
    run = cluster.run_program(program)
    return cluster, run


class TestClusterEventTrace:
    def test_every_core_present(self):
        tracer = EventTracer()
        _, run = _traced_run(tracer, cores=4)
        assert tracer.cores == [0, 1, 2, 3]
        assert set(tracer.end_cycles) == {0, 1, 2, 3}

    def test_barrier_spans_cover_the_skew(self):
        # Core N spins N+1 times, so earlier cores park longer at the
        # barrier; the last arrival parks (almost) not at all.
        tracer = EventTracer()
        _, run = _traced_run(tracer, cores=4)
        assert len(tracer.barriers) == 4
        parked = {b.core: b.parked for b in tracer.barriers}
        assert parked[0] > parked[3]
        assert all(b.release >= b.arrive for b in tracer.barriers)

    def test_region_spans_close_at_barrier_arrival(self):
        tracer = EventTracer()
        _traced_run(tracer, cores=2)
        for barrier in tracer.barriers:
            spans = tracer.spans_for(barrier.core)
            assert all(s.end <= barrier.arrive or s.start >= barrier.release
                       for s in spans)

    def test_dma_transfers_traced(self):
        tracer = EventTracer()
        cluster, _ = _traced_run(tracer, cores=2)
        cluster.dma.transfer(0x1C000000, TCDM_BASE + 0x800, 128)
        (dma,) = tracer.dma_events
        assert dma.bytes == 128
        assert dma.end > dma.start

    def test_export_validates(self):
        tracer = EventTracer()
        _traced_run(tracer, cores=4)
        payload = chrome_trace(tracer, title="cluster")
        assert validate_chrome_trace(payload) > 0
        barrier_lanes = {e["tid"] for e in payload["traceEvents"]
                        if e.get("cat") == "barrier"}
        assert len(barrier_lanes) == 4

    def test_timing_unchanged_by_tracer(self):
        program = assemble(BARRIER_PROG, isa="xpulpnn", base=TCDM_BASE)
        bare = Cluster(num_cores=4, isa="xpulpnn").run_program(program)
        traced_cluster = Cluster(num_cores=4, isa="xpulpnn")
        traced_cluster.attach_tracer(EventTracer())
        traced = traced_cluster.run_program(program)
        assert traced.cycles == bare.cycles
        assert traced.aggregate.instructions == bare.aggregate.instructions


class TestClusterMetrics:
    def test_barrier_region_accumulates_parked_time(self):
        tracer = MetricsTracer()
        _, run = _traced_run(tracer, cores=4)
        reg = tracer.registry
        assert "barrier" in reg
        assert reg["barrier"].idle_cycles == run.aggregate.idle_cycles

    def test_totals_match_aggregate(self):
        tracer = MetricsTracer()
        _, run = _traced_run(tracer, cores=4)
        total = tracer.registry.total()
        agg = run.aggregate
        assert total.cycles == agg.cycles
        assert total.instructions == agg.instructions
