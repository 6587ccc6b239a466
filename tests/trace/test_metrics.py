"""Per-region metrics: registry accounting and conservation laws."""

from repro.asm import assemble
from repro.core import Cpu
from repro.trace import MetricsTracer, RegionCounters

SOURCE = """
.region fill
    li   a1, 0x200
    li   t0, 8
fill:
    sw   t0, 0(a1)
    addi a1, a1, 4
    addi t0, t0, -1
    bnez t0, fill
.endregion
.region drain
    li   a1, 0x200
    lw   a2, 0(a1)
    addi a2, a2, 0
.endregion
    ebreak
"""


def _run(tracer=None, **tracer_kw):
    program = assemble(SOURCE, isa="xpulpnn")
    if tracer is None:
        tracer = MetricsTracer(program=program, **tracer_kw)
    cpu = Cpu(isa="xpulpnn")
    cpu.tracer = tracer
    cpu.load_program(program)
    return cpu.run(), tracer


class TestMetricsTracer:
    def test_regions_sum_to_core_counters(self):
        perf, tracer = _run()
        total = tracer.registry.total()
        assert total.cycles == perf.cycles
        assert total.instructions == perf.instructions
        assert total.total_stalls == perf.total_stalls
        assert total.by_class == perf.by_class

    def test_attribution_lands_in_the_marked_region(self):
        _, tracer = _run()
        reg = tracer.registry
        assert "fill" in reg and "drain" in reg
        assert reg["fill"].by_class["store"] == 8
        assert reg["drain"].by_class["load"] == 1
        # The load-use hazard (lw feeding the addi) lands in drain.
        assert reg["drain"].stall_load_use > 0

    def test_unmarked_instructions_use_default_region(self):
        _, tracer = _run(default_region="epilogue")
        assert "epilogue" in tracer.registry
        assert tracer.registry["epilogue"].by_class["system"] == 1


class TestMetricsRegistry:
    """RegionCounters, the registry behind ``MetricsTracer.registry``."""

    def test_share_and_rows_ordering(self):
        reg = RegionCounters()
        reg.counters_for("hot").cycles = 90
        reg.counters_for("cold").cycles = 10
        assert reg.share("hot") == 0.9
        assert reg.share("missing") == 0.0
        assert [name for name, _, _ in reg.rows()] == ["hot", "cold"]

    def test_empty_registry(self):
        reg = RegionCounters()
        assert reg.regions == []
        assert reg.total().cycles == 0
        assert reg.share("anything") == 0.0
        assert reg.to_dict() == {}

    def test_to_dict_shape(self):
        _, tracer = _run()
        payload = tracer.registry.to_dict()
        fill = payload["fill"]
        assert set(fill) == {"cycles", "share", "instructions", "ipc",
                             "stalls", "idle_cycles"}
        assert set(fill["stalls"]) == {"load_use", "branch", "jump",
                                       "misaligned", "tcdm"}
        assert abs(sum(r["share"] for r in payload.values()) - 1.0) < 1e-9

    def test_render_has_total_row(self):
        _, tracer = _run()
        text = tracer.registry.render()
        assert "TOTAL" in text
        assert "100.0%" in text
        assert "fill" in text
