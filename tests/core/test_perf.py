"""PerfCounters arithmetic: delta/merge/copy edge cases, serialization."""

import json
from collections import Counter

from repro.core.perf import PerfCounters


def _sample(**overrides):
    perf = PerfCounters(cycles=100, instructions=80, stall_load_use=5,
                        stall_branch=3, idle_cycles=10, hwloop_backedges=2)
    perf.by_class.update({"alu": 60, "load": 20})
    for name, value in overrides.items():
        setattr(perf, name, value)
    return perf


def _counters(**kwargs) -> PerfCounters:
    perf = PerfCounters()
    for name, value in kwargs.items():
        setattr(perf, name, value)
    return perf


class TestDeltaSince:
    def test_delta_of_empty_counters_is_empty(self):
        delta = PerfCounters().delta_since(PerfCounters())
        assert delta.cycles == 0
        assert delta.instructions == 0
        assert delta.by_class == Counter()
        assert delta.total_stalls == 0

    def test_delta_against_own_copy_is_zero(self):
        perf = _sample()
        delta = perf.delta_since(perf.copy())
        assert delta.cycles == 0
        assert delta.by_class == Counter()

    def test_delta_tracks_growth(self):
        before = _sample().copy()
        after = _sample(cycles=150, instructions=120)
        after.by_class["alu"] += 30
        delta = after.delta_since(before)
        assert delta.cycles == 50
        assert delta.instructions == 40
        assert delta.by_class == Counter({"alu": 30})

    def test_counter_subtraction_never_goes_negative(self):
        # Counter subtraction drops non-positive entries, so a class that
        # somehow shrank (e.g. counters reset mid-window) reads 0, not -n.
        before = _sample()
        after = PerfCounters(cycles=200)
        delta = after.delta_since(before)
        assert delta.by_class["alu"] == 0
        assert all(v > 0 for v in delta.by_class.values())

    def test_idle_cycles_delta(self):
        before = _sample()
        after = _sample(cycles=130, idle_cycles=25)
        delta = after.delta_since(before)
        assert delta.idle_cycles == 15
        assert delta.active_cycles == 30 - 15


class TestMerge:
    def test_merge_empty_is_identity(self):
        perf = _sample()
        snapshot = perf.snapshot()
        perf.merge(PerfCounters())
        assert perf.snapshot() == snapshot

    def test_merge_into_empty_copies_everything(self):
        merged = PerfCounters().merge(_sample())
        assert merged.cycles == 100
        assert merged.hwloop_backedges == 2

    def test_merge_sums_idle_and_stalls(self):
        a = _sample()
        b = _sample(idle_cycles=40, stall_load_use=1)
        a.merge(b)
        assert a.cycles == 200
        assert a.idle_cycles == 50
        assert a.stall_load_use == 6
        assert a.active_cycles == 200 - 50
        assert a.by_class["alu"] == 120

    def test_merge_returns_self(self):
        a = PerfCounters()
        assert a.merge(_sample()) is a

    def test_sums_every_scalar(self):
        a = _counters(cycles=100, instructions=80, stall_load_use=3,
                      stall_tcdm_contention=5, idle_cycles=10,
                      hwloop_backedges=7)
        b = _counters(cycles=50, instructions=40, stall_load_use=1,
                      stall_tcdm_contention=2, idle_cycles=4,
                      hwloop_backedges=3)
        result = a.merge(b)
        assert result is a  # in place, chainable
        assert a.cycles == 150
        assert a.instructions == 120
        assert a.stall_load_use == 4
        assert a.stall_tcdm_contention == 7
        assert a.idle_cycles == 14
        assert a.hwloop_backedges == 10

    def test_merges_class_counters(self):
        a = PerfCounters()
        a.by_class.update({"alu": 5, "load": 2})
        b = PerfCounters()
        b.by_class.update({"alu": 3, "mul": 1})
        a.merge(b)
        assert a.by_class == {"alu": 8, "load": 2, "mul": 1}

    def test_merge_preserves_other(self):
        a = _counters(cycles=10)
        b = _counters(cycles=7, idle_cycles=2)
        a.merge(b)
        assert b.cycles == 7 and b.idle_cycles == 2

    def test_active_cycles_after_merge(self):
        a = _counters(cycles=100, idle_cycles=20)
        a.merge(_counters(cycles=100, idle_cycles=0))
        assert a.active_cycles == 180

    def test_cluster_aggregate_uses_merge(self):
        total = PerfCounters()
        per_core = [_counters(cycles=100 + i, instructions=50)
                    for i in range(4)]
        for perf in per_core:
            total.merge(perf)
        assert total.cycles == sum(p.cycles for p in per_core)
        assert total.instructions == 200


class TestCopy:
    def test_copy_is_deep_for_counters(self):
        perf = _sample()
        clone = perf.copy()
        clone.by_class["alu"] += 1
        clone.cycles += 5
        assert perf.by_class["alu"] == 60
        assert perf.cycles == 100

    def test_copy_of_empty(self):
        clone = PerfCounters().copy()
        assert clone.cycles == 0
        assert clone.by_class == Counter()
        assert clone.ipc == 0.0

    def test_reset_clears_everything(self):
        perf = _sample()
        perf.reset()
        assert perf.snapshot() == PerfCounters().snapshot()
        assert perf.by_class == Counter()


class TestToDict:
    def test_scalars_and_nested_counters(self):
        perf = _counters(cycles=42, instructions=30,
                         stall_tcdm_contention=4, idle_cycles=6)
        perf.by_class.update({"alu": 20, "load": 10})
        data = perf.to_dict()
        assert data["cycles"] == 42
        assert data["stall_tcdm_contention"] == 4
        assert data["idle_cycles"] == 6
        assert data["by_class"] == {"alu": 20, "load": 10}

    def test_json_serializable(self):
        perf = _counters(cycles=1, instructions=1)
        perf.by_class["alu"] = 1
        round_trip = json.loads(json.dumps(perf.to_dict()))
        assert round_trip["cycles"] == 1
        assert round_trip["by_class"]["alu"] == 1

    def test_from_dict_loads_legacy_payload(self):
        # Cache entries written before per-mnemonic counting was removed
        # still carry an (always empty) "by_mnemonic" map.
        data = _sample().to_dict()
        data["by_mnemonic"] = {}
        assert PerfCounters.from_dict(data).to_dict() == _sample().to_dict()

    def test_covers_every_scalar_field(self):
        data = PerfCounters().to_dict()
        for name in PerfCounters._SCALARS:
            assert name in data
