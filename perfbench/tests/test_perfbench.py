"""Tests of the benchmark's own logic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import fingerprint  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _span(spans_list, name, start, end, parent=None, op=None, **attrs):
    s = spans.Span(len(spans_list), name, start, end, parent, op, attrs)
    spans_list.append(s)
    return s


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    ss = []
    root = _span(ss, "bench.wall", 0.0, 10.0)
    child = _span(ss, "compiler.execute", 1.0, 9.0, root.id)
    _span(ss, "cluster.run", 2.0, 5.0, child.id)
    _span(ss, "cluster.run", 6.0, 8.0, child.id)
    selfs = spans.self_times(ss)
    assert selfs == pytest.approx({0: 2.0, 1: 3.0, 2: 3.0, 3: 2.0})


def test_self_time_counts_overlapping_children_once():
    ss = []
    root = _span(ss, "serve.run", 0.0, 10.0)
    _span(ss, "serve.cache_get", 1.0, 4.0, root.id)
    _span(ss, "serve.cache_get", 3.0, 6.0, root.id)      # overlaps the first
    _span(ss, "serve.cache_put", 5.0, 12.0, root.id)     # runs past the parent
    assert spans.self_times(ss)[root.id] == pytest.approx(1.0)


def test_accounting_rows_sum_to_the_root():
    ss = []
    root = _span(ss, "bench.wall", 0.0, 10.0)
    run = _span(ss, "kernels.run", 1.0, 9.0, root.id)
    _span(ss, "core.run", 2.0, 8.0, run.id, instructions=10,
          traced=False, engine={"block_instructions": 0})
    rows = dict(spans.accounting(ss, root))
    assert rows["core"] == pytest.approx(6.0)
    assert rows["kernels"] == pytest.approx(2.0)
    assert rows["residual"] == pytest.approx(2.0)
    assert sum(rows.values()) == pytest.approx(root.duration)


def test_spans_written_out_load_back_renumbered(tmp_path):
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    with rec.span("bench.wall"):
        with rec.span("core.run", instructions=3):
            pass
    path = tmp_path / "spans.json"
    import json

    path.write_text(json.dumps(rec.to_json()))
    loaded = spans.load(path, first_id=10)
    assert [(s.id, s.parent) for s in loaded] == [(10, None), (11, 10)]
    assert loaded[1].attrs == {"instructions": 3}
    assert spans.self_times(loaded) == {10: 2.0, 11: 1.0}


# -- ratios with a zero base ---------------------------------------------------

def test_ratio_with_zero_base_is_zero():
    assert spans.ratio(5.0, 0) == 0.0
    assert spans.ratio(0.0, 0.0) == 0.0
    assert spans.ratio(3.0, 4.0) == 0.75


def test_idle_layers_report_zero_not_an_error():
    ss = []
    _span(ss, "bench.wall", 0.0, 1.0)
    metrics = spans.layer_metrics(ss)
    assert metrics["cluster.sim_ips"] == 0.0
    assert metrics["engine.interp_share"] == 0.0
    assert metrics["serve.cache_hit_ratio"] == 0.0
    assert metrics["explore.prune_ratio"] == 0.0
    assert metrics["trace.overhead_x"] == 0.0
    assert metrics["serve.job_p50_s"] == 0.0


def test_interp_share_counts_cluster_harts_as_interpreted():
    ss = []
    root = _span(ss, "bench.wall", 0.0, 4.0)
    _span(ss, "core.run", 0.0, 1.0, root.id, instructions=100, traced=False,
          engine={"block_instructions": 90, "interp_steps": 10,
                  "side_exits": {"unsupported-op": 2}})
    _span(ss, "cluster.run", 1.0, 3.0, root.id, instructions=100,
          traced=False)
    metrics = spans.layer_metrics(ss)
    assert metrics["engine.interp_share"] == pytest.approx(110 / 200)
    assert metrics["engine.side_exits"] == 2


# -- fingerprint ---------------------------------------------------------------

def _op(op_id, observed, seeded=True):
    return wl.Op(op_id, observed=dict(observed), seeded=seeded)


def test_perturbed_fingerprint_entry_fails_the_operation():
    reference = copy.deepcopy(fingerprint.load())
    key = "conv-suite/4b-xpulpnn-hw"
    observed = dict(reference["ops"][key])
    reference["ops"][key]["cycles"] += 1
    op = _op(key, observed)
    fingerprint.check(op, reference, wl.DEFAULT_SEED)
    assert not op.ok
    assert "fingerprint drift" in op.error and "cycles" in op.error


def test_missing_fingerprint_entry_fails_the_operation():
    reference = copy.deepcopy(fingerprint.load())
    del reference["ops"]["network/paper"]
    op = _op("network/paper", {"cycles": 1})
    fingerprint.check(op, reference, wl.DEFAULT_SEED)
    assert not op.ok and "no entry" in op.error


def test_profiled_kernels_are_held_to_conv_suite_counts():
    reference = fingerprint.load()
    expected = reference["ops"]["conv-suite/2b-ri5cy-sw"]
    good = _op("profile/2b-ri5cy-sw", {"cycles": expected["cycles"],
                                       "instructions": expected[
                                           "instructions"]})
    fingerprint.check(good, reference, wl.DEFAULT_SEED)
    assert good.ok
    bad = _op("profile/2b-ri5cy-sw", {"cycles": expected["cycles"] - 1,
                                      "instructions": expected[
                                          "instructions"]})
    fingerprint.check(bad, reference, wl.DEFAULT_SEED)
    assert not bad.ok


def test_seeded_ops_are_only_fingerprinted_at_the_default_seed():
    reference = fingerprint.load()
    op = _op("conv-suite/4b-xpulpnn-hw", {"cycles": 1, "instructions": 1})
    fingerprint.check(op, reference, wl.DEFAULT_SEED + 1)
    assert op.ok
    unseeded = _op("profile/matmul_4bit@1", {"cycles": 1, "instructions": 1},
                   seeded=False)
    fingerprint.check(unseeded, reference, wl.DEFAULT_SEED + 1)
    assert not unseeded.ok


def test_fingerprint_matches_the_committed_trajectory():
    import json

    trajectory = json.loads(fingerprint.TRAJECTORY.read_text())["entries"]
    assert fingerprint.trajectory_mismatches(
        fingerprint.load()["ops"], trajectory) == []


# -- host-speed normalisation --------------------------------------------------

def test_probe_speed_is_relative_to_the_reference_probe():
    ref = hostspeed.REFERENCE_PROBE_S
    assert hostspeed.speed([ref, ref]) == pytest.approx(1.0)
    # half the probes at half speed: the mean speed, not the mean time
    assert hostspeed.speed([ref, 2 * ref]) == pytest.approx(0.75)


def test_at_reference_drops_probe_time_then_scales_by_speed():
    assert hostspeed.at_reference(2.0, 0.1, 0.5) == pytest.approx(0.95)
    assert hostspeed.at_reference(0.1, 0.2, 0.5) == 0.0


def test_window_keeps_only_probes_that_began_inside_it():
    ref = hostspeed.REFERENCE_PROBE_S
    sampler = hostspeed.Sampler()
    sampler.samples = [(0.5, 4 * ref), (1.0, ref), (1.5, 2 * ref),
                       (2.0, 4 * ref)]
    probed, factor = sampler.window(1.0, 2.0)
    assert probed == pytest.approx(3 * ref)
    assert factor == pytest.approx(0.75)


def test_an_unsampled_window_is_priced_by_fresh_probes():
    probed, factor = hostspeed.Sampler().window(0.0, 1.0)
    assert probed == 0.0 and factor > 0.0


def test_sampler_probes_while_work_runs_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    sampler = hostspeed.Sampler().start()
    try:
        start = time.perf_counter()
        cpu = time.process_time()
        while time.process_time() - cpu < 10 * hostspeed.PERIOD_S:
            hostspeed.probe()
        end = time.perf_counter()
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    probed, _ = sampler.window(start, end)
    assert len(sampler.samples) >= 5 and 0.0 < probed < end - start


# -- seeds ---------------------------------------------------------------------

def test_two_seeds_give_different_tensors_that_both_verify():
    a = {c.key: c for c in wl.conv_cases(wl.DEFAULT_SEED)}
    b = {c.key: c for c in wl.conv_cases(wl.DEFAULT_SEED + 1)}
    key = "4b-xpulpnn-hw"
    assert not np.array_equal(a[key].acts, b[key].acts)
    assert not np.array_equal(a[key].weights, b[key].weights)
    ops = wl.Ops()
    wl.run_conv_suite([a[key], b[key]], ops)
    assert [op.ok for op in ops.items] == [True, True], ops.items[0].error


def test_a_wrong_golden_output_fails_the_operation():
    case = next(c for c in wl.conv_cases(wl.DEFAULT_SEED)
                if c.key == "2b-xpulpnn-hw")
    case.expected = case.expected.copy()
    case.expected.flat[0] ^= 1
    ops = wl.Ops()
    wl.run_conv_suite([case], ops)
    assert not ops.items[0].ok
    assert "Mismatch" in ops.items[0].error


# -- tracing from outside ------------------------------------------------------

def test_instrument_records_spans_and_restores_the_entry_points():
    from repro.core.cpu import Cpu
    from repro.engine.config import set_default_mode
    from repro.kernels.conv import ConvKernel

    original_run, original_init = Cpu.run, ConvKernel.__init__
    rec = spans.Recorder()
    restore = spans.instrument(rec)
    set_default_mode("block")
    try:
        case = next(c for c in wl.conv_cases(wl.DEFAULT_SEED)
                    if c.key == "2b-xpulpnn-hw")
        ops = wl.Ops(rec)
        with rec.span("bench.wall"):
            wl.run_conv_suite([case], ops)
    finally:
        set_default_mode(None)
        restore()
    assert Cpu.run is original_run and ConvKernel.__init__ is original_init
    names = [s.name for s in rec.spans]
    assert names == ["bench.wall", "kernels.build", "kernels.run",
                     "core.run"]
    core = rec.spans[-1]
    assert core.op == "conv-suite/2b-xpulpnn-hw"
    assert core.parent == rec.spans[2].id
    assert core.attrs["instructions"] == ops.items[0].observed[
        "instructions"]
    metrics = spans.layer_metrics(rec.spans)
    assert metrics["core.calls"] == 1
    assert core.attrs["engine"]["block_instructions"] > 0
    assert 0.0 < metrics["engine.interp_share"] < 0.5
