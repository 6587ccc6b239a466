"""One benchmark pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass with the engine, thread and
cache settings already in its environment.  It sets the workload up,
prints nothing until the end, and writes one JSON object as its last
line of standard output::

    python3 perfbench/worker.py --workload conv-suite --seed 2020

``--setup-only`` stops right after set-up (the ``setup_s`` probe),
``--normalise`` samples the host's speed through set-up and the timed
phase (see :mod:`hostspeed`) and reports both at reference speed,
``--trace-out FILE`` wraps the package entry points (see
:mod:`spans`) and writes the spans to FILE, and ``--record`` skips the
fingerprint comparison (used when regenerating the fingerprint).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import hostspeed

#: Started before numpy and ``repro`` are imported, so set-up is sampled.
SAMPLER = (hostspeed.Sampler().start() if "--normalise" in sys.argv[1:]
           else None)

import fingerprint  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--normalise", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def _setup(args: argparse.Namespace):
    """Everything before the first timed call: imports and inputs."""
    if args.workload == "network":
        return wl.network_cases(args.seed)
    if args.workload == "explore":
        import repro.serve  # noqa: F401  (imported before the timed phase)
        os.makedirs(wl.TMP, exist_ok=True)
        return wl.explore_case(tempfile.mkdtemp(dir=wl.TMP))
    if args.workload == "profile":
        import repro.trace.profile  # noqa: F401
    return wl.conv_cases(args.seed)


def _engine_counters() -> Dict[str, Any]:
    """The public ``engine.*`` counters of this process (pool workers'
    snapshots are merged into it by the serve layer)."""
    from repro.telemetry.metrics import default_registry, split_key

    out: Dict[str, Any] = {"blocks_translated": 0, "block_hits": 0,
                           "interp_steps": 0, "side_exits": {}}
    for key, value in default_registry().snapshot()["counters"].items():
        name, labels = split_key(key)
        if name == "engine.side_exits":
            out["side_exits"][labels["reason"]] = int(value)
        elif name.startswith("engine.") and name[7:] in out:
            out[name[7:]] = int(value)
    return out


def _peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    state = _setup(args)
    ready = time.time()
    setup: Dict[str, float] = {}
    if SAMPLER is not None:
        probed, factor = SAMPLER.window(0.0, time.perf_counter())
        setup = {"setup_probe_s": probed, "setup_speed": factor}
    if args.setup_only:
        print(json.dumps({"ready": ready, **setup}))
        return 0

    recorder = restore = None
    if args.trace_out:
        recorder = spans.Recorder()
        restore = spans.instrument(recorder)
    ops = wl.Ops(recorder)

    def phase(name: str):
        if recorder is None:
            return contextlib.nullcontext()
        recorder.op = None
        return recorder.span(f"bench.{name}")

    if args.workload == "profile" and recorder is not None:
        # Untraced reference times for trace.overhead_x, outside the pass.
        wl.run_conv_suite(state, wl.Ops(recorder), prefix=spans.REFERENCE)

    block_instructions = 0
    warm_wall = None
    start = time.perf_counter()
    with phase("wall"):
        if args.workload == "conv-suite":
            block_instructions = wl.run_conv_suite(state, ops)
        elif args.workload == "profile":
            wl.run_profile(state, ops)
        elif args.workload == "network":
            wl.run_networks(state, ops)
        else:
            explore_instructions = wl.run_explore(state, ops, "cold")
    wall = time.perf_counter() - start
    norm_wall = host_speed = None
    if SAMPLER is not None:
        SAMPLER.stop()
        probed, host_speed = SAMPLER.window(start, start + wall)
        norm_wall = hostspeed.at_reference(wall, probed, host_speed)
    if args.workload == "explore":
        start = time.perf_counter()
        with phase("warm_wall"):
            wl.run_explore(state, ops, "warm")
        warm_wall = time.perf_counter() - start
    if restore is not None:
        restore()

    if args.workload == "network":
        wl.check_networks(state, ops)
    if not args.record:
        reference = fingerprint.load()
        for op in ops.items:
            fingerprint.check(op, reference, args.seed)

    if args.workload == "explore":
        instructions = explore_instructions
    else:
        instructions = sum(op.observed.get("instructions", 0)
                           for op in ops.items if op.ok)
    coverage = _engine_counters()
    coverage["instructions"] = instructions
    coverage["interp_share"] = (
        (instructions - block_instructions) / instructions
        if instructions else 0.0)
    doc: Dict[str, Any] = {
        "ready": ready,
        **setup,
        "wall_s": wall,
        "norm_wall_s": norm_wall,
        "host_speed": host_speed,
        "warm_wall_s": warm_wall,
        "instructions": instructions,
        "peak_rss_mb": _peak_rss_mb(args.workload == "explore"),
        "paper_err_pct": wl.paper_error_pct(
            ops.items, "conv-suite" if args.workload == "conv-suite"
            else "profile"),
        "engine": coverage,
        "ops": [{"id": op.id, "ok": op.ok, "error": op.error,
                 "observed": op.observed} for op in ops.items],
    }
    if recorder is not None:
        Path(args.trace_out).write_text(json.dumps(recorder.to_json()))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        if SAMPLER is not None:   # a pending SIGPROF would kill the exit
            SAMPLER.stop()
    raise SystemExit(code)
