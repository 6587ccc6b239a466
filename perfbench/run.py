"""The repository benchmark (see README.md beside this file).

Run from the repository root::

    python3 perfbench/run.py --workload conv-suite --seed 2020 \\
        --seconds 20 --trace 0

Each pass of a workload is a fresh ``worker.py`` process running the
block engine with single-threaded numpy/BLAS; caller settings of
``REPRO_ENGINE``, ``REPRO_FULL`` and ``REPRO_CACHE_DIR`` are overridden.
Passes repeat while the next one should end within half a pass of
``--seconds`` (at least one always runs).  ``--trace 0`` reports the
end-to-end metrics, host times scaled to reference host speed (see
``hostspeed.py``); ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import hostspeed
import spans
from workloads import DEFAULT_SEED, TMP, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ".perfbench-out"          # span files of traced runs

#: setup_s is the median of at least this many fresh-interpreter set-ups.
SETUP_SAMPLES = 5
#: Every run ends within this many seconds, whatever --seconds says.
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNITS = {"setup_s": "s", "wall_s": "s", "sim_ips": "instr/s",
         "peak_rss_mb": "MB"}


class WorkerError(Exception):
    """A pass crashed, timed out or printed no result."""


def worker_env(root: Path, engine: str = "block") -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("REPRO_FULL", "REPRO_CACHE_DIR"):
        env.pop(var, None)
    env["REPRO_ENGINE"] = engine
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(root / TMP)
    return env


def run_worker(root: Path, env: Dict[str, str], args: Sequence[str],
               timeout: float) -> Dict[str, Any]:
    """One ``worker.py`` process; its JSON result plus ``setup_s`` (at
    reference speed when the pass sampled its set-up)."""
    (root / TMP).mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.time()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the pass and its pool
        proc.communicate()
        raise WorkerError(f"pass timed out after {timeout:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"pass exited {proc.returncode}: {tail[0]}")
    doc = json.loads(lines[-1])
    doc["raw_setup_s"] = doc["ready"] - spawned
    doc["setup_s"] = (hostspeed.at_reference(
        doc["raw_setup_s"], doc["setup_probe_s"], doc["setup_speed"])
        if "setup_speed" in doc else doc["raw_setup_s"])
    return doc


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Run:
    """Operations and passes of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.started = started
        self.env = worker_env(ROOT)
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.attempted = 0
        self.errors: List[str] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def worker(self, *extra: str) -> Optional[Dict[str, Any]]:
        try:
            doc = run_worker(ROOT, self.env, [*self.args, *extra],
                             self.remaining())
        except WorkerError as exc:
            self.attempted += 1
            self.errors.append(f"{self.workload}: {exc}")
            return None
        if "ops" in doc:
            self.attempted += len(doc["ops"])
            self.errors += [f"{op['id']}: {op['error']}"
                            for op in doc["ops"] if not op["ok"]]
        return doc

    def setup_samples(self, passes: List[Dict[str, Any]]) -> List[float]:
        samples = [p["setup_s"] for p in passes]
        while len(samples) < SETUP_SAMPLES and self.remaining() > 30:
            doc = self.worker("--setup-only", "--normalise")
            if doc is None:
                break
            samples.append(doc["setup_s"])
        return samples

    def result(self, metrics: Dict[str, Any]) -> Dict[str, Any]:
        return {"correct": not self.errors,
                "attempted": max(self.attempted, 1),
                "failed": len(self.errors), "metrics": metrics}


def end_to_end(run: Run, seconds: float) -> Dict[str, Any]:
    run.worker("--setup-only")            # untimed: compiles bytecode
    passes: List[Dict[str, Any]] = []
    longest = 0.0
    while True:
        begun = time.monotonic()
        doc = run.worker("--normalise")
        if doc is None:
            break
        passes.append(doc)
        longest = max(longest, time.monotonic() - begun)
        # Another pass only if it ends within half a pass of --seconds.
        elapsed = time.monotonic() - run.started
        if elapsed + longest / 2 > seconds or run.remaining() < 2 * longest:
            break
    if not passes:
        return run.result({})
    setup = run.setup_samples(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["norm_wall_s"] for p in passes),
        "sim_ips": statistics.median(p["instructions"] / p["norm_wall_s"]
                                     for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    _report_passes(run, passes, setup)
    return run.result({name: {"value": value, "unit": UNITS[name]}
                       for name, value in metrics.items()})


def per_layer(run: Run) -> Dict[str, Any]:
    plain = run.worker()
    (ROOT / OUT).mkdir(exist_ok=True)
    span_file = ROOT / OUT / f"spans-{run.workload}-{run.seed}.json"
    traced = run.worker("--trace-out", str(span_file))
    if plain is None or traced is None:
        return run.result({})
    recorded = spans.load(span_file)
    root = next(s for s in recorded if s.name == "bench.wall")
    layers = spans.layer_metrics(recorded)
    layers["trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["explore.warm_wall_s"] = traced["warm_wall_s"] or 0.0
    layers["eval.paper_err_pct"] = traced["paper_err_pct"] or 0.0
    _report_accounting(run, plain, traced, spans.accounting(recorded, root),
                       spans.engine_side_exits(spans.measured(recorded)),
                       span_file)
    return run.result({name: {"value": value, "unit": _layer_unit(name)}
                       for name, value in layers.items()})


# ---------------------------------------------------------------------------
# Printed reports (everything before the final JSON line)
# ---------------------------------------------------------------------------

def _report_passes(run: Run, passes: List[Dict[str, Any]],
                   setup: List[float]) -> None:
    print(f"{run.workload} seed={run.seed}: {len(passes)} pass(es), "
          f"{len(setup)} set-up(s) at reference speed: "
          + ", ".join(f"{s:.3f}" for s in setup))
    for i, p in enumerate(passes):
        warm = (f"  warm_wall_s {p['warm_wall_s']:.3f}"
                if p["warm_wall_s"] is not None else "")
        print(f"  pass {i}: setup_s {p['setup_s']:.3f} (host "
              f"{p['raw_setup_s']:.3f})  wall_s {p['norm_wall_s']:.3f} "
              f"(host {p['wall_s']:.3f}, speed {p['host_speed']:.3f})"
              f"{warm}  instructions {p['instructions']:,}"
              f"  peak_rss_mb {p['peak_rss_mb']:.1f}")
    if passes[0]["paper_err_pct"] is not None:
        print(f"  paper_err_pct {passes[0]['paper_err_pct']:.3f} "
              f"(simulated; vs paper values at the 1/8-scale layer)")
    _report_engine(passes[0]["engine"])
    for line in run.errors[:10]:
        print(f"  FAILED {line}")


def _report_engine(cov: Dict[str, Any]) -> None:
    exits = ", ".join(f"{reason} {n}" for reason, n in
                      sorted(cov["side_exits"].items())) or "none"
    print(f"  engine: interpreted share {cov['interp_share']:.4f} of "
          f"{cov['instructions']:,} instr; blocks translated "
          f"{cov['blocks_translated']:,}, block hits {cov['block_hits']:,},"
          f" interp steps {cov['interp_steps']:,}; side exits: {exits}")


def _report_accounting(run: Run, plain: Dict[str, Any],
                       traced: Dict[str, Any], rows, exits: Dict[str, int],
                       span_file: Path) -> None:
    print(f"{run.workload} seed={run.seed}: traced wall_s "
          f"{traced['wall_s']:.3f} (untraced {plain['wall_s']:.3f}, "
          f"trace_overhead_s {traced['wall_s'] - plain['wall_s']:+.3f})")
    total = 0.0
    for layer, seconds in rows:
        total += seconds
        print(f"  {layer:<9s} self {seconds:8.3f} s "
              f"{100 * seconds / traced['wall_s']:5.1f}%")
    print(f"  {'sum':<9s}      {total:8.3f} s (spans: {span_file.name})")
    print("  traced side exits: " + (", ".join(
        f"{r} {n}" for r, n in sorted(exits.items())) or "none"))
    _report_engine(plain["engine"])
    for line in run.errors[:10]:
        print(f"  FAILED {line}")


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("sim_ips"):
        return "instr/s"
    if name.endswith(("_share", "_ratio", "_x")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repository benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, time.monotonic())
    try:
        result = per_layer(run) if args.trace else end_to_end(
            run, args.seconds)
    finally:
        shutil.rmtree(ROOT / TMP, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
