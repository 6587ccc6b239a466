"""Simulated-statistics fingerprint: the cycles and instructions every
operation must reproduce at the default seed.

``fingerprint.json`` records, per operation id, what the interpreter
(``engine="interp"``, the reference semantics) simulated: cycles and
instructions of every kernel, plus per-layer cycles of every network and
status / cycles / frontier membership of every explore candidate.  A
benchmark pass compares each operation against it; any drift marks the
operation failed.  Operations whose inputs depend on the seed are
compared only at the fingerprint's seed; at other seeds only their
golden outputs are checked.

Regenerate (and cross-check) with::

    python3 perfbench/fingerprint.py --write

which runs every workload once under the interpreter, writes the file,
runs them again under the block engine and fails unless both agree
exactly and the file agrees with every overlapping series of the
committed trajectory (``benchmarks/results/trajectory.json``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
PATH = HERE / "fingerprint.json"
SCHEMA = "perfbench-fingerprint/1"
TRAJECTORY = HERE.parent / "benchmarks" / "results" / "trajectory.json"


def load(path: Path = PATH) -> Dict[str, Any]:
    return json.loads(path.read_text())


def reference_key(op_id: str) -> str:
    """Profiled conv kernels must reproduce ``conv-suite``'s counts."""
    workload, _, key = op_id.partition("/")
    if workload == "profile" and not key.startswith("matmul"):
        return f"conv-suite/{key}"
    return op_id


def check(op, fingerprint: Dict[str, Any], seed: int) -> None:
    """Fail *op* if its simulated statistics drift from *fingerprint*."""
    if not op.ok or (op.seeded and seed != fingerprint["seed"]):
        return
    key = reference_key(op.id)
    expected = fingerprint["ops"].get(key)
    if expected is None:
        op.fail(f"fingerprint: no entry for {key}")
        return
    if key != op.id:          # compared against another workload's entry
        expected = {name: expected[name] for name in ("cycles",
                                                       "instructions")}
    drift = [f"{name} {op.observed.get(name)!r} != {value!r}"
             for name, value in expected.items()
             if op.observed.get(name) != value]
    if drift:
        op.fail("fingerprint drift: " + "; ".join(drift))


# ---------------------------------------------------------------------------
# Regeneration
# ---------------------------------------------------------------------------

def _observe(workload: str, engine: str, record: bool):
    """One pass of *workload*; (observed stats by op id, failures)."""
    from run import ROOT, run_worker, worker_env

    args = ["--workload", workload] + (["--record"] if record else [])
    doc = run_worker(ROOT, worker_env(ROOT, engine=engine), args,
                     timeout=1800)
    failures = [f"{op['id']} ({engine}): {op['error']}"
                for op in doc["ops"] if not op["ok"]]
    observed = {op["id"]: op["observed"] for op in doc["ops"]
                if reference_key(op["id"]) == op["id"]}
    return observed, failures


def trajectory_mismatches(ops: Dict[str, Dict[str, Any]],
                          entries: Dict[str, Any]) -> List[str]:
    """Disagreements with the committed trajectory where they overlap:
    ``fig7``/``fig9`` kernel cycles and the ``network`` (mixed3) series.
    The trajectory's ``explore/*`` series cover the ``ci`` space, not
    the ``paper`` space this benchmark explores, so nothing overlaps."""
    wanted: Dict[str, Optional[int]] = {}
    for bits in (8, 4, 2):
        ext = "shift" if bits == 8 else "hw"
        base = "shift" if bits == 8 else "sw"
        for isa, quant in (("xpulpnn", ext), ("ri5cy", base)):
            got = ops.get(f"conv-suite/{bits}b-{isa}-{quant}", {})
            for fig in ("fig7", "fig9"):
                wanted[f"{fig}/points/{bits}/{isa}/cycles"] = got.get(
                    "cycles")
    net = ops.get("network/mixed3", {})
    wanted["network/network/cycles"] = net.get("cycles")
    for i, cycles in enumerate(net.get("layer_cycles", [])):
        wanted[f"network/network/layers/{i}/cycles"] = cycles
    return [f"{key}: trajectory {entries.get(key)!r} != {value!r}"
            for key, value in wanted.items() if entries.get(key) != value]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate fingerprint.json")
    args = parser.parse_args(argv)
    from workloads import DEFAULT_SEED, WORKLOADS

    problems: List[str] = []
    if args.write:
        ops: Dict[str, Dict[str, Any]] = {}
        for workload in WORKLOADS:
            observed, failures = _observe(workload, "interp", record=True)
            ops.update(observed)
            problems += failures
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        PATH.write_text(json.dumps(
            {"schema": SCHEMA, "seed": DEFAULT_SEED, "engine": "interp",
             "ops": dict(sorted(ops.items()))}, indent=1) + "\n")
    fingerprint = load()
    problems += trajectory_mismatches(
        fingerprint["ops"], json.loads(TRAJECTORY.read_text())["entries"])
    for workload in WORKLOADS:
        # Without --record every op is checked against the fingerprint.
        problems += _observe(workload, "block", record=False)[1]
    for line in problems:
        print(line, file=sys.stderr)
    print(f"{len(fingerprint['ops'])} fingerprint entries, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
