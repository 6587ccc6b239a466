"""The benchmark's four workloads.

Each workload has a set-up (imports done, inputs drawn from the seed,
golden outputs computed) and a timed part.  Every kernel run, network,
explore candidate and profiled kernel is one *operation*: an :class:`Op`
that is failed when it raises, misses its golden output, or (see
:mod:`fingerprint`) drifts from the recorded simulated statistics.

Why these four (details in README.md):

* ``conv-suite`` — the paper's single-core kernel matrix (Fig 6-9,
  Table III); the block engine does almost all the work, the cluster none.
* ``network`` — compile + execute two networks on the 8-core cluster,
  where ``Cluster.run`` is ~95% of host time and the engine declines
  every hart.
* ``explore`` — the staged design-space search through the serve pool
  and a result cache, cold then warm; the only workload where the static
  cost model and the cache do real work.
* ``profile`` — the ``conv-suite`` kernels under a ``MetricsTracer``
  (which forces the interpreter) plus the cluster-traced MatMul; the only
  workload that measures ``Cpu.step`` and the trace layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: The repository's ``_SEED`` convention (DATE 2020).  At this seed the
#: inputs are those behind the committed trajectory.
DEFAULT_SEED = 2020

WORKLOADS = ("conv-suite", "network", "explore", "profile")

#: Per-run scratch directory under the checkout root (explore's caches).
TMP = ".perfbench-tmp"

NETWORKS = ("mixed3", "paper")
EXPLORE_SPACE = "paper"
PROFILED_MATMUL = "matmul_4bit"
PROFILED_CORES = (1, 8)


class Mismatch(Exception):
    """An operation's output disagrees with its golden model."""


@dataclass
class Op:
    """One verified operation: its id, outcome and simulated statistics.

    ``seeded`` ops depend on the input seed; the others (explore, the
    catalog MatMul) see the same inputs at every seed.
    """

    id: str
    ok: bool = True
    error: str = ""
    observed: Dict[str, Any] = field(default_factory=dict)
    seeded: bool = True

    def fail(self, error: str) -> None:
        self.ok = False
        self.error = self.error or error


class Ops:
    """The operations of one pass, run one at a time."""

    def __init__(self, recorder=None) -> None:
        self.items: List[Op] = []
        self.recorder = recorder

    def attempt(self, op_id: str, fn: Callable[[], Dict[str, Any]],
                seeded: bool = True) -> Op:
        if self.recorder is not None:
            self.recorder.op = op_id
        op = Op(op_id, seeded=seeded)
        try:
            op.observed = fn()
        except Exception as exc:  # an operation failing is a measurement
            op.fail(f"{type(exc).__name__}: {exc}")
        self.items.append(op)
        return op


def kernel_key(bits: int, isa: str, quant: str) -> str:
    return f"{bits}b-{isa}-{quant}"


# ---------------------------------------------------------------------------
# conv-suite and profile: the single-core kernel matrix
# ---------------------------------------------------------------------------

@dataclass
class ConvCase:
    key: str
    bits: int
    isa: str
    quant: str
    weights: np.ndarray
    acts: np.ndarray
    thresholds: Any
    expected: np.ndarray


def conv_cases(seed: int) -> List[ConvCase]:
    """The seven ``SUITE_CONFIGS`` plus the 8-bit RI5CY point at
    ``SCALED_LAYER``, on tensors drawn exactly as the figure suite draws
    them (``default_rng(seed + bits)``, weights then activations)."""
    from repro.eval.workloads import SCALED_LAYER, SUITE_CONFIGS
    from repro.qnn import (conv2d_golden, random_activations, random_weights,
                           requantize_shift, thresholds_from_accumulators)
    from repro.target.names import RI5CY

    g = SCALED_LAYER
    cases = []
    for bits, isa, quant in SUITE_CONFIGS + ((8, RI5CY, "shift"),):
        rng = np.random.default_rng(seed + bits)
        weights = random_weights((g.out_ch, g.kh, g.kw, g.in_ch), bits, rng)
        acts = random_activations((g.in_h, g.in_w, g.in_ch), bits, rng)
        acc = conv2d_golden(acts, weights, stride=g.stride, pad=g.pad)
        if quant == "shift":
            thresholds = None
            expected = requantize_shift(acc, 8, 8, signed=False)
        else:
            thresholds = thresholds_from_accumulators(acc, bits)
            expected = thresholds.quantize(acc, channel_axis=-1)
        cases.append(ConvCase(kernel_key(bits, isa, quant), bits, isa, quant,
                              weights, acts, thresholds, expected))
    return cases


def _run_case(case: ConvCase, tracer_factory=None, profile_quant=False):
    """``ConvKernel.run`` on a core the benchmark owns, so its public
    engine statistics stay readable after the run."""
    from repro.core.cpu import Cpu
    from repro.eval.workloads import SCALED_LAYER
    from repro.kernels import ConvConfig, ConvKernel
    from repro.soc.memmap import L2_SIZE
    from repro.soc.memory import Memory

    kernel = ConvKernel(ConvConfig(geometry=SCALED_LAYER, bits=case.bits,
                                   isa=case.isa, quant=case.quant))
    cpu = Cpu(isa=case.isa, mem=Memory(max(kernel.layout.end + 4096,
                                           L2_SIZE)))
    tracer = tracer_factory(kernel.program) if tracer_factory else None
    cpu.tracer = tracer
    if case.quant == "shift":
        run = kernel.run(case.weights, case.acts, shift=8, cpu=cpu,
                         profile_quant=profile_quant)
    else:
        run = kernel.run(case.weights, case.acts, thresholds=case.thresholds,
                         cpu=cpu, profile_quant=profile_quant)
    if not np.array_equal(run.output, case.expected):
        raise Mismatch(f"{case.key}: output differs from conv2d_golden")
    return run, cpu, tracer


def run_conv_suite(cases: List[ConvCase], ops: Ops,
                   prefix: str = "conv-suite") -> int:
    """Every kernel through ``ConvKernel.run`` (block engine on); returns
    the instructions the block engine retired, from its public stats."""
    block_instructions = 0

    def one(case: ConvCase) -> Dict[str, Any]:
        nonlocal block_instructions
        run, cpu, _ = _run_case(case, profile_quant=True)
        stats = cpu.engine_stats
        if stats is not None:
            block_instructions += run.instructions - stats["interp_steps"]
        return {"cycles": run.cycles, "instructions": run.instructions,
                "quant_cycles": run.detail["quant_cycles"]}

    for case in cases:
        ops.attempt(f"{prefix}/{case.key}", lambda: one(case))
    return block_instructions


def run_profile(cases: List[ConvCase], ops: Ops) -> None:
    """What ``repro profile --kernel`` runs: each kernel with a
    ``MetricsTracer`` on its core, then the catalog MatMul at 1 and 8
    cores through ``profile_kernel``."""
    from repro.trace.metrics import MetricsTracer
    from repro.trace.profile import profile_kernel

    def one(case: ConvCase) -> Dict[str, Any]:
        run, _, tracer = _run_case(
            case, tracer_factory=lambda p: MetricsTracer(program=p))
        _check_regions(case.key, tracer.registry.total(), run.perf)
        return {"cycles": run.cycles, "instructions": run.instructions}

    def matmul(cores: int) -> Dict[str, Any]:
        prof = profile_kernel(PROFILED_MATMUL, cores=cores)
        total = prof.registry.total()
        if total.instructions != prof.instructions or (
                cores == 1 and total.cycles != prof.cycles):
            raise Mismatch(
                f"{PROFILED_MATMUL}@{cores}: region counters "
                f"({total.cycles} cycles, {total.instructions} instr) do "
                f"not sum to the kernel's ({prof.cycles}, "
                f"{prof.instructions})")
        return {"cycles": prof.cycles, "instructions": prof.instructions}

    for case in cases:
        ops.attempt(f"profile/{case.key}", lambda: one(case))
    for cores in PROFILED_CORES:
        ops.attempt(f"profile/{PROFILED_MATMUL}@{cores}",
                    lambda: matmul(cores), seeded=False)


_REGION_FIELDS = ("cycles", "instructions", "stall_load_use", "stall_branch",
                  "stall_jump", "stall_misaligned", "stall_tcdm_contention")


def _check_regions(key: str, total, perf) -> None:
    """Per-region counters must sum to the kernel's own counters."""
    diff = [f"{name} {getattr(total, name)} != {getattr(perf, name)}"
            for name in _REGION_FIELDS
            if getattr(total, name) != getattr(perf, name)]
    if diff:
        raise Mismatch(f"{key}: region counters do not sum to the "
                       f"kernel's PerfCounters ({'; '.join(diff)})")


def paper_error_pct(ops: List[Op], prefix: str = "conv-suite"
                    ) -> Optional[float]:
    """Largest relative error (%) of the reproduced headline ratios —
    Fig 8 speedup vs RI5CY and ``pv.qnt`` speedup, at 4 and 2 bit —
    against the paper's values in ``eval/fig8`` and ``eval/fig6``.
    Simulated time; ``None`` when a kernel it needs failed."""
    from repro.eval import fig6, fig8

    cycles = {op.id.split("/", 1)[1]: op.observed["cycles"]
              for op in ops if op.ok and op.id.startswith(prefix + "/")}
    errors = []
    try:
        for bits in (4, 2):
            ext = cycles[f"{bits}b-xpulpnn-hw"]
            pairs = ((cycles[f"{bits}b-ri5cy-sw"] / ext,
                      fig8.PAPER["speedup_vs_ri5cy"][bits]),
                     (cycles[f"{bits}b-xpulpnn-sw"] / ext,
                      fig6.PAPER["speedup_hw_quant"][bits]))
            errors += [abs(got - paper) / paper for got, paper in pairs]
    except KeyError:
        return None
    return 100.0 * max(errors)


# ---------------------------------------------------------------------------
# network: compile + execute on the 8-core cluster
# ---------------------------------------------------------------------------

@dataclass
class NetCase:
    name: str
    built: Any
    x: np.ndarray
    output: Optional[np.ndarray] = None


def network_cases(seed: int) -> List[NetCase]:
    """The catalog networks; inputs from the seed.  At the default seed
    the inputs are the catalog's own, the ones behind the committed
    ``network/*`` trajectory series."""
    from repro.compiler import build_network
    from repro.qnn.network import random_activations

    rng = np.random.default_rng(seed)
    cases = []
    for name in NETWORKS:
        built = build_network(name)
        x = (built.input if seed == DEFAULT_SEED else
             random_activations(built.input_shape, built.input_bits, rng))
        cases.append(NetCase(name, built, x))
    return cases


def run_networks(cases: List[NetCase], ops: Ops) -> None:
    from repro.compiler import NetworkCompiler, PlanExecutor

    def one(case: NetCase) -> Dict[str, Any]:
        built = case.built
        compiled = NetworkCompiler(
            built.network, built.input_shape, input_bits=built.input_bits,
            num_cores=8, tcdm_budget=built.tcdm_budget).compile()
        result = PlanExecutor(compiled).run(case.x)
        if not result.verified:
            raise Mismatch(f"{case.name}: a tile failed its own check")
        case.output = result.output
        return {"cycles": result.cycles,
                "instructions": sum(la.perf.instructions
                                    for la in result.layers),
                "layer_cycles": [la.cycles for la in result.layers]}

    for case in cases:
        ops.attempt(f"network/{case.name}", lambda: one(case))


def check_networks(cases: List[NetCase], ops: Ops) -> None:
    """Outputs against the golden QNN forward pass (after the timed
    phase: the golden model is numpy, not the program under test)."""
    by_id = {op.id: op for op in ops.items}
    for case in cases:
        op = by_id[f"network/{case.name}"]
        if not op.ok:
            continue
        expected = network_golden(case.built.network, case.x,
                                  case.built.input_bits)
        if not np.array_equal(np.ravel(case.output), np.ravel(expected)):
            op.fail(f"Mismatch: {case.name}: output differs from the "
                    f"golden forward pass")


def network_golden(network, x: np.ndarray, in_bits: int) -> np.ndarray:
    """Layer-by-layer golden inference with the deployment's precision
    bridge: a weighted layer narrower than its input drops the LSBs."""
    bits = in_bits
    for layer in network.layers:
        weight_bits = getattr(layer, "weight_bits", None)
        if weight_bits is not None:
            if weight_bits < bits:
                x = x >> (bits - weight_bits)
            x = layer.golden(np.asarray(x, dtype=np.int32))
            bits = layer.out_bits
        else:
            x = layer.golden(x)
    return x


# ---------------------------------------------------------------------------
# explore: staged design-space search, cold then warm
# ---------------------------------------------------------------------------

@dataclass
class ExploreCase:
    space: Any
    cache_dir: str
    workers: int


def explore_case(cache_dir: str) -> ExploreCase:
    from repro.explore import named_space

    return ExploreCase(named_space(EXPLORE_SPACE), cache_dir,
                       min(2, os.cpu_count() or 1))


def run_explore(case: ExploreCase, ops: Ops, phase: str) -> int:
    """One ``DesignSpaceExplorer.run(verify=True)`` over the per-run
    cache directory; each candidate is one operation.  Returns the
    instructions simulated: uncached points plus the verify step's
    cache-less re-run of every frontier point."""
    from repro.explore import DesignSpaceExplorer
    from repro.serve import ResultCache, SimulationService

    service = SimulationService(cache=ResultCache(case.cache_dir),
                                workers=case.workers)
    prefix = f"explore/{EXPLORE_SPACE}"
    if ops.recorder is not None:
        ops.recorder.op = f"{prefix}/{phase}"
    try:
        report = DesignSpaceExplorer(case.space, service=service).run(
            verify=True)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        for cand in case.space.expand():
            ops.items.append(Op(f"{prefix}/{cand.label}", ok=False,
                                error=error, seeded=False))
        return 0
    frontier = set(report.frontier_labels())
    points = {p["label"]: p for p in report.points}
    simulated = sum(p["instructions"] for p in report.points
                    if not p["cached"])
    simulated += sum(points[label]["instructions"] for label in frontier)
    for cand in report.to_dict()["candidates"]:
        label = cand["label"]
        op = Op(f"{prefix}/{label}", seeded=False, observed={
            "status": cand["status"],
            "cycles": points[label]["cycles"] if label in points else None,
            "frontier": label in frontier})
        if cand["status"] == "failed":
            op.fail(f"{label}: simulation failed")
        ops.items.append(op)
    return simulated
