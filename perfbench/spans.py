"""Host-time spans recorded from outside the program, and the per-layer
metrics derived from them.

A traced benchmark pass wraps the public entry points of each
``src/repro/`` package (see :func:`instrument`) so that every call
records a span — name, start, end, parent and operation id — in memory.
Spans are written out when the pass ends.  A span's *self time* is its
duration minus the part of that interval its children cover, so summing
self time per layer splits a pass's wall time between the layers plus a
residual that belongs to the benchmark's own code.

Nothing here imports ``repro`` at module level: the benchmark's unit
tests exercise the span arithmetic without the simulator.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Op-id prefix of untraced reference runs inside a traced pass: they
#: only feed ``trace.overhead_x``.
REFERENCE = "reference"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store for one process.

    Calls made in another process — a forked pool worker inherits the
    wrapped classes — pass straight through without recording.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._pid = os.getpid()

    @property
    def active(self) -> bool:
        return os.getpid() == self._pid

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent,
                    self.op, dict(attrs))
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    def to_json(self) -> List[Dict[str, Any]]:
        return [asdict(s) for s in self.spans]


def load(path: Path, first_id: int = 0) -> List[Span]:
    """Spans written from :meth:`Recorder.to_json`, renumbered from
    *first_id* so the spans of several passes can be merged."""
    loaded = []
    for doc in json.loads(Path(path).read_text()):
        doc["id"] += first_id
        if doc["parent"] is not None:
            doc["parent"] += first_id
        loaded.append(Span(**doc))
    return loaded


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def _covered(lo: float, hi: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def ratio(num: float, base: float) -> float:
    """``num / base``, or 0 when the base is zero (an idle layer)."""
    return num / base if base else 0.0


# ---------------------------------------------------------------------------
# Wrapping the public entry points
# ---------------------------------------------------------------------------

def _perf_instructions(cores) -> int:
    return sum(c.perf.instructions for c in cores)


def _cpu_run(rec: Recorder, orig):
    def run(self, *args, **kwargs):
        stats0 = self.engine_stats
        traced = self.tracer is not None
        with rec.span("core.run", traced=traced) as span:
            before = self.perf.instructions
            try:
                return orig(self, *args, **kwargs)
            finally:
                instr = self.perf.instructions - before
                stats1 = self.engine_stats
                span.attrs.update(instructions=instr, engine=_engine_delta(
                    stats0, stats1, instr))
    return run


def _engine_delta(stats0, stats1, instructions: int) -> Dict[str, Any]:
    """Block-engine work of one ``Cpu.run`` from the public stats."""
    if stats1 is None or stats1 == stats0:
        return {"block_instructions": 0}
    stats0 = stats0 or {}
    delta = {
        key: stats1[key] - stats0.get(key, 0)
        for key in ("blocks_translated", "block_hits", "interp_steps")
    }
    exits0 = stats0.get("side_exits", {})
    delta["side_exits"] = {
        reason: count - exits0.get(reason, 0)
        for reason, count in stats1["side_exits"].items()
        if count != exits0.get(reason, 0)
    }
    delta["block_instructions"] = instructions - delta["interp_steps"]
    return delta


def _cluster_run(rec: Recorder, orig):
    def run(self, *args, **kwargs):
        traced = any(c.tracer is not None for c in self.cores)
        with rec.span("cluster.run", traced=traced) as span:
            before = _perf_instructions(self.cores)
            try:
                return orig(self, *args, **kwargs)
            finally:
                span.attrs["instructions"] = (
                    _perf_instructions(self.cores) - before)
    return run


def _plain(rec: Recorder, name: str, orig, after=None):
    def call(*args, **kwargs):
        with rec.span(name) as span:
            result = orig(*args, **kwargs)
            if after is not None:
                after(span, result)
            return result
    return call


def _sweep_attrs(span: Span, report) -> None:
    span.attrs.update(
        jobs=len(report.results),
        failures=sum(1 for r in report.results if not r.ok),
        job_elapsed=[r.elapsed_s for r in report.results
                     if r.ok and not r.cached])


def _explore_attrs(span: Span, report) -> None:
    stage = report.stage
    span.attrs.update(simulated=len(stage.survivors),
                      pruned=len(stage.pruned),
                      feasible=len(stage.survivors) + len(stage.pruned))


def _execute_attrs(span: Span, result) -> None:
    span.attrs["tiles"] = sum(layer.tiles for layer in result.layers)


def _cache_get_attrs(span: Span, payload) -> None:
    span.attrs["hit"] = payload is not None


def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap every entry point the benchmark traces; returns an undo."""
    from repro.analysis import cost
    from repro.cluster.cluster import Cluster
    from repro.compiler import executor, lowering, tiling
    from repro.core.cpu import Cpu
    from repro.explore import search, static_stage
    from repro.kernels.conv import ConvKernel
    from repro.serve.cache import ResultCache
    from repro.serve.service import SimulationService
    from repro.trace import profile

    undo: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def method(cls, attr, name, after=None):
        orig = cls.__dict__[attr]
        patch(cls, attr, _gate(rec, orig, _plain(rec, name, orig, after)))

    def function(module, attr, name, after=None):
        # Rebind every loaded repro module that imported it by name.
        orig = getattr(module, attr)
        wrapped = _gate(rec, orig, _plain(rec, name, orig, after))
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is orig):
                patch(mod, attr, wrapped)

    patch(Cpu, "run", _gate(rec, Cpu.run, _cpu_run(rec, Cpu.run)))
    patch(Cluster, "run",
          _gate(rec, Cluster.run, _cluster_run(rec, Cluster.run)))
    method(ConvKernel, "__init__", "kernels.build")
    method(ConvKernel, "run", "kernels.run")
    method(lowering.NetworkCompiler, "compile", "compiler.compile")
    function(tiling, "search_conv_tiling", "compiler.tile_search")
    method(executor.PlanExecutor, "run", "compiler.execute", _execute_attrs)
    function(cost, "analyze_cost", "analysis.cost")
    method(SimulationService, "run", "serve.run", _sweep_attrs)
    method(ResultCache, "get", "serve.cache_get", _cache_get_attrs)
    method(ResultCache, "put", "serve.cache_put")
    method(search.DesignSpaceExplorer, "run", "explore.run", _explore_attrs)
    method(search.DesignSpaceExplorer, "verify", "explore.verify")
    function(static_stage, "run_static_stage", "explore.static")
    function(profile, "profile_kernel", "trace.profile_kernel")

    def restore() -> None:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def _gate(rec: Recorder, orig, wrapped):
    """Record only in the recording process (see :class:`Recorder`)."""
    def call(*args, **kwargs):
        if rec.active:
            return wrapped(*args, **kwargs)
        return orig(*args, **kwargs)
    call.__wrapped__ = orig
    return call


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: Layers whose self time the accounting table reports, in stack order.
LAYERS = ("explore", "serve", "analysis", "compiler", "kernels", "trace",
          "cluster", "core")


def is_reference(span: Span) -> bool:
    return (span.op or "").startswith(REFERENCE + "/")


def measured(spans: List[Span]) -> List[Span]:
    """The spans of the pass itself, without reference runs."""
    return [s for s in spans if not is_reference(s)]


def _time_by_kernel(items: List[Span]) -> Dict[str, float]:
    """Summed duration per kernel key (the part of the op id after the
    workload name)."""
    times: Dict[str, float] = {}
    for s in items:
        key = s.op.split("/", 1)[1]
        times[key] = times.get(key, 0.0) + s.duration
    return times


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 for an idle layer).

    Reference-run spans (the untraced kernels ``trace.overhead_x``
    divides by) count only in that ratio.
    """
    selfs = self_times(spans)
    own = measured(spans)

    def named(name: str) -> List[Span]:
        return [s for s in own if s.name == name]

    def busy(items: List[Span]) -> float:
        return sum(s.duration for s in items)

    def self_of(items: List[Span]) -> float:
        return sum(selfs[s.id] for s in items)

    def total(items: List[Span], attr: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in items)

    cores = named("core.run")
    clusters = named("cluster.run")
    engine = [s.attrs["engine"] for s in cores]
    block_instr = sum(e["block_instructions"] for e in engine)
    all_instr = total(cores, "instructions") + total(clusters, "instructions")
    traced = [s for s in cores + clusters if s.attrs["traced"]]
    traced_kernels = _time_by_kernel([s for s in cores if s.attrs["traced"]])
    reference = _time_by_kernel([
        s for s in spans if s.name == "core.run" and is_reference(s)])
    paired = [key for key in traced_kernels if key in reference]

    sweeps = named("serve.run")
    elapsed = [e for s in sweeps for e in s.attrs["job_elapsed"]]
    gets = named("serve.cache_get")
    explores = named("explore.run")
    executes = named("compiler.execute")

    metrics = {
        "core.calls": len(cores),
        "core.busy_s": busy(cores),
        "core.sim_ips": ratio(total(cores, "instructions"), busy(cores)),
        "engine.interp_share": ratio(all_instr - block_instr, all_instr),
        "engine.side_exits": sum(engine_side_exits(own).values()),
        "engine.blocks_translated": sum(e.get("blocks_translated", 0)
                                        for e in engine),
        "engine.block_hits": sum(e.get("block_hits", 0) for e in engine),
        "cluster.calls": len(clusters),
        "cluster.busy_s": busy(clusters),
        "cluster.sim_ips": ratio(total(clusters, "instructions"),
                                 busy(clusters)),
        "kernels.build_s": busy(named("kernels.build")),
        "compiler.compile_s": busy(named("compiler.compile")),
        "compiler.tile_search_s": busy(named("compiler.tile_search")),
        "compiler.execute_s": busy(executes),
        "compiler.tiles": total(executes, "tiles"),
        "compiler.executor_self_s": self_of(executes),
        "analysis.cost_calls": len(named("analysis.cost")),
        "analysis.cost_s": busy(named("analysis.cost")),
        "serve.run_s": busy(sweeps),
        "serve.jobs": total(sweeps, "jobs"),
        "serve.job_failures": total(sweeps, "failures"),
        "serve.job_p50_s": statistics.median(elapsed) if elapsed else 0.0,
        "serve.cache_hit_ratio": ratio(total(gets, "hit"), len(gets)),
        "serve.cache_get_s": busy(gets),
        "serve.cache_put_s": busy(named("serve.cache_put")),
        "explore.static_s": busy(named("explore.static")),
        "explore.verify_s": busy(named("explore.verify")),
        "explore.simulated": total(explores, "simulated"),
        "explore.prune_ratio": ratio(total(explores, "pruned"),
                                     total(explores, "feasible")),
        "trace.busy_s": busy(traced),
        "trace.sim_ips": ratio(total(traced, "instructions"), busy(traced)),
        "trace.overhead_x": ratio(sum(traced_kernels[k] for k in paired),
                                  sum(reference[k] for k in paired)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_of(
            [s for s in own if s.layer == layer])
    return metrics


def engine_side_exits(spans: List[Span]) -> Dict[str, int]:
    """Side exits by reason over the ``Cpu.run`` spans in *spans*."""
    reasons: Dict[str, int] = {}
    for s in spans:
        if s.name == "core.run":
            for reason, n in s.attrs["engine"].get("side_exits", {}).items():
                reasons[reason] = reasons.get(reason, 0) + n
    return reasons


def accounting(spans: List[Span], root: Span) -> List[Tuple[str, float]]:
    """(layer, self seconds) under *root*, plus the residual — the root's
    own self time — so the rows sum to the root's duration."""
    selfs = self_times(spans)
    inside = _descendants(spans, root.id)
    rows = [(layer, sum(selfs[s.id] for s in inside if s.layer == layer))
            for layer in LAYERS]
    rows.append(("residual", selfs[root.id]))
    return rows


def _descendants(spans: List[Span], root_id: int) -> List[Span]:
    inside = {root_id}
    found = []
    for s in spans:                       # parents precede children
        if s.parent in inside:
            inside.add(s.id)
            found.append(s)
    return found
