"""Per-layer attribution by wrapping each layer's public boundary from outside.

The traced run installs wrappers on the public methods listed in
:data:`BOUNDARIES` (class attributes are swapped for the duration of the run
and restored afterwards), so the program under test carries no tracing code
and an untraced run pays nothing.  Private names are never wrapped: the work
behind them (dispatch closures, the cluster ledger, metric summaries) is
measured as the residual self time of the public span that encloses it.

Spans are not stored one by one.  Every boundary keeps running aggregates
(self time per layer, inclusive time and call count per boundary), which
bounds memory on the high-frequency boundaries (warm pool, event queue,
backend) and keeps the counts exactly repeatable for one seed.

A layer's self time is the time inside its spans minus the time covered by
child spans.  Only spans inside a timed operation (:meth:`Tracer.op`) or a
check region (:meth:`Tracer.region`) are recorded; calls made while building
engines between operations run unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

perf_counter = time.perf_counter


class Stopwatch:
    """Times operations; the untraced runs use this and nothing else."""

    def __init__(self) -> None:
        self.op_wall_s = 0.0

    @contextlib.contextmanager
    def op(self) -> Iterator["Lap"]:
        lap = Lap()
        start = perf_counter()
        try:
            yield lap
        finally:
            lap.seconds = perf_counter() - start
            self.op_wall_s += lap.seconds

    @contextlib.contextmanager
    def region(self) -> Iterator[None]:
        """An untimed stretch whose spans a tracer still records (checks)."""
        yield


class Lap:
    """Wall time of one operation, filled in when its block exits."""

    seconds = 0.0


# -- boundary table -----------------------------------------------------------------

# Pre-call hooks see (tracer, receiver); post-call hooks see (tracer, args,
# kwargs, result, pre) where ``pre`` is what the pre-call hook returned.  Hooks
# run only on the outermost call of a layer, so a caching backend wrapping a
# simulator backend counts once.


def _requests(tracer, args, kwargs, result, pre):
    tracer.counts["arrivals.requests"] += len(result)


def _see_pool(tracer, pool):
    tracer.see_pool(pool)


def _acquire(tracer, args, kwargs, result, pre):
    if not result[1]:
        tracer.counts["container.warm_hits"] += 1


def _cache_hits(tracer, backend) -> Optional[int]:
    return getattr(backend, "cache_hits", None)


def _backend_one(tracer, args, kwargs, result, pre):
    tracer.counts["backend.configurations"] += 1
    _backend_hits(tracer, args, pre)


def _backend_batch(tracer, args, kwargs, result, pre):
    tracer.counts["backend.configurations"] += len(result)
    _backend_hits(tracer, args, pre)


def _backend_hits(tracer, args, pre) -> None:
    if pre is not None:
        tracer.counts["backend.hits"] += args[0].cache_hits - pre


def _objective_batch(tracer, args, kwargs, result, pre):
    tracer.counts["objective.samples"] += len(result)


def _objective_one(tracer, args, kwargs, result, pre):
    tracer.counts["objective.samples"] += 1


def _serving_result(tracer, args, kwargs, result, pre):
    counts = tracer.counts
    counts["loop.requests"] += len(result.outcomes) + len(result.rejected)
    for outcome in result.outcomes:
        counts["faults.attempts"] += outcome.attempts
        counts["faults.base_invocations"] += outcome.base_invocations
        counts["protection.hedges"] += outcome.hedges
        counts["protection.hedge_wins"] += outcome.hedge_wins


def _batched_result(tracer, args, kwargs, result, pre):
    tracer.engine_paths[result.fallback_reason or "batched"] += 1


def _fleet_result(tracer, args, kwargs, result, pre):
    tracer.counts["loop.requests"] += result.offered


def _experiment_result(tracer, args, kwargs, result, pre):
    if result.control is not None:
        tracer.counts["control.retunes"] += result.control.retunes


def _event_loop_layer(parent_layer: Optional[str]) -> str:
    # The event loop's own time and the engine closures it fires belong to
    # whichever engine drives it.
    return "fleet" if parent_layer == "fleet" else "serving.dispatch"


@dataclass(frozen=True)
class Boundary:
    """One public method timed from outside.

    ``cls`` is wrapped together with every subclass that overrides
    ``method`` (abstract declarations are skipped); ``cls=None`` means
    ``method`` is a module-level function.  ``layer`` is a name, or a
    function of the calling span's layer.  ``count_only`` boundaries only
    count calls: their time stays with the caller.
    """

    module: str
    cls: Optional[str]
    method: str
    layer: Union[str, Callable[[Optional[str]], str]]
    post: Optional[Callable] = None
    pre: Optional[Callable] = None
    count_only: bool = False

    @property
    def label(self) -> str:
        return f"{self.cls}.{self.method}" if self.cls else self.method


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("repro.workloads.arrivals", "TrafficModel", "generate", "arrivals", _requests),
    Boundary("repro.workloads.arrivals", "TrafficModel", "generate_batch", "arrivals", _requests),
    Boundary("repro.workloads.arrivals", "DriftingTrafficModel", "generate", "arrivals", _requests),
    Boundary("repro.workloads.arrivals", "DriftingTrafficModel", "generate_batch", "arrivals", _requests),
    Boundary("repro.workloads.arrivals", "ArrivalBatch", "to_requests", "arrivals"),
    Boundary("repro.execution.events", "EventLoop", "run", _event_loop_layer),
    Boundary("repro.execution.events", "EventLoop", "schedule", "events", count_only=True),
    Boundary("repro.execution.serving", "ServingSimulator", "run", "serving", _serving_result),
    Boundary("repro.execution.serving_vectorized", "BatchedServingSimulator", "run", "batched", _batched_result),
    Boundary("repro.execution.container", "ContainerPool", "acquire", "container", _acquire, _see_pool),
    Boundary("repro.execution.container", "ContainerPool", "release", "container", pre=_see_pool),
    Boundary("repro.execution.container", "ContainerPool", "discard", "container", pre=_see_pool),
    Boundary("repro.execution.container", "ContainerPool", "kill", "container", pre=_see_pool),
    Boundary("repro.execution.backend", "EvaluationBackend", "evaluate", "backend", _backend_one, _cache_hits),
    Boundary("repro.execution.backend", "EvaluationBackend", "evaluate_batch", "backend", _backend_batch, _cache_hits),
    Boundary("repro.execution.executor", "WorkflowExecutor", "execute", "executor"),
    Boundary("repro.perfmodel.base", "FunctionPerformanceModel", "estimate", "perfmodel"),
    Boundary("repro.workflow.dag", "Workflow", "topological_order", "dag"),
    Boundary("repro.execution.faults", "FaultInjector", "plan_invocation", "faults"),
    Boundary("repro.execution.protection", "ProtectionGuard", "admit", "protection"),
    Boundary("repro.execution.protection", "ProtectionGuard", "observe_attempt", "protection"),
    Boundary("repro.execution.protection", "ProtectionGuard", "hedge_delay", "protection"),
    Boundary("repro.core.aarc", "AARC", "search", "core"),
    Boundary("repro.core.objective", "WorkflowObjective", "evaluate", "objective", _objective_one),
    Boundary("repro.core.objective", "WorkflowObjective", "evaluate_batch", "objective", _objective_batch),
    Boundary("repro.optimizers.bayesian", "BayesianOptimizer", "search", "optimizers"),
    Boundary("repro.optimizers.maff", "MAFFOptimizer", "search", "optimizers"),
    Boundary("repro.optimizers.gp", "GaussianProcessRegressor", "fit", "gp"),
    Boundary("repro.optimizers.gp", "GaussianProcessRegressor", "update", "gp"),
    Boundary("repro.optimizers.gp", "GaussianProcessRegressor", "predict", "gp"),
    Boundary("repro.execution.fleet", "FleetSimulator", "run", "fleet", _fleet_result),
    Boundary("repro.control.controller", "ReconfigurationController", "assign", "control"),
    Boundary("repro.control.controller", "ReconfigurationController", "observe_completion", "control"),
    Boundary("repro.experiments.serving_experiment", None, "run_serving_experiment", "experiments", _experiment_result),
    Boundary("repro.experiments.fuzzer", None, "check_invariants", "fuzzer"),
)

#: Modules whose subclasses of the boundary classes must be imported before
#: wrapping, so overrides living outside the base class's module are found.
_SUBCLASS_MODULES = (
    "repro.perfmodel.analytic",
    "repro.execution.vectorized",
    "repro.control.controller",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer(Stopwatch):
    """Stopwatch that also attributes each operation's time to layers."""

    def __init__(self) -> None:
        super().__init__()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.engine_paths: Counter = Counter()
        self.unattributed_s = 0.0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack: List[list] = []
        self._in_op = False
        self._gc_started: Optional[float] = None
        self._pools: Dict[int, Tuple[object, int]] = {}
        self._restore: List[Tuple[object, str, object]] = []

    # -- regions -------------------------------------------------------------------
    @contextlib.contextmanager
    def op(self) -> Iterator[Lap]:
        lap = Lap()
        root = [None, 0.0]
        self._stack.append(root)
        self._in_op = True
        start = perf_counter()
        try:
            yield lap
        finally:
            lap.seconds = perf_counter() - start
            self._in_op = False
            self._stack.pop()
            self.op_wall_s += lap.seconds
            self.unattributed_s += lap.seconds - root[1]
            self._harvest_pools()

    @contextlib.contextmanager
    def region(self) -> Iterator[None]:
        self._stack.append([None, 0.0])
        try:
            yield
        finally:
            self._stack.pop()

    def see_pool(self, pool) -> None:
        """Remember a warm pool so its eviction counter can be differenced."""
        if id(pool) not in self._pools:
            self._pools[id(pool)] = (pool, pool.evictions)

    def _harvest_pools(self) -> None:
        for pool, start in self._pools.values():
            self.counts["container.evictions"] += pool.evictions - start
        self._pools.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._in_op:
            return
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- installation ----------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the block."""
        for name in _SUBCLASS_MODULES:
            importlib.import_module(name)
        try:
            for boundary in BOUNDARIES:
                module = importlib.import_module(boundary.module)
                if boundary.cls is None:
                    self._patch(module, boundary.method, boundary)
                    continue
                for owner in _owners(getattr(module, boundary.cls), boundary.method):
                    self._patch(owner, boundary.method, boundary)
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, name, original in reversed(self._restore):
                setattr(owner, name, original)
            self._restore.clear()

    def _patch(self, owner, name: str, boundary: Boundary) -> None:
        original = owner.__dict__[name]
        self._restore.append((owner, name, original))
        if boundary.count_only:
            wrapper = self._counter(original, boundary.label)
        else:
            wrapper = self._span(original, boundary)
        setattr(owner, name, wrapper)

    def _counter(self, fn, label: str):
        counts = self.counts
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, boundary: Boundary):
        stack = self._stack
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        counts = self.counts
        label = boundary.label
        pre = boundary.pre
        post = boundary.post
        layer = boundary.layer
        resolve = layer if callable(layer) else None
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if resolve is None:
                own = layer
                outer = parent[0] != own
            else:
                # The event loop takes its caller's layer inside a fleet run but
                # never re-enters itself, so each of its calls is outermost.
                own = resolve(parent[0])
                outer = True
            token = pre(tracer, args[0]) if pre is not None and outer else None
            frame = [own, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[own] += elapsed - frame[1]
                parent[1] += elapsed
                if outer:
                    inclusive_s[label] += elapsed
                    counts[label] += 1
            if outer and post is not None:
                post(tracer, args, kwargs, result, token)
            return result

        return span

    # -- report --------------------------------------------------------------------------
    def metrics(self, untraced_wall_s: float) -> Dict[str, float]:
        """Every per-layer metric; a layer that did not run reports 0."""
        s = self.self_s
        c = self.counts
        acquires = c["ContainerPool.acquire"]
        return {
            "arrivals.self_s": s["arrivals"],
            "arrivals.requests": c["arrivals.requests"],
            "events.run_s": self.inclusive_s["EventLoop.run"],
            "events.scheduled_per_request": _ratio(
                c["EventLoop.schedule"], c["loop.requests"]
            ),
            "serving.dispatch_self_s": s["serving.dispatch"],
            "serving.summary_s": s["serving"],
            "container.self_s": s["container"],
            "container.acquires": acquires,
            "container.warm_hit_ratio": _ratio(c["container.warm_hits"], acquires),
            "container.evictions": c["container.evictions"],
            "container.fault_kills": c["ContainerPool.kill"],
            "backend.self_s": s["backend"],
            "backend.calls": c["EvaluationBackend.evaluate"]
            + c["EvaluationBackend.evaluate_batch"],
            "backend.hit_ratio": _ratio(c["backend.hits"], c["backend.configurations"]),
            "executor.self_s": s["executor"],
            "executor.executions": c["WorkflowExecutor.execute"],
            "perfmodel.self_s": s["perfmodel"],
            "perfmodel.calls": c["FunctionPerformanceModel.estimate"],
            "dag.self_s": s["dag"],
            "dag.topological_order_calls": c["Workflow.topological_order"],
            "faults.self_s": s["faults"],
            "faults.invocations": c["FaultInjector.plan_invocation"],
            "faults.retry_amplification": _ratio(
                c["faults.attempts"], c["faults.base_invocations"]
            ),
            "protection.self_s": s["protection"],
            "protection.hedge_win_ratio": _ratio(
                c["protection.hedge_wins"], c["protection.hedges"]
            ),
            "batched.self_s": s["batched"],
            "core.aarc_self_s": s["core"],
            "objective.self_s": s["objective"],
            "objective.samples": c["objective.samples"],
            "optimizers.self_s": s["optimizers"],
            "gp.self_s": s["gp"],
            "gp.calls": c["GaussianProcessRegressor.fit"]
            + c["GaussianProcessRegressor.update"]
            + c["GaussianProcessRegressor.predict"],
            "fleet.self_s": s["fleet"],
            "control.self_s": s["control"],
            "control.retunes": c["control.retunes"],
            "experiments.run_setup_s": s["experiments"],
            "fuzzer.check_s": s["fuzzer"],
            "gc.pause_s": self.gc_pause_s,
            "gc.collections": self.gc_collections,
            "trace.overhead_ratio": _ratio(self.op_wall_s, untraced_wall_s),
            "trace.unattributed_s": self.unattributed_s,
        }


def _owners(base: type, method: str) -> List[type]:
    """``base`` and every subclass that defines ``method`` concretely."""
    found: List[type] = []
    seen = set()
    pending = [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        fn = cls.__dict__.get(method)
        if fn is not None and not getattr(fn, "__isabstractmethod__", False):
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found
