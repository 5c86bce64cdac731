"""The benchmark's four workloads, driven through the library's public API.

Every workload is a sequence of iterations.  Iteration ``i`` draws its inputs
from ``(workload, seed, i)`` only, runs a *primary* and a *secondary* timed
phase, and then checks its outputs outside the timed region.  The runner
reports each phase's total work over its total reference seconds (host
seconds corrected for the host's speed, see ``calibrate``) as
``primary_per_s`` and ``secondary_per_s``; what the work is differs per
workload (see ``PRIMARY`` / ``SECONDARY`` on each class and the README).

Constructing a workload object is the set-up that ``setup_s`` times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import statistics
import sys
import traceback
import zlib
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import calibrate
import checks

#: Index of the warm-up iteration, which runs before timing starts.
WARMUP = -1


def iteration_seed(workload: str, seed: int, index: int) -> int:
    """Seed of one iteration's inputs: depends on nothing but its arguments."""
    return zlib.crc32(f"{workload}/{seed}/{index}".encode("ascii"))


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    reference: calibrate.Reference = dataclasses.field(default_factory=calibrate.Reference)
    _phase: Optional[calibrate.Phase] = None

    @contextlib.contextmanager
    def phase(self) -> Iterator[calibrate.Phase]:
        """Collect the operations timed inside the block into one phase."""
        self._phase = calibrate.Phase(self.reference)
        try:
            yield self._phase
        finally:
            self._phase = None

    def timed(self, clock, name: str, fn: Callable, ops: int = 1):
        """Run ``fn`` as ``ops`` timed operations and return its result.

        A raise counts every operation as failed, prints its traceback to
        standard error and returns ``None``.  Every operation starts
        from a collected heap, so a collection owed to an earlier operation's
        garbage never lands inside this one.  Inside :meth:`phase`, the
        operation joins the phase; reference loops run around it as
        :class:`calibrate.Reference` decides.
        """
        self.attempted += ops
        gc.collect()
        before = self.reference.before_op()
        try:
            with clock.op() as lap:
                result = fn()
        except Exception as exc:  # an operation that raises is a failure, not a crash
            traceback.print_exc(file=sys.stderr)
            self.failed += ops
            self.problems.append(f"{name} raised {exc!r}")
            return None
        finally:
            self.reference.after_op()
        if self._phase is not None:
            self._phase.ops.append((lap.seconds, before))
        return result

    def check(self, name: str, problems: List[str]) -> None:
        """An operation whose check found problems counts as failed."""
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {problem}" for problem in problems)


@dataclasses.dataclass
class Iteration:
    """Timings and outputs of one iteration (``None`` where an op failed).

    A phase is ``(work, calibrate.Phase)``.
    """

    primary: Optional[Tuple[float, calibrate.Phase]] = None
    secondary: Optional[Tuple[float, calibrate.Phase]] = None
    digest: object = None
    fallback_reason: Optional[str] = None


def reference_rate(iterations: List[Iteration], phase: str) -> float:
    """Total work over total reference seconds of one phase across all iterations."""
    work = seconds = 0.0
    for iteration in iterations:
        done = getattr(iteration, phase)
        if done:
            work += done[0]
            seconds += done[1].reference_s()
    return work / seconds if seconds > 0 else float("nan")


def nearest_rank(values: List[float], q: float) -> float:
    """The ``q``-th percentile by the nearest-rank rule (an observed value)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Workload:
    """What every workload provides besides ``__init__`` (set-up) and ``iterate``.

    ``PRIMARY`` and ``SECONDARY`` name the work each phase's rate counts.
    """

    name: str
    PRIMARY: Tuple[str, str]
    SECONDARY: Tuple[str, str]
    #: Iterations of a traced run (a fixed amount, so counts repeat).
    TRACE_ITERATIONS: int

    def enough(self, iterations: List[Iteration]) -> bool:
        """Whether the iterations so far hold every sample the metrics need."""
        return True

    def named(self, iterations: List[Iteration]) -> List[Tuple[str, float, str]]:
        """The workload's metrics under their own names: (name, value, unit)."""
        return [
            (self.PRIMARY[0], reference_rate(iterations, "primary"), self.PRIMARY[1]),
            (self.SECONDARY[0], reference_rate(iterations, "secondary"), self.SECONDARY[1]),
        ]


# -- serving ---------------------------------------------------------------------------


class _Serving(Workload):
    """Shared shape of the two serving workloads.

    Each iteration generates one Poisson trace and serves it twice from
    fresh engines: the event engine times the trace generation plus the run
    (``serve_rps``), then the batched engine does the same on a trace it
    generates through the array path (``serve_batched_rps``).  Both traces
    and both results must be identical.
    """

    PRIMARY = ("serve_rps", "served simulated requests / reference s, event engine")
    SECONDARY = ("serve_batched_rps", "served simulated requests / reference s, batched engine")
    WORKFLOW = "chatbot"
    TRACE_ITERATIONS = 8

    rate_rps: float
    horizon_s: float

    def __init__(self, seed: int) -> None:
        from repro.workloads.registry import get_workload

        self.seed = seed
        self.workload = get_workload(self.WORKFLOW)
        self.traffic = self.workload.traffic_model(arrival="poisson", rate_rps=self.rate_rps)

    def _engine_kwargs(self, seed: int) -> dict:
        return {}

    def _engine(self, name: str, seed: int):
        from repro.execution.backend import build_backend
        from repro.execution.serving import ServingOptions
        from repro.execution.serving_vectorized import build_serving_engine

        executor = self.workload.build_executor()
        return build_serving_engine(
            name,
            workflow=self.workload.workflow,
            executor=executor,
            backend=build_backend(executor, name="simulator", cache=True),
            slo=self.workload.slo,
            options=ServingOptions(),
            **self._engine_kwargs(seed),
        )

    def iterate(self, index: int, clock, tally: Tally) -> Iteration:
        from repro.utils.rng import RngStream

        seed = iteration_seed(self.name, self.seed, index)
        configuration = self.configuration
        stream = f"traffic/{self.workload.name}"
        horizon = self.horizon_s

        def configuration_for(_request):
            return configuration

        event, batched = self._engine("event", seed), self._engine("batched", seed)

        def serve_event():
            requests = self.traffic.generate(horizon, RngStream(seed, stream))
            return requests, event.run(requests, configuration_for, duration_seconds=horizon)

        def serve_batched():
            requests = self.traffic.generate_batch(horizon, RngStream(seed, stream)).to_requests()
            return requests, batched.run(requests, configuration_for, duration_seconds=horizon)

        iteration = Iteration()
        with tally.phase() as event_phase:
            ran_event = tally.timed(clock, "event run", serve_event)
        with tally.phase() as batched_phase:
            ran_batched = tally.timed(clock, "batched run", serve_batched)
        if ran_event is not None:
            requests, result = ran_event
            tally.check("event run", checks.conservation(requests, result))
            iteration.primary = (len(result.outcomes), event_phase)
            iteration.digest = dataclasses.asdict(result.metrics)
        if ran_batched is not None:
            requests, result = ran_batched
            problems = checks.conservation(requests, result)
            if ran_event is not None:
                if requests != ran_event[0]:
                    problems.append("the batched trace differs from the event trace")
                problems += checks.same_metrics(ran_event[1].metrics, result.metrics)
            tally.check("batched run", problems)
            iteration.secondary = (len(result.outcomes), batched_phase)
            iteration.fallback_reason = result.fallback_reason or "none"
        return iteration

    def params(self, iterations: List[Iteration]) -> Dict[str, object]:
        fallbacks = sorted({i.fallback_reason for i in iterations if i.fallback_reason})
        return {
            "workflow": self.WORKFLOW,
            "arrival": "poisson",
            "rate_rps": self.rate_rps,
            "horizon_s": self.horizon_s,
            "configuration": self.configuration_source,
            **self.extra_params,
            "engines": "event, then batched on the identical trace",
            "batched_fallback_reason": ", ".join(fallbacks),
        }


class ServeOpen(_Serving):
    """Base configuration, unlimited cluster, no faults.

    No ledger, queue or fault work runs, so a request costs arrival
    generation, the event heap, warm-pool churn and one backend cache hit;
    it is the only case the batched engine serves itself.
    """

    name = "serve-open"
    rate_rps = 100.0
    horizon_s = 10.0
    configuration_source = "base"
    extra_params = {"nodes": 0, "faults": None, "protection": None}
    TRACE_ITERATIONS = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.configuration = self.workload.base_configuration()


class ServeContended(_Serving):
    """AARC's configuration on 64 nodes under ``chaos`` faults and ``full`` protection.

    Every dispatch walks the cluster ledger and every invocation draws fault
    outcomes; retries, hedges, breakers and shedding all fire.  The batched
    engine falls back to the event engine here (``fallback_reason`` is
    ``faults``), so ``serve_batched_rps`` times that fallback path.
    """

    name = "serve-contended"
    rate_rps = 1.0
    horizon_s = 150.0
    nodes = 64
    configuration_source = "AARC search (part of set-up)"
    extra_params = {"nodes": 64, "faults": "chaos", "protection": "full"}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.experiments.harness import ExperimentSettings, build_objective, make_searcher

        settings = ExperimentSettings(seed=seed)
        result = make_searcher("AARC", self.workload, settings).search(
            build_objective(self.workload, settings)
        )
        if not result.found_feasible:
            raise RuntimeError("AARC found no feasible configuration for chatbot")
        self.configuration = result.best_configuration

    def _engine_kwargs(self, seed: int) -> dict:
        from repro.execution.cluster import Cluster
        from repro.experiments.serving_experiment import (
            resolve_fault_plan,
            resolve_protection_policy,
        )

        return {
            "cluster": Cluster.homogeneous(
                self.nodes, vcpu_per_node=16.0, memory_per_node_mb=65536.0
            ),
            "faults": resolve_fault_plan("chaos", self.workload, seed),
            "protection": resolve_protection_policy("full", self.workload, seed),
        }


# -- search --------------------------------------------------------------------------


class Search(Workload):
    """AARC, BO and MAFF on the paper's three workloads (``repro compare`` defaults).

    Simulator backend, no cache: every sample runs the executor, the
    performance model and a DAG traversal, and BO adds the GP.  No serving
    layer runs.  An iteration is a block of individually timed AARC searches
    (``aarc_search_ms_*``) and one full three-method, three-workload
    comparison (``compare_s``); BO's seed comes from the iteration seed.
    """

    name = "search"
    PRIMARY = ("aarc_searches_per_s", "AARC searches / reference s")
    SECONDARY = ("compares_per_s", "AARC+BO+MAFF x 3-workload comparisons / reference s")
    AARC_REPEATS = 4
    #: p90 needs at least ten samples beyond it.
    MIN_AARC_SAMPLES = 110
    TRACE_ITERATIONS = 4

    def __init__(self, seed: int) -> None:
        from repro.experiments.harness import DEFAULT_METHODS, DEFAULT_WORKLOADS
        from repro.workloads.registry import get_workload

        self.seed = seed
        self.methods = list(DEFAULT_METHODS)
        self.workloads = [get_workload(name) for name in DEFAULT_WORKLOADS]

    def iterate(self, index: int, clock, tally: Tally) -> Iteration:
        from repro.experiments.harness import ExperimentSettings, build_objective, make_searcher

        settings = ExperimentSettings(seed=iteration_seed(self.name, self.seed, index))
        iteration = Iteration()
        aarc: Dict[str, List[object]] = {w.name: [] for w in self.workloads}
        with tally.phase() as aarc_phase:
            for _ in range(self.AARC_REPEATS):
                for workload in self.workloads:
                    objective = build_objective(workload, settings)
                    searcher = make_searcher("AARC", workload, settings)
                    result = tally.timed(
                        clock, f"AARC on {workload.name}", lambda: searcher.search(objective)
                    )
                    if result is not None:
                        aarc[workload.name].append(result)
        if aarc_phase.ops:
            iteration.primary = (len(aarc_phase.ops), aarc_phase)

        def compare():
            results = {}
            for workload in self.workloads:
                # One backend per workload shared by the methods, as `repro compare` does.
                backend = workload.build_backend(
                    backend=settings.backend, cache=settings.cache, workers=settings.workers
                )
                for method in self.methods:
                    searcher = make_searcher(method, workload, settings)
                    objective = workload.build_objective(backend=backend)
                    results[workload.name, method] = searcher.search(objective)
            return results

        with tally.phase() as compare_phase:
            compared = tally.timed(
                clock, "comparison", compare, ops=len(self.workloads) * len(self.methods)
            )
        if compared is not None:
            iteration.secondary = (1, compare_phase)
            for workload in self.workloads:
                tally.check(
                    f"comparison on {workload.name}",
                    self._check(workload, compared, aarc[workload.name]),
                )
            iteration.digest = sorted(
                [name, method, result.best_cost, result.sample_count]
                for (name, method), result in compared.items()
            )
        return iteration

    def _check(self, workload, compared, aarc_runs) -> List[str]:
        problems: List[str] = []
        best = compared[workload.name, "AARC"]
        if not best.found_feasible:
            return ["AARC found no feasible configuration"]
        trace = workload.build_executor().execute(workload.workflow, best.best_configuration)
        if not trace.succeeded or not workload.slo.is_met(trace.end_to_end_latency):
            problems.append("AARC's configuration misses the SLO on a fresh executor")
        for method in self.methods:
            other = compared[workload.name, method]
            if other.found_feasible and best.best_cost > other.best_cost:
                problems.append(
                    f"AARC cost {best.best_cost:.1f} above {method}'s {other.best_cost:.1f}"
                )
        if any(run.best_cost != best.best_cost for run in aarc_runs):
            problems.append("repeated AARC searches disagree")
        return problems

    def enough(self, iterations: List[Iteration]) -> bool:
        return sum(i.primary[0] for i in iterations if i.primary) >= self.MIN_AARC_SAMPLES

    def named(self, iterations: List[Iteration]) -> List[Tuple[str, float, str]]:
        aarc_ms = [1000.0 * s for i in iterations if i.primary for s in i.primary[1].op_reference_s()]
        compare_s = [i.secondary[1].reference_s() for i in iterations if i.secondary]
        return [
            ("aarc_search_ms_p50", nearest_rank(aarc_ms, 50), f"reference ms per AARC.search (n={len(aarc_ms)})"),
            ("aarc_search_ms_p90", nearest_rank(aarc_ms, 90), f"reference ms per AARC.search (n={len(aarc_ms)})"),
            ("compare_s", statistics.median(compare_s) if compare_s else float("nan"),
             f"reference s per comparison, median (n={len(compare_s)})"),
            *super().named(iterations),
        ]

    def params(self, iterations: List[Iteration]) -> Dict[str, object]:
        return {
            "workflows": [w.name for w in self.workloads],
            "methods": self.methods,
            "aarc_repeats_per_iteration": self.AARC_REPEATS,
            "backend": "simulator",
            "cache": False,
            "engines": "none (no serving)",
        }


# -- scenarios ------------------------------------------------------------------------


class Scenarios(Workload):
    """A serial fuzz campaign plus the fleet suite.

    Each iteration runs the next ``GENES`` genes of the campaign rooted at
    the seed (gene *i* depends only on ``(i, seed)``, so the genes run are a
    prefix of ``repro fuzz --seed <seed>``), invariant-checking each report,
    then the four-scenario fleet suite at seed 717.  Hundreds of 40-80 s runs
    on 3-node clusters make per-run work (construction, the executor's probe
    and re-tune executions, the control loop) weigh far more than in the
    serving workloads.
    """

    name = "scenarios"
    PRIMARY = ("fuzz_genes_per_s", "fuzz genes / reference s")
    SECONDARY = ("fleet_rps", "simulated requests / reference s over the fleet suite")
    #: Gene costs vary widely (coefficient of variation ~0.8), so a run needs
    #: hundreds of genes before the campaign it draws stops moving its rate.
    GENES = 50
    FLEET_SEED = 717
    FLEET_HORIZON_S = 3600.0
    TRACE_ITERATIONS = 2

    def __init__(self, seed: int) -> None:
        from repro.experiments import fleet_experiment, fuzzer, serving_experiment

        self.seed = seed
        self.fuzzer = fuzzer
        self.serving = serving_experiment
        self.fleet = fleet_experiment
        self.fleet_runs = sum(
            len(fleet_experiment.build_fleet_scenario(name).policies)
            for name in fleet_experiment.FLEET_SCENARIO_NAMES
        )

    def _genes(self, index: int):
        if index == WARMUP:
            # Warm-up genes come from a campaign no timed iteration uses.
            return [self.fuzzer.sample_gene(i, self.seed + 1) for i in range(self.GENES)]
        first = index * self.GENES
        return [self.fuzzer.sample_gene(i, self.seed) for i in range(first, first + self.GENES)]

    def iterate(self, index: int, clock, tally: Tally) -> Iteration:
        iteration = Iteration()
        digest = []
        with tally.phase() as genes_phase:
            for gene in self._genes(index):
                settings = self.fuzzer.gene_settings(gene)
                report = tally.timed(
                    clock,
                    f"gene {gene.index}",
                    lambda: self.serving.run_serving_experiment(gene.workload, settings),
                )
                if report is None:
                    continue
                with clock.region():
                    violations = self.fuzzer.check_invariants(report)
                tally.check(f"gene {gene.index} ({gene.describe()})", violations)
                digest.append([dataclasses.asdict(gene), dataclasses.asdict(report.metrics)])
        if genes_phase.ops:
            iteration.primary = (len(genes_phase.ops), genes_phase)

        with tally.phase() as fleet_phase:
            suite = tally.timed(
                clock,
                "fleet suite",
                lambda: self.fleet.run_fleet_suite(
                    seed=self.FLEET_SEED, duration_seconds=self.FLEET_HORIZON_S
                ),
                ops=self.fleet_runs,
            )
        if suite is not None:
            offered = 0
            for scenario in suite.scenarios:
                for policy, run in scenario.runs.items():
                    offered += run.offered
                    problems: List[str] = []
                    for name, tenant in run.tenants.items():
                        problems += checks.tenant_conservation(name, tenant)
                        digest.append(
                            [scenario.name, policy, name, dataclasses.asdict(tenant.metrics)]
                        )
                    tally.check(f"fleet {scenario.name}/{policy}", problems)
            iteration.secondary = (offered, fleet_phase)
        iteration.digest = digest
        return iteration

    def params(self, iterations: List[Iteration]) -> Dict[str, object]:
        return {
            "fuzz_campaign_seed": self.seed,
            "genes_per_iteration": self.GENES,
            "fleet_seed": self.FLEET_SEED,
            "fleet_horizon_s": self.FLEET_HORIZON_S,
            "engines": "event (genes run the serving experiment's default engine)",
        }


WORKLOADS = {cls.name: cls for cls in (ServeOpen, ServeContended, Search, Scenarios)}
