"""Serverless execution simulator.

Stands in for the paper's Docker-on-Xeon testbed.  Given a workflow, a
per-function resource configuration and a performance model, the simulator
produces an execution trace: per-function runtimes and costs, start/finish
times respecting the DAG's dependencies, end-to-end latency, cold starts and
failures (out-of-memory).  A small cluster model provides affinity-aware
container co-location for platform-level studies.
"""

from repro.execution.trace import ExecutionStatus, ExecutionTrace, FunctionExecution
from repro.execution.container import Container, ContainerPool
from repro.execution.cluster import Cluster, Node, PlacementError, affinity_aware_placement
from repro.execution.executor import ExecutorOptions, WorkflowExecutor
from repro.execution.backend import (
    BACKEND_NAMES,
    BackendStats,
    CachingBackend,
    EvaluationBackend,
    ParallelBackend,
    SimulatorBackend,
    build_backend,
)
from repro.execution.vectorized import (
    BatchOutcome,
    VectorizedBackend,
    VectorizedWorkflowEngine,
)
from repro.execution.events import EventLoop, RequestArrival
from repro.execution.faults import (
    FAULT_PROFILE_NAMES,
    ExponentialBackoffRetry,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FixedRetry,
    InvocationOutcome,
    NoRetry,
    RetryPolicy,
    get_fault_profile,
)
from repro.execution.serving import (
    AutoscalerOptions,
    ServedRequest,
    ServingMetrics,
    ServingOptions,
    ServingResult,
    ServingSimulator,
)

__all__ = [
    "ExecutionStatus",
    "ExecutionTrace",
    "FunctionExecution",
    "Container",
    "ContainerPool",
    "BACKEND_NAMES",
    "BackendStats",
    "EvaluationBackend",
    "SimulatorBackend",
    "CachingBackend",
    "ParallelBackend",
    "BatchOutcome",
    "VectorizedBackend",
    "VectorizedWorkflowEngine",
    "build_backend",
    "Cluster",
    "Node",
    "PlacementError",
    "affinity_aware_placement",
    "ExecutorOptions",
    "WorkflowExecutor",
    "EventLoop",
    "RequestArrival",
    "FAULT_PROFILE_NAMES",
    "ExponentialBackoffRetry",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FixedRetry",
    "InvocationOutcome",
    "NoRetry",
    "RetryPolicy",
    "get_fault_profile",
    "AutoscalerOptions",
    "ServedRequest",
    "ServingMetrics",
    "ServingOptions",
    "ServingResult",
    "ServingSimulator",
]
