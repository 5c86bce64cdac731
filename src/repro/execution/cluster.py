"""Cluster model with affinity-aware container placement.

The paper's framework hands the discovered per-function configurations to the
cloud infrastructure "for subsequent container resource allocation" (step ❼).
This module models that last step: a set of nodes with CPU and memory
capacity, and a placement policy that co-locates containers with
*complementary* resource affinities (CPU-hungry next to memory-hungry) so
that node capacity in both dimensions is used evenly — the affinity-aware
co-location that gives the paper its name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.workflow.resources import ResourceConfig, WorkflowConfiguration

__all__ = [
    "Node",
    "Cluster",
    "PlacementError",
    "PlacementIndex",
    "ScoreFn",
    "affinity_aware_placement",
    "balanced_score",
]


class PlacementError(RuntimeError):
    """Raised when a container cannot be placed on any node."""


@dataclass
class Node:
    """A worker node with finite CPU and memory capacity.

    ``instance_type`` names the catalog shape the node was provisioned from
    (``None`` for ad-hoc homogeneous nodes); ``price_multiplier`` scales
    per-request billing for work hosted on this node, and ``spot`` marks
    preemptible capacity subject to eviction schedules.
    """

    name: str
    vcpu_capacity: float
    memory_capacity_mb: float
    vcpu_used: float = 0.0
    memory_used_mb: float = 0.0
    placements: List[Tuple[str, ResourceConfig]] = field(default_factory=list)
    healthy: bool = True
    instance_type: Optional[str] = None
    price_multiplier: float = 1.0
    spot: bool = False

    def __post_init__(self) -> None:
        if self.vcpu_capacity <= 0 or self.memory_capacity_mb <= 0:
            raise ValueError("node capacities must be positive")

    # -- capacity queries -------------------------------------------------------
    def can_fit(self, config: ResourceConfig) -> bool:
        """Whether the node has room for one more container of this size."""
        return (
            self.healthy
            and self.vcpu_used + config.vcpu <= self.vcpu_capacity + 1e-9
            and self.memory_used_mb + config.memory_mb <= self.memory_capacity_mb + 1e-9
        )

    def place(self, function_name: str, config: ResourceConfig) -> None:
        """Reserve capacity for one container."""
        if not self.can_fit(config):
            raise PlacementError(
                f"container for {function_name!r} ({config.describe()}) does not fit on node {self.name!r}"
            )
        self.vcpu_used += config.vcpu
        self.memory_used_mb += config.memory_mb
        self.placements.append((function_name, config))

    def remove(self, function_name: str) -> None:
        """Release the capacity of one previously placed container."""
        for index, (name, config) in enumerate(self.placements):
            if name == function_name:
                del self.placements[index]
                self.vcpu_used -= config.vcpu
                self.memory_used_mb -= config.memory_mb
                return
        raise KeyError(f"function {function_name!r} is not placed on node {self.name!r}")

    # -- utilisation -----------------------------------------------------------
    @property
    def cpu_utilization(self) -> float:
        """Fraction of CPU capacity in use."""
        return self.vcpu_used / self.vcpu_capacity

    @property
    def memory_utilization(self) -> float:
        """Fraction of memory capacity in use."""
        return self.memory_used_mb / self.memory_capacity_mb

    @property
    def imbalance(self) -> float:
        """Absolute gap between CPU and memory utilisation.

        A node packed only with CPU-hungry containers strands memory (and
        vice versa); affinity-aware placement tries to keep this gap small.
        """
        return abs(self.cpu_utilization - self.memory_utilization)


class Cluster:
    """A fixed set of nodes accepting container placements."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        self._nodes: Dict[str, Node] = {node.name: node for node in nodes}

    @classmethod
    def homogeneous(
        cls, n_nodes: int, vcpu_per_node: float = 16.0, memory_per_node_mb: float = 65536.0
    ) -> "Cluster":
        """Build a cluster of identical nodes."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        nodes = [
            Node(name=f"node-{i}", vcpu_capacity=vcpu_per_node, memory_capacity_mb=memory_per_node_mb)
            for i in range(n_nodes)
        ]
        return cls(nodes)

    # -- accessors --------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """All nodes."""
        return list(self._nodes.values())

    def node(self, name: str) -> Node:
        """Look up one node by name."""
        return self._nodes[name]

    @property
    def total_vcpu_capacity(self) -> float:
        """Aggregate CPU capacity."""
        return sum(n.vcpu_capacity for n in self._nodes.values())

    @property
    def total_memory_capacity_mb(self) -> float:
        """Aggregate memory capacity."""
        return sum(n.memory_capacity_mb for n in self._nodes.values())

    @property
    def total_healthy_vcpu_capacity(self) -> float:
        """Aggregate CPU capacity over nodes currently accepting placements."""
        return sum(n.vcpu_capacity for n in self._nodes.values() if n.healthy)

    @property
    def total_healthy_memory_capacity_mb(self) -> float:
        """Aggregate memory capacity over nodes currently accepting placements."""
        return sum(n.memory_capacity_mb for n in self._nodes.values() if n.healthy)

    @property
    def is_heterogeneous(self) -> bool:
        """Whether nodes differ in shape (capacity, pricing, or spot status)."""
        shapes = {
            (n.vcpu_capacity, n.memory_capacity_mb, n.price_multiplier, n.spot)
            for n in self._nodes.values()
        }
        return len(shapes) > 1

    def placement_of(self, function_name: str) -> Optional[str]:
        """Name of the node hosting a function's container, if any."""
        for node in self._nodes.values():
            if any(name == function_name for name, _ in node.placements):
                return node.name
        return None

    def utilization_summary(self) -> Dict[str, Tuple[float, float]]:
        """Per-node (cpu, memory) utilisation fractions."""
        return {
            name: (node.cpu_utilization, node.memory_utilization)
            for name, node in self._nodes.items()
        }

    def mean_imbalance(self) -> float:
        """Average CPU/memory utilisation gap across nodes hosting containers."""
        occupied = [n for n in self._nodes.values() if n.placements]
        if not occupied:
            return 0.0
        return sum(n.imbalance for n in occupied) / len(occupied)

    # -- failure model ----------------------------------------------------------
    def fail_node(self, name: str) -> List[str]:
        """Take one node down, evicting every resident container.

        Returns the names of the evicted placements so the serving layer can
        reschedule the affected requests.  Failing an already-down node is a
        no-op returning an empty list.
        """
        node = self._nodes[name]
        if not node.healthy:
            return []
        evicted = [placement_name for placement_name, _ in node.placements]
        node.placements.clear()
        node.vcpu_used = 0.0
        node.memory_used_mb = 0.0
        node.healthy = False
        return evicted

    def restore_node(self, name: str) -> None:
        """Bring a failed node back (empty, with its full capacity)."""
        self._nodes[name].healthy = True

    @property
    def healthy_nodes(self) -> List[Node]:
        """Nodes currently accepting placements."""
        return [node for node in self._nodes.values() if node.healthy]

    def reset(self) -> None:
        """Remove all placements (and bring failed nodes back up)."""
        for node in self._nodes.values():
            node.placements.clear()
            node.vcpu_used = 0.0
            node.memory_used_mb = 0.0
            node.healthy = True


#: Score of one candidate node: ``score(node, projected_cpu, projected_mem)``
#: with the node's CPU and memory utilisation after hosting the container.
#: Lower keys win; a key must end with ``node.name`` (the final tie-break).
ScoreFn = Callable[[Node, float, float], Tuple]


def balanced_score(node: Node, projected_cpu: float, projected_mem: float) -> Tuple:
    """Affinity-aware key: smallest CPU/memory imbalance, then load, then name."""
    return (
        round(abs(projected_cpu - projected_mem), 9),
        round(projected_cpu + projected_mem, 9),
        node.name,
    )


class _ShapeTable:
    """Score keys of one request shape: node name → key, for nodes it fits on."""

    __slots__ = ("config", "cap", "keys", "dirty")

    def __init__(self, config: ResourceConfig, cap: Optional[float]) -> None:
        self.config = config
        self.cap = cap
        self.keys: Dict[str, Tuple] = {}
        self.dirty: Dict[str, Node] = {}

    def rescore(self, nodes: Iterable[Node], score: ScoreFn) -> None:
        config, cap, keys = self.config, self.cap, self.keys
        for node in nodes:
            if node.can_fit(config):
                projected_cpu = (node.vcpu_used + config.vcpu) / node.vcpu_capacity
                projected_mem = (node.memory_used_mb + config.memory_mb) / node.memory_capacity_mb
                if cap is None or max(projected_cpu, projected_mem) <= cap + 1e-9:
                    keys[node.name] = score(node, projected_cpu, projected_mem)
                    continue
            keys.pop(node.name, None)

    def refresh(self, score: ScoreFn) -> None:
        self.rescore(self.dirty.values(), score)
        self.dirty.clear()


class PlacementIndex:
    """Incremental best-node lookup for a ledger placing containers on a cluster.

    One table per request shape ``(vcpu, memory_mb, cap)`` maps every node
    the shape fits on to its score key, so a query is ``min`` over cached
    keys instead of a scan that re-scores every node.  ``cap`` (``None`` for
    none) additionally bars nodes whose projected CPU or memory utilisation
    would exceed it.  The owning ledger calls :meth:`mark_dirty` for every
    node whose usage or health it changes; a table re-scores only its own
    dirty nodes, and only when its shape is next queried.  Keys come from
    the same expressions on the same node state as a full scan, and end
    with the node name, so the pick is exactly the scan's.
    """

    def __init__(self, cluster: Cluster, score: ScoreFn) -> None:
        self._nodes = cluster.nodes
        self._by_name = {node.name: node for node in self._nodes}
        self._score = score
        self._tables: Dict[Tuple, _ShapeTable] = {}

    def mark_dirty(self, node: Node) -> None:
        """Record that ``node``'s usage or health changed."""
        for table in self._tables.values():
            table.dirty[node.name] = node

    def best(self, config: ResourceConfig, cap: Optional[float] = None) -> Optional[Node]:
        """The node a full scan would choose for ``config``, or ``None``."""
        shape = (config.vcpu, config.memory_mb, cap)
        table = self._tables.get(shape)
        if table is None:
            table = self._tables[shape] = _ShapeTable(config, cap)
            table.rescore(self._nodes, self._score)
        else:
            table.refresh(self._score)
        if not table.keys:
            return None
        return self._by_name[min(table.keys.values())[-1]]

    def tables(self) -> Dict[Tuple, Dict[str, Tuple]]:
        """Every table brought up to date: shape → node name → score key."""
        for table in self._tables.values():
            table.refresh(self._score)
        return {shape: dict(table.keys) for shape, table in self._tables.items()}


def affinity_aware_placement(
    cluster: Cluster,
    configuration: WorkflowConfiguration,
    affinities: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    """Place one container per function, balancing CPU vs memory pressure.

    The policy scores each candidate node by the CPU/memory utilisation
    imbalance it would have *after* hosting the container and picks the node
    that minimises it (ties broken by lower total utilisation, then name).
    Containers are considered in decreasing order of their dominant resource
    share so the large ones are placed while the most freedom remains.

    Parameters
    ----------
    cluster:
        The target cluster (mutated: placements are recorded on its nodes).
    configuration:
        Function → resource allocation to place.
    affinities:
        Optional function → affinity-label mapping (e.g. ``"cpu-bound"``);
        only used to prefer spreading same-affinity containers across nodes.

    Returns
    -------
    dict
        Function name → node name.

    Raises
    ------
    PlacementError
        If some container fits on no node.
    """
    affinities = dict(affinities or {})

    # Normalise by the capacity actually available: failed nodes cannot host
    # containers, and counting them shrinks every share by the same *absolute*
    # amount — which reorders heterogeneous configs whose dominant dimension
    # differs (the cpu- and memory-capacity pools shrink by different factors).
    cpu_capacity = cluster.total_healthy_vcpu_capacity
    mem_capacity = cluster.total_healthy_memory_capacity_mb
    if cpu_capacity <= 0 or mem_capacity <= 0:
        cpu_capacity = cluster.total_vcpu_capacity
        mem_capacity = cluster.total_memory_capacity_mb

    def dominant_share(config: ResourceConfig) -> float:
        cpu_share = config.vcpu / cpu_capacity
        mem_share = config.memory_mb / mem_capacity
        return max(cpu_share, mem_share)

    assignment: Dict[str, str] = {}
    ordered = sorted(
        configuration.items(), key=lambda item: (-dominant_share(item[1]), item[0])
    )
    for function_name, config in ordered:
        best_node: Optional[Node] = None
        best_key: Optional[Tuple[float, float, int, str]] = None
        for node in cluster.nodes:
            if not node.can_fit(config):
                continue
            projected_cpu = (node.vcpu_used + config.vcpu) / node.vcpu_capacity
            projected_mem = (node.memory_used_mb + config.memory_mb) / node.memory_capacity_mb
            imbalance = abs(projected_cpu - projected_mem)
            same_affinity = sum(
                1
                for placed_name, _ in node.placements
                if affinities.get(placed_name) is not None
                and affinities.get(placed_name) == affinities.get(function_name)
            )
            key = (
                round(imbalance, 9),
                round(projected_cpu + projected_mem, 9),
                same_affinity,
                node.name,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_node = node
        if best_node is None:
            raise PlacementError(
                f"no node can host container for {function_name!r} ({config.describe()})"
            )
        best_node.place(function_name, config)
        assignment[function_name] = best_node.name
    return assignment
