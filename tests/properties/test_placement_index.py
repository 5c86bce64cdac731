"""Hypothesis tests: the incremental placement index equals a full node scan.

Both cluster ledgers look placements up in a
:class:`~repro.execution.cluster.PlacementIndex` that re-scores only the
nodes the ledger changed.  These tests drive a ledger through random
interleavings of reserve, release, node failure and node recovery and check,
after every step, that

* every node the index hands out is the node a full scan over all nodes
  (written out below, independently of the library) would have chosen, and
* every index table equals a fresh rescan of the cluster;

on homogeneous and heterogeneous instance-catalog clusters, for the serving
ledger and all three fleet policies, on both sides of the ``priority`` cap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.cluster import Cluster
from repro.execution.fleet import PLACEMENT_POLICIES, _FleetLedger
from repro.execution.instances import build_cluster, instance_catalog
from repro.execution.serving import _ClusterLedger
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration


def imbalance_first(name, cpu, mem):
    return (round(abs(cpu - mem), 9), round(cpu + mem, 9), name)


def load_first(name, cpu, mem):
    return (round(cpu + mem, 9), round(abs(cpu - mem), 9), name)


def scan(nodes, config, order, cap):
    """Name → key for every node ``config`` may go on, in node order."""
    keys = {}
    for node in nodes:
        if not node.healthy:
            continue
        if node.vcpu_used + config.vcpu > node.vcpu_capacity + 1e-9:
            continue
        if node.memory_used_mb + config.memory_mb > node.memory_capacity_mb + 1e-9:
            continue
        cpu = (node.vcpu_used + config.vcpu) / node.vcpu_capacity
        mem = (node.memory_used_mb + config.memory_mb) / node.memory_capacity_mb
        if cap is not None and max(cpu, mem) > cap + 1e-9:
            continue
        keys[node.name] = order(node.name, cpu, mem)
    return keys


def scan_pick(nodes, config, order, cap):
    """The historical full scan: first node with the strictly smallest key."""
    best = None
    best_key = None
    for name, key in scan(nodes, config, order, cap).items():
        if best_key is None or key < best_key:
            best, best_key = name, key
    return best


# A small pool of shapes so tables are reused across requests, plus free draws.
pooled = st.sampled_from(
    [
        ResourceConfig(1, 2048),
        ResourceConfig(2, 1024),
        ResourceConfig(0.5, 8192),
        ResourceConfig(4, 4096),
        ResourceConfig(1, 2048.0),
    ]
)
drawn = st.builds(
    ResourceConfig,
    vcpu=st.floats(min_value=0.25, max_value=6.0),
    memory_mb=st.floats(min_value=128.0, max_value=20000.0),
)
requests = st.lists(st.one_of(pooled, pooled, drawn), min_size=1, max_size=4)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"), requests, st.integers(0, 1)),
        st.tuples(st.just("release"), st.integers(0, 50)),
        st.tuples(st.just("fail"), st.integers(0, 50)),
        st.tuples(st.just("restore"), st.integers(0, 50)),
    ),
    min_size=1,
    max_size=40,
)
homogeneous = st.builds(
    Cluster.homogeneous,
    st.integers(1, 6),
    vcpu_per_node=st.sampled_from([4.0, 8.0, 16.0]),
    memory_per_node_mb=st.sampled_from([8192.0, 16384.0]),
)
heterogeneous = st.lists(
    st.tuples(st.sampled_from(sorted(instance_catalog())), st.integers(1, 2)),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: pair[0],
).map(build_cluster)
clusters = st.one_of(homogeneous, heterogeneous)
ledgers = st.sampled_from(("serving",) + PLACEMENT_POLICIES)


def build_ledger(kind, cluster, reserve):
    """The ledger under test plus its scan order and per-priority cap."""
    if kind == "serving":
        return _ClusterLedger(cluster), imbalance_first, lambda priority: None
    ledger = _FleetLedger(cluster, policy=kind, reserve_fraction=reserve, max_priority=1)
    order = imbalance_first if kind == "bin-packing" else load_first

    def cap_of(priority):
        if kind == "priority" and priority < 1:
            return 1.0 - reserve
        return 1.0

    return ledger, order, cap_of


@given(
    kind=ledgers,
    cluster=clusters,
    reserve=st.sampled_from([0.0, 0.25, 0.5]),
    steps=operations,
)
@settings(max_examples=150, deadline=None)
def test_index_matches_full_scan(kind, cluster, reserve, steps):
    ledger, order, cap_of = build_ledger(kind, cluster, reserve)
    index = ledger._index
    nodes = cluster.nodes
    served_best = index.best
    priority = 0

    def checked_best(config, cap=None):
        # The oracle applies the cap the request's priority calls for, so a
        # ledger passing the wrong cap fails here too.
        expected = scan_pick(nodes, config, order, cap_of(priority))
        chosen = served_best(config, cap)
        assert (chosen.name if chosen is not None else None) == expected
        return chosen

    index.best = checked_best
    live = []
    now = 0.0
    for request_id, step in enumerate(steps):
        now += 1.0
        kind_of_step = step[0]
        if kind_of_step == "reserve":
            _, configs, priority = step
            configuration = WorkflowConfiguration(
                {f"f{i}": config for i, config in enumerate(configs)}
            )
            if kind == "serving":
                placed = ledger.try_reserve(request_id, configuration, now)
            else:
                placed = ledger.try_reserve(request_id, configuration, now, priority)
            if placed:
                live.append(request_id)
        elif kind_of_step == "release" and live:
            ledger.release(live.pop(step[1] % len(live)), now)
        elif kind_of_step == "fail":
            aborted = ledger.fail_node(nodes[step[1] % len(nodes)].name, now)
            live = [request_id for request_id in live if request_id not in aborted]
        elif kind_of_step == "restore":
            ledger.restore_node(nodes[step[1] % len(nodes)].name, now)

        for (vcpu, memory_mb, cap), table in index.tables().items():
            assert table == scan(nodes, ResourceConfig(vcpu, memory_mb), order, cap)
        assert ledger.has_down_nodes == any(not node.healthy for node in nodes)
        healthy = [node for node in nodes if node.healthy]
        assert ledger._healthy_cpu == sum(node.vcpu_capacity for node in healthy)
        assert ledger._healthy_mem == sum(node.memory_capacity_mb for node in healthy)

    assert ledger.active == len(live)
