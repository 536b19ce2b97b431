"""Three-layer CLOS fabric (§3.6).

The fabric mirrors the paper's datacenter network:

* **Pods** of ``nodes_per_pod`` GPU servers.  Each server has 8 NICs
  attached *multi-rail*: NIC ``r`` of every server in a pod connects to
  the pod's rail-``r`` ToR switch.  With split 400G->2x200G downlink ports
  a ToR serves 64 servers, matching "the number of GPU servers connected
  by the same sets of ToR switches can reach 64".
* **Aggregation** switches per pod; every ToR has parallel uplinks to each
  aggregation switch (ECMP spreads flows across them).
* **Spine** switches interconnect pods; every aggregation switch has
  parallel uplinks to each spine.

Rail-aligned traffic (GPU ``i`` talks to GPU ``i`` elsewhere, as NCCL
rings do) stays on one rail: two hops inside a pod, six hops across pods.

:class:`Topology` is the one node→pod/rack map of this layout.  Analytic
pricing, placement and the fault domains use it alone; only flow-level
code (the fabric backend, validation, the ring runtime) builds a
:class:`ClosFabric`, which reads its pods from the same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .link import LinkTable
from .routing import ecmp_choice
from .switch import Switch, SwitchRole, agg_role, spine_role, tor_role


@dataclass(frozen=True)
class Topology:
    """Maps node indices onto pods (one ToR set each) and racks.

    Racks of ``nodes_per_rack`` servers share power; pods of
    ``nodes_per_pod`` servers share their ToR switches.  Racks tile pods
    exactly, so a rack never straddles two pods.
    """

    n_nodes: int
    nodes_per_pod: int = 64
    nodes_per_rack: int = 8

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("topology needs at least one node")
        if self.nodes_per_rack < 1 or self.nodes_per_pod < 1:
            raise ValueError("rack and pod sizes must be positive")
        if self.nodes_per_pod % self.nodes_per_rack != 0:
            raise ValueError("racks must tile pods exactly")

    @classmethod
    def for_pods(cls, n_nodes: int, nodes_per_pod: int = 64) -> "Topology":
        """The layout a :class:`ClosFabric` of this size implies: racks of
        8 servers (the whole pod when smaller), shrunk to a common
        divisor when 8 does not tile the pod."""
        rack = math.gcd(min(8, nodes_per_pod), nodes_per_pod)
        return cls(n_nodes, nodes_per_pod, rack)

    @property
    def n_racks(self) -> int:
        return -(-self.n_nodes // self.nodes_per_rack)

    @property
    def n_pods(self) -> int:
        return -(-self.n_nodes // self.nodes_per_pod)

    def rack_of(self, node: int) -> int:
        self._check(node)
        return node // self.nodes_per_rack

    def pod_of(self, node: int) -> int:
        self._check(node)
        return node // self.nodes_per_pod

    def nodes_in_rack(self, rack: int) -> List[int]:
        if not 0 <= rack < self.n_racks:
            raise ValueError(f"rack {rack} outside 0..{self.n_racks - 1}")
        start = rack * self.nodes_per_rack
        return list(range(start, min(start + self.nodes_per_rack, self.n_nodes)))

    def nodes_in_pod(self, pod: int) -> List[int]:
        """All node indices fronted by pod ``pod``'s ToR set — the blast
        radius of a ToR-switch or leaf-link fault."""
        if not 0 <= pod < self.n_pods:
            raise ValueError(f"pod {pod} outside 0..{self.n_pods - 1}")
        start = pod * self.nodes_per_pod
        return list(range(start, min(start + self.nodes_per_pod, self.n_nodes)))

    def group_for(self, scope: str, index: int) -> List[int]:
        if scope == "rack":
            return self.nodes_in_rack(index)
        if scope == "pod":
            return self.nodes_in_pod(index)
        raise ValueError(f"unknown scope {scope!r}")

    def n_domains(self, scope: str) -> int:
        if scope == "rack":
            return self.n_racks
        if scope == "pod":
            return self.n_pods
        raise ValueError(f"unknown scope {scope!r}")

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} outside topology of {self.n_nodes}")


@dataclass
class ClosFabric:
    """A built fabric: devices, one link table, and path computation.

    A link is an integer id into :attr:`links`; :attr:`parallel_links`
    maps a ``(src, dst)`` switch/NIC name pair to the ids of its
    parallel links, in ECMP order.
    """

    n_nodes: int
    nodes_per_pod: int = 64
    rails: int = 8
    aggs_per_pod: int = 8
    n_spines: int = 8
    tor_uplinks_per_agg: int = 4
    agg_uplinks_per_spine: int = 4
    split_tor_downlinks: bool = True
    nic_rate: float = 0.0  # derived from the ToR role if 0

    switches: Dict[str, Switch] = field(init=False, repr=False)
    links: LinkTable = field(init=False, repr=False)
    parallel_links: Dict[Tuple[str, str], Tuple[int, ...]] = field(init=False, repr=False)
    # The node→pod/rack map; every pod lookup goes through it.
    topology: Topology = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("fabric needs at least one node")
        if self.rails < 1 or self.nodes_per_pod < 1:
            raise ValueError("rails and nodes_per_pod must be positive")
        self.topology = Topology.for_pods(self.n_nodes, self.nodes_per_pod)
        tor = tor_role(split_downlinks=self.split_tor_downlinks)
        if self.nic_rate == 0.0:
            self.nic_rate = tor.downlink_rate
        self._build(tor, agg_role(), spine_role())

    # -- construction -----------------------------------------------------

    def tor_name(self, pod: int, rail: int) -> str:
        return f"tor{pod}.{rail}"

    def _build(self, tor: SwitchRole, agg: SwitchRole, spine: SwitchRole) -> None:
        n_pods = self.topology.n_pods
        roles = []
        for pod in range(n_pods):
            roles += [(self.tor_name(pod, rail), tor) for rail in range(self.rails)]
            roles += [(f"agg{pod}.{a}", agg) for a in range(self.aggs_per_pod)]
        roles += [(f"spine{s}", spine) for s in range(self.n_spines)]
        self.switches = {name: Switch(role=role, name=name) for name, role in roles}

        src: List[str] = []
        dst: List[str] = []
        rates: List[float] = []  # one per connect() call, covering 2 * count links
        counts: List[int] = []
        self.parallel_links = {}

        def connect(a: str, b: str, count: int, bandwidth: float) -> None:
            """``count`` parallel links each way between ``a`` and ``b``."""
            for s, d in ((a, b), (b, a)):
                start = len(src)
                src.extend([s] * count)
                dst.extend([d] * count)
                self.parallel_links[(s, d)] = tuple(range(start, start + count))
            rates.append(bandwidth)
            counts.append(2 * count)

        for node in range(self.n_nodes):
            pod = self.topology.pod_of(node)
            for rail in range(self.rails):
                connect(f"node{node}.nic{rail}", self.tor_name(pod, rail), 1, self.nic_rate)
        for pod in range(n_pods):
            for rail in range(self.rails):
                for a in range(self.aggs_per_pod):
                    connect(
                        self.tor_name(pod, rail), f"agg{pod}.{a}",
                        self.tor_uplinks_per_agg, tor.uplink_rate,
                    )
            for a in range(self.aggs_per_pod):
                for s in range(self.n_spines):
                    connect(
                        f"agg{pod}.{a}", f"spine{s}",
                        self.agg_uplinks_per_spine, agg.uplink_rate,
                    )
        self.links = LinkTable(src, dst, np.repeat(rates, counts), latency=1e-6)

    # -- queries ------------------------------------------------------------

    def fingerprint(self) -> Tuple:
        """Hashable identity of the built fabric, for memoization keys.

        Covers the constructor configuration plus the ids of every down
        link, so prices cached against one fabric are reused by any
        identically-configured healthy fabric but never survive a
        degraded (or differently-built) one.  Computed on each call: a
        healthy fabric costs one ``up.all()``.
        """
        up = self.links.up
        down = () if up.all() else tuple(np.flatnonzero(~up).tolist())
        return (
            self.n_nodes,
            self.nodes_per_pod,
            self.rails,
            self.aggs_per_pod,
            self.n_spines,
            self.tor_uplinks_per_agg,
            self.agg_uplinks_per_spine,
            self.split_tor_downlinks,
            self.nic_rate,
            down,
        )

    def degraded(self) -> bool:
        """Whether any link is currently down (placement symmetry broken)."""
        return not self.links.up.all()

    def canonical_node_offsets(self, nodes: Sequence[int]) -> Tuple[int, ...]:
        """Translate a node group down to its canonical within-pod offset.

        Servers of one pod are interchangeable: each has identical NIC
        links to the same ToR set, and every ECMP decision depends only
        on switch names and the flow index.  Sliding a whole group by a
        common offset *within its pods* therefore yields link-for-link
        isomorphic paths with identical bandwidths, latencies, and
        conflict patterns — so all DP rings with the same placement
        shape can share one routed price.  The canonical form subtracts
        the group's minimum within-pod offset, which by construction
        keeps every node in its original pod.

        Only valid on a healthy fabric: a down link singles out specific
        servers and breaks the symmetry.  Callers must check
        :meth:`degraded` first.
        """
        offset = min(n % self.nodes_per_pod for n in nodes)
        if offset == 0:
            return tuple(nodes)
        return tuple(n - offset for n in nodes)

    def hops(self, src: int, dst: int) -> int:
        """Number of links a rail-aligned packet crosses."""
        if src == dst:
            return 0
        if self.topology.pod_of(src) == self.topology.pod_of(dst):
            return 2  # nic -> tor -> nic
        return 6  # nic -> tor -> agg -> spine -> agg -> tor -> nic

    def path(self, src: int, dst: int, rail: int, flow_id: int = 0) -> Tuple[int, ...]:
        """ECMP-resolved link ids of a rail-aligned flow."""
        return self._route(src, dst, rail, flow_id, bool(self.links.up.all()))

    def ring_paths(self, nodes: Sequence[int], rail: int) -> List[Tuple[int, ...]]:
        """Link ids of every neighbour pair of the ring over ``nodes``.

        Pair ``i`` (``nodes[i] -> nodes[i + 1]``) routes as flow ``i``;
        a same-host pair gets the empty path.  Checks fabric health once
        for the whole ring rather than once per pair.
        """
        healthy = bool(self.links.up.all())
        n = len(nodes)
        paths = []
        for i, src in enumerate(nodes):
            dst = nodes[(i + 1) % n]
            paths.append(() if src == dst else self._route(src, dst, rail, i, healthy))
        return paths

    def _pick(self, src: str, dst: str, flow_id: int, healthy: bool) -> int:
        ids = self.parallel_links[(src, dst)]
        if not healthy:
            up = self.links.up
            ids = [i for i in ids if up[i]]
            if not ids:
                raise RuntimeError(f"no live link {src} -> {dst}")
        return ids[ecmp_choice(flow_id, src, dst, len(ids))]

    def _route(
        self, src: int, dst: int, rail: int, flow_id: int, healthy: bool
    ) -> Tuple[int, ...]:
        src_pod, dst_pod = self.topology.pod_of(src), self.topology.pod_of(dst)
        if not 0 <= rail < self.rails:
            raise ValueError(f"rail {rail} outside 0..{self.rails - 1}")
        if src == dst:
            return ()
        src_nic = f"node{src}.nic{rail}"
        dst_nic = f"node{dst}.nic{rail}"
        src_tor = self.tor_name(src_pod, rail)
        dst_tor = self.tor_name(dst_pod, rail)
        pick = self._pick
        if src_pod == dst_pod:
            return (
                pick(src_nic, src_tor, flow_id, healthy),
                pick(src_tor, dst_nic, flow_id, healthy),
            )
        agg_up = f"agg{src_pod}.{ecmp_choice(flow_id, src_tor, 'aggsel', self.aggs_per_pod)}"
        spine = f"spine{ecmp_choice(flow_id, agg_up, 'spinesel', self.n_spines)}"
        agg_down = f"agg{dst_pod}.{ecmp_choice(flow_id, spine, 'aggdown', self.aggs_per_pod)}"
        return (
            pick(src_nic, src_tor, flow_id, healthy),
            pick(src_tor, agg_up, flow_id, healthy),
            pick(agg_up, spine, flow_id, healthy),
            pick(spine, agg_down, flow_id, healthy),
            pick(agg_down, dst_tor, flow_id, healthy),
            pick(dst_tor, dst_nic, flow_id, healthy),
        )

    def bisection_bandwidth(self) -> float:
        """Aggregate spine-layer bandwidth (upper bound on cross-pod traffic)."""
        total = 0.0
        for (src, dst), ids in self.parallel_links.items():
            if src.startswith("agg") and dst.startswith("spine"):
                total += sum(self.links.bandwidth[list(ids)].tolist())
        return total


def shared_fabric(
    n_nodes: int,
    nodes_per_pod: int = 64,
    rails: int = 8,
    aggs_per_pod: int = 8,
    n_spines: int = 8,
    tor_uplinks_per_agg: int = 4,
    agg_uplinks_per_spine: int = 4,
    split_tor_downlinks: bool = True,
    nic_rate: float = 0.0,
) -> ClosFabric:
    """A process-shared :class:`ClosFabric` for the given configuration.

    Building a paper-scale fabric is O(links) — ~50k links at 1,536
    nodes — which dominated plan search when every candidate's
    comm model rebuilt its own copy.  Identically-configured fabrics
    are immutable for pricing purposes, so read-only consumers
    (fabric-backed ``build_comm_model``, ``validation_report``) share
    one instance per configuration, interned in the ``"clos_fabric"``
    memo cache (hit/miss counters surface in sweep stats; LRU-bounded
    so scale sweeps don't pin every size in memory).

    Callers that intend to *degrade* links must build a private
    ``ClosFabric`` instead — flapping a shared instance would leak the
    fault into every other consumer.
    """
    from ..exec.memo import get_cache

    cache = get_cache("clos_fabric", maxsize=8)
    key = (
        n_nodes,
        nodes_per_pod,
        rails,
        aggs_per_pod,
        n_spines,
        tor_uplinks_per_agg,
        agg_uplinks_per_spine,
        split_tor_downlinks,
        nic_rate,
    )
    if key in cache.store:
        cache.hits += 1
        return cache.get(key)
    cache.misses += 1
    fabric = ClosFabric(
        n_nodes=n_nodes,
        nodes_per_pod=nodes_per_pod,
        rails=rails,
        aggs_per_pod=aggs_per_pod,
        n_spines=n_spines,
        tor_uplinks_per_agg=tor_uplinks_per_agg,
        agg_uplinks_per_spine=agg_uplinks_per_spine,
        split_tor_downlinks=split_tor_downlinks,
        nic_rate=nic_rate,
    )
    cache.put(key, fabric)
    return fabric
