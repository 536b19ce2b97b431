"""Max-min fair bandwidth allocation (fluid flow model).

Collectives and checkpoint traffic are modelled as sets of flows, each
traversing a path of link ids into a
:class:`~repro.network.link.LinkTable`.  The classic water-filling
algorithm assigns each flow its max-min fair rate; the collective layer
then derives transfer times from the bottleneck rate.

Two solvers compute the same allocation:

* :func:`max_min_fair_rates` — the vectorized numpy water-fill, one
  per-link flow-count/capacity matrix per saturation level instead of
  per-flow dict loops, which is what makes ``backend="fabric"`` usable
  at the paper's 12,288 GPUs.
* :func:`max_min_fair_rates_reference` — the original per-flow Python
  water-filling, kept as the correctness oracle.

The numpy solver replays the reference's arithmetic (same share
divisions, same flow-major subtraction order, same bottleneck
tolerance), so the two agree to the last bit on well-conditioned inputs
and within 1e-9 relative everywhere (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .link import LinkTable

# Relative tolerance deciding whether a link sits at the bottleneck
# water level (shared by both solvers so they freeze identical batches).
BOTTLENECK_RTOL = 1e-9


@dataclass
class Flow:
    """A unidirectional traffic demand across a fixed path of link ids."""

    flow_id: int
    path: Tuple[int, ...]
    demand: float = float("inf")  # bytes/s the source could push
    rate: float = 0.0  # assigned by the allocator

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ValueError("flow demand must be positive")
        self.path = tuple(self.path)


def _assign_local_rates(flows: Sequence[Flow]) -> Dict[int, Flow]:
    """Give empty-path (same-host) flows their demand; return the rest.

    Same-host traffic never crosses a fabric link, so it is priced as
    latency-only local traffic: the flow runs at its full demand — and
    an *unbounded* demand means an unbounded rate, not zero.  (A ``0.0``
    rate here used to make :func:`transfer_time` raise ``RuntimeError``
    for perfectly healthy local transfers.)
    """
    remaining = {f.flow_id: f for f in flows if f.path}
    for f in flows:
        if not f.path:
            f.rate = f.demand
    return remaining


def _check_up(flows: Sequence[Flow], links: LinkTable) -> None:
    """Raise if any flow is routed over a down link (first offender,
    flow-major)."""
    up = links.up
    for f in flows:
        for link in f.path:
            if not up[link]:
                raise RuntimeError(
                    f"flow {f.flow_id} routed over down link {links.name(link)}"
                )


def max_min_fair_rates_reference(
    flows: Sequence[Flow], links: LinkTable
) -> Dict[int, float]:
    """Water-filling oracle: repeatedly saturate the most-constrained link.

    Returns ``flow_id -> rate`` and also stores the rate on each flow.
    Flows with empty paths (same-node traffic) get their full demand.
    This is the original per-flow Python implementation, kept as the
    reference the vectorized solver is property-tested against.
    """
    remaining = _assign_local_rates(flows)
    _check_up(list(remaining.values()), links)

    capacity: Dict[int, float] = {}
    users: Dict[int, List[Flow]] = {}
    for f in remaining.values():
        for link in f.path:
            if link not in capacity:
                capacity[link] = float(links.bandwidth[link])
            users.setdefault(link, []).append(f)

    allocated: Dict[int, float] = {}
    active = set(remaining)
    while active:
        # Fair share each link could still give its active users.
        bottleneck_share: Optional[float] = None
        for link, flows_on_link in users.items():
            live = [f for f in flows_on_link if f.flow_id in active]
            if not live:
                continue
            share = capacity[link] / len(live)
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
        if bottleneck_share is None:
            break
        # Demand-limited flows below the share finish first.
        demand_limited = [
            f for f in remaining.values()
            if f.flow_id in active and f.demand <= bottleneck_share
        ]
        batch = demand_limited or [
            f
            for f in remaining.values()
            if f.flow_id in active and _is_bottlenecked(f, users, capacity, active, bottleneck_share)
        ]
        if not batch:  # numerical fallback: finish everything at the share
            batch = [remaining[fid] for fid in active]
        for f in batch:
            rate = min(f.demand, bottleneck_share)
            allocated[f.flow_id] = rate
            f.rate = rate
            active.discard(f.flow_id)
            for link in f.path:
                capacity[link] = max(0.0, capacity[link] - rate)
    return allocated


def _is_bottlenecked(
    flow: Flow,
    users: Dict[int, List[Flow]],
    capacity: Dict[int, float],
    active: set,
    share: float,
) -> bool:
    for link in flow.path:
        live = sum(1 for f in users[link] if f.flow_id in active)
        if live and abs(capacity[link] / live - share) < BOTTLENECK_RTOL * max(1.0, share):
            return True
    return False


# -- vectorized solver --------------------------------------------------------


def _index_links(
    ordered: Sequence[Flow], links: LinkTable
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edge_flow, edge_link, capacities) of a routed flow set.

    Edges are laid out flow-major — the same order the reference walks —
    so the unbuffered ``np.subtract.at`` accumulations below reproduce
    its floating-point sequence exactly.  ``edge_link`` indexes the
    distinct links used, whose capacities come back in the same order.
    """
    lengths = [len(f.path) for f in ordered]
    edge_ids = np.fromiter(
        chain.from_iterable(f.path for f in ordered), dtype=np.intp, count=sum(lengths)
    )
    if not links.up[edge_ids].all():
        _check_up(ordered, links)
    used, edge_link = np.unique(edge_ids, return_inverse=True)
    edge_flow = np.repeat(np.arange(len(ordered), dtype=np.intp), lengths)
    return edge_flow, edge_link.astype(np.intp, copy=False), links.bandwidth[used]


def _waterfill(
    demand: np.ndarray,
    edge_flow: np.ndarray,
    edge_link: np.ndarray,
    capacity: np.ndarray,
) -> np.ndarray:
    """Vectorized water-filling over the per-link flow-count matrix.

    Each iteration freezes one saturation level: the per-link fair
    share is ``capacity / live-user-count`` computed for every link at
    once, demand-limited flows below the bottleneck share finish first,
    otherwise every flow touching a bottleneck-level link freezes at
    the share.  Identical batch selection and subtraction order as
    :func:`max_min_fair_rates_reference`.
    """
    n_flows = demand.shape[0]
    n_links = capacity.shape[0]
    capacity = capacity.copy()
    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)
    while active.any():
        live_edge = active[edge_flow]
        users = np.bincount(edge_link[live_edge], minlength=n_links)
        used = users > 0
        if not used.any():
            break
        share = np.full(n_links, np.inf)
        share[used] = capacity[used] / users[used]
        bottleneck = share[used].min()
        batch = active & (demand <= bottleneck)
        if not batch.any():
            tol = BOTTLENECK_RTOL * max(1.0, bottleneck)
            at_level = used & (np.abs(share - bottleneck) < tol)
            touches = np.zeros(n_flows, dtype=bool)
            np.logical_or.at(touches, edge_flow[live_edge], at_level[edge_link[live_edge]])
            batch = active & touches
            if not batch.any():  # numerical fallback, as in the reference
                batch = active.copy()
        flow_rate = np.minimum(demand, bottleneck)
        rates[batch] = flow_rate[batch]
        active &= ~batch
        settle = batch[edge_flow]
        np.subtract.at(capacity, edge_link[settle], flow_rate[edge_flow[settle]])
        np.maximum(capacity, 0.0, out=capacity)
    return rates


def max_min_fair_rates(flows: Sequence[Flow], links: LinkTable) -> Dict[int, float]:
    """Max-min fair rates of a flow set (``flow_id -> rate``).

    Flow paths are ids into ``links``.  Rates are also stored on each
    flow.  Flows with empty paths (same-node traffic) get their full
    demand — including an unbounded one — so local transfers price as
    latency-only.  Runs the numpy water-fill; the per-flow Python oracle
    is :func:`max_min_fair_rates_reference`.
    """
    remaining = _assign_local_rates(flows)
    ordered = list(remaining.values())
    if not ordered:
        return {}
    if len(ordered) == 1:
        # Closed form: a lone flow takes its narrowest link (or demand).
        f = ordered[0]
        _check_up(ordered, links)
        occurrences: Dict[int, int] = {}
        for link in f.path:
            occurrences[link] = occurrences.get(link, 0) + 1
        rate = min(
            f.demand,
            min(float(links.bandwidth[l]) / c for l, c in occurrences.items()),
        )
        f.rate = rate
        return {f.flow_id: rate}
    edge_flow, edge_link, capacity = _index_links(ordered, links)
    demand = np.array([f.demand for f in ordered], dtype=float)
    rates = _waterfill(demand, edge_flow, edge_link, capacity)
    allocated: Dict[int, float] = {}
    for f, rate in zip(ordered, rates.tolist()):
        f.rate = rate
        allocated[f.flow_id] = rate
    return allocated


def transfer_time(size: float, flow: Flow, links: LinkTable) -> float:
    """Seconds to move ``size`` bytes at the flow's allocated rate."""
    if size < 0:
        raise ValueError("negative transfer size")
    if size == 0:
        return 0.0
    if flow.rate <= 0:
        raise RuntimeError(f"flow {flow.flow_id} has no allocated rate")
    return size / flow.rate + links.delay(flow.path)
