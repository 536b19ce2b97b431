"""Cross-validation of the analytic cost models against execution.

Not a paper table — a fidelity check the reproduction owes its users:
the alpha-beta collective costs (which price every Table 2 cell) must
agree with (a) rings routed flow by flow over real fabric links and
(b) the dynamic transfer engine with max-min sharing, on clean fabrics.
Degraded fabrics must diverge in the *right direction*.
"""

from __future__ import annotations

from conftest import print_banner

from repro.collectives import FabricCostModel, ring_all_gather, ring_all_reduce
from repro.core.units import Gbps
from repro.network import ClosFabric
from repro.network.transfers import TransferEngine
from repro.sim import Simulator


def compute_validation():
    fabric = ClosFabric(n_nodes=64)
    # Ideal transport and no PFC derating: on a clean pod the routed ring
    # must land on the alpha-beta price.
    model = FabricCostModel(fabric, cc_efficiency=1.0, penalty=None)
    results = {}
    for n_ranks in (2, 4, 8):
        for size in (256e6, 2e9, 8e9):
            executed = model.collective_cost("all_gather", size, range(n_ranks)).time
            analytic = ring_all_gather(size, n_ranks, 200 * Gbps)
            results[(n_ranks, size)] = (analytic, executed)

    # Transfer engine: a single point-to-point at line rate.
    sim = Simulator()
    engine = TransferEngine(sim, fabric.links)
    path = fabric.path(0, 1, rail=0, flow_id=1)
    transfer = engine.submit(path, size=2e9)
    engine.run_to_completion()
    p2p = (2e9 / (200 * Gbps), transfer.finished_at)

    # Degraded link: execution must exceed the clean analytic time.
    (link,) = fabric.parallel_links[("node1.nic0", "tor0.0")]
    original = fabric.links.bandwidth[link]
    fabric.links.bandwidth[link] = original / 3
    degraded = model.collective_cost("all_reduce", 2e9, [0, 1, 2, 3]).time
    fabric.links.bandwidth[link] = original
    clean_analytic = ring_all_reduce(2e9, 4, 200 * Gbps)
    return results, p2p, (clean_analytic, degraded)


def test_model_validation(benchmark):
    results, p2p, degraded_pair = benchmark.pedantic(
        compute_validation, rounds=1, iterations=1
    )

    print_banner("Model validation — analytic vs executed collectives")
    print(f"{'ranks':>6s} {'size':>8s} {'analytic':>10s} {'executed':>10s} {'ratio':>7s}")
    for (n, size), (analytic, executed) in sorted(results.items()):
        ratio = executed / analytic if analytic else 1.0
        print(f"{n:>6d} {size / 1e9:>6.2f}GB {analytic * 1e3:>8.2f}ms {executed * 1e3:>8.2f}ms {ratio:>6.3f}")
    print(f"\np2p 2GB: ideal {p2p[0] * 1e3:.1f} ms, transfer engine {p2p[1] * 1e3:.1f} ms")
    print(
        f"degraded-link all-reduce: clean analytic {degraded_pair[0] * 1e3:.1f} ms, "
        f"executed on 1/3-rate link {degraded_pair[1] * 1e3:.1f} ms"
    )

    # -- assertions ----------------------------------------------------------
    for (n, size), (analytic, executed) in results.items():
        # Bandwidth-dominated sizes agree within 5%; small sizes within
        # the latency envelope (a few extra hops of software latency).
        if size >= 2e9:
            assert abs(executed - analytic) / analytic < 0.05, (n, size)
        else:
            assert executed >= analytic * 0.95
            assert executed - analytic < 1e-3
    assert p2p[1] >= p2p[0]
    assert p2p[1] - p2p[0] < 1e-3
    assert degraded_pair[1] > 2.5 * degraded_pair[0]
