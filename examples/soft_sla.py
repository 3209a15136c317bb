"""Pricing the SLA: what do hard deadlines actually cost?

A burst of replication jobs lands on a tight network.  The paper's
hard deadlines force the optimizer to buy expensive WAN peaks; pricing
lateness instead reveals the trade — at a lax SLA the same jobs cost
4x less by running a few slots late, and as the SLA price climbs the
soft optimum converges back to the hard one.  (Under true overload the
hard model starts rejecting jobs outright — see ablation A16 — while
the soft model only ever gets later.)

Run:  python examples/soft_sla.py
"""

from repro import TransferRequest, complete_topology, format_table
from repro.core import build_postcard_model, solve_soft_deadline
from repro.core.scheduler import shed_until_feasible
from repro.core.state import NetworkState


def spike(release=0):
    """Six 45-GB jobs with 2-slot deadlines between five sites."""
    routes = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]
    return [
        TransferRequest(src, dst, 45.0, 2, release_slot=release)
        for src, dst in routes
    ]


def main():
    topology = complete_topology(5, capacity=15.0, seed=3)

    # --- Hard deadlines: shed until feasible. ---
    state = NetworkState(topology, horizon=30)

    def solve(accepted):
        built = build_postcard_model(state, accepted)
        schedule, solution = built.solve()
        solve.cost = solution.objective
        return schedule

    solve.cost = 0.0
    plan = shed_until_feasible(solve, spike())
    print("=== Hard deadlines (the paper's model)")
    print(f"accepted {len(plan.accepted)}/6 jobs (rejected {len(plan.rejected)}); "
          f"every deadline met at a WAN cost of {solve.cost:.0f}/interval\n")

    # --- Soft deadlines at three SLA price points. ---
    print("=== Priced lateness (extension up to 3 slots)")
    rows = []
    for penalty in (0.1, 2.0, 50.0):
        soft_state = NetworkState(topology, horizon=30)
        result = solve_soft_deadline(
            soft_state, spike(), extension=3, lateness_penalty=penalty
        )
        late_jobs = sum(1 for v in result.lateness.values() if v > 1e-6)
        rows.append(
            [
                f"{penalty:g} $/GB/slot",
                "6/6",
                late_jobs,
                result.total_lateness,
                result.solution.objective,
            ]
        )
    print(
        format_table(
            ["SLA price", "delivered", "jobs late", "GB-slots late", "total cost"],
            rows,
        )
    )
    print(
        "\nCheap SLA: the optimizer happily runs late to flatten WAN peaks.\n"
        "Steep SLA: it pays for bandwidth and delivers (almost) on time —\n"
        "but unlike the hard model, nothing is ever dropped."
    )


if __name__ == "__main__":
    main()
