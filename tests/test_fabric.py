"""Unit tests for the sharded broker fabric (relay planner + router).

The pure functions (config, deadline split, relay planning, gateway
selection, stats rollup) are tested directly.  Everything stateful
runs against the production :class:`~repro.service.fabric.FleetRouter`
over in-process shards (empty endpoints): socket-free ``handle`` /
``call`` and manual ticks, deterministic.  The same router over
sockets is exercised in test_fleet_e2e.py.
"""

import pytest

from repro.errors import ServiceError
from repro.net.topology import Datacenter, Link, Topology
from repro.service.config import ServiceConfig
from repro.service.fabric import (
    FleetConfig,
    plan_relay,
    relay_gateway,
    rollup_stats,
    select_gateway,
    split_deadline,
)
from tests.fleet_harness import drive, run_until_settled, settle

DCS = 6


def make_fleet(capacity=100.0, **overrides) -> FleetConfig:
    base = dict(
        shards={"eu": "", "us": ""},
        gateway_dc=0,
        shard=ServiceConfig(
            tick_seconds=0.0, datacenters=DCS, capacity=capacity,
            max_queue=64, max_deadline=8,
        ),
    )
    base.update(overrides)
    return FleetConfig(**base)


def fields(cid, source, destination, size=2.0, deadline=4):
    return {
        "id": cid,
        "source": source,
        "destination": destination,
        "size_gb": size,
        "deadline_slots": deadline,
    }


def submit_message(*args, **kwargs):
    return {"op": "submit", **fields(*args, **kwargs)}


def router_counts(router):
    return {k: router.counts[k] for k in ("submitted", "direct", "relayed")}


def shard_pair(shard_map, same=True, exclude=()):
    """A (source, destination) pair on the same / different shards."""
    for src in range(DCS):
        for dst in range(DCS):
            if src == dst or src in exclude or dst in exclude:
                continue
            matches = shard_map.shard_for(src) == shard_map.shard_for(dst)
            if matches == same:
                return src, dst
    raise AssertionError("no such pair in this topology")


# -- config ----------------------------------------------------------------


def test_fleet_config_validates():
    with pytest.raises(ServiceError, match="at least one shard"):
        make_fleet(shards={})
    with pytest.raises(ServiceError, match="gateway_dc"):
        make_fleet(gateway_dc=DCS)
    fleet = make_fleet(checkpoint_root="/tmp/fleet-x")
    cfg = fleet.shard_config("eu")
    assert cfg.checkpoint_dir == "/tmp/fleet-x/eu"
    assert cfg.datacenters == DCS
    with pytest.raises(ServiceError, match="unknown shard"):
        fleet.shard_config("mars")


def test_spawned_shard_runs_the_in_process_shards_config():
    """What ``fleet serve --spawn`` puts on a shard's command line,
    parsed back by ``repro serve``, is the config an in-process shard
    of the same fleet gets — and a field no flag carries is refused,
    not dropped."""
    from repro.cli import build_parser, serve_command
    from repro.service.config import from_args

    assert FleetConfig(shards={"a": ""}).shard.tick_seconds == 0.25
    fleet = make_fleet(
        shards={"eu": "unix:/tmp/eu.sock", "us": "127.0.0.1:7500"},
        checkpoint_root="/tmp/fleet-x",
        shard=ServiceConfig(
            datacenters=DCS, max_batch=7, checkpoint_every=3,
            period_slots=32, forecast=True,
        ),
    )
    for name in fleet.shards:
        command = serve_command(fleet.shard_config(name))
        assert command[1:4] == ["-m", "repro", "serve"]
        args = build_parser().parse_args(command[3:])
        assert from_args(args) == fleet.shard_config(name)
    fleet = make_fleet(shard=ServiceConfig(datacenters=DCS, horizon=512))
    with pytest.raises(ServiceError, match="horizon=512"):
        serve_command(fleet.shard_config("eu"))


# -- relay planning --------------------------------------------------------


def test_split_deadline_ceil_floor():
    assert split_deadline(4) == (2, 2)
    assert split_deadline(5) == (3, 2)
    assert split_deadline(1) == (1, 1)  # both legs keep a slot of slack


def test_plan_relay_same_shard_is_direct():
    fleet = make_fleet()
    shard_map = fleet.shard_map()
    src, dst = shard_pair(shard_map, same=True)
    assert plan_relay(fields("t", src, dst), shard_map, 0) is None


def test_plan_relay_cross_shard_two_legs():
    fleet = make_fleet()
    shard_map = fleet.shard_map()
    src, dst = shard_pair(shard_map, same=False)
    gateway = next(
        g for g in range(DCS) if g not in (src, dst)
    )
    legs = plan_relay(fields("t", src, dst, deadline=5), shard_map, gateway)
    assert [leg.leg_id for leg in legs] == ["t#a", "t#b"]
    leg_a, leg_b = legs
    assert (leg_a.source, leg_a.destination) == (src, gateway)
    assert (leg_b.source, leg_b.destination) == (gateway, dst)
    assert leg_a.shard == shard_map.shard_for(src)
    assert leg_b.shard == shard_map.shard_for(dst)
    assert (leg_a.deadline_slots, leg_b.deadline_slots) == (3, 2)


def test_plan_relay_degenerate_gateways():
    fleet = make_fleet()
    shard_map = fleet.shard_map()
    src, dst = shard_pair(shard_map, same=False)
    # Gateway at the source: a single ingress leg on the destination's
    # shard, full deadline.
    legs = plan_relay(fields("t", src, dst, deadline=4), shard_map, src)
    assert [leg.leg_id for leg in legs] == ["t#b"]
    assert legs[0].shard == shard_map.shard_for(dst)
    assert legs[0].deadline_slots == 4
    # Gateway at the destination: a single egress leg on the source's.
    legs = plan_relay(fields("t", src, dst, deadline=4), shard_map, dst)
    assert [leg.leg_id for leg in legs] == ["t#a"]
    assert legs[0].shard == shard_map.shard_for(src)


# -- the router over in-process shards --------------------------------------


def test_router_direct_submission_routes_to_owner():
    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=True)
        owner = router.map.shard_for(src)
        other = next(n for n in router.map.shards if n != owner)
        answer = await router.handle(submit_message("d1", src, dst))
        assert not isinstance(answer, dict)  # pending: a future of the answer
        await settle(router, brokers)
        assert router.routes == {"d1": owner}
        assert brokers[owner].queue.depth == 1
        assert brokers[other].queue.depth == 0
        await run_until_settled(router, brokers)
        assert list(router.decisions) == ["d1"]
        final = await answer
        assert final["decision"] == "admitted"
        assert final["shard"] == owner
        assert router_counts(router) == {
            "submitted": 1, "direct": 1, "relayed": 0
        }
        # Once decided, the decision log answers status; the route
        # entry that forwarded status while pending is gone.
        assert router.routes == {}
        status = await router.call({"op": "status", "id": "d1"})
        assert status["state"] == "admitted"
        assert status["decision"] == router.decisions["d1"]
        assert status["decision"]["shard"] == owner

    drive(make_fleet(), body)


def test_router_status_equals_the_owning_shards():
    """A decided id's status reads the same through the router as on its
    shard, bar the ``shard`` the router adds: neither keeps the measured
    ``wait_s`` / ``decision_s`` its submit answer carried."""
    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=True)
        owner = router.map.shard_for(src)
        answer = await router.handle(submit_message("d1", src, dst))
        await run_until_settled(router, brokers)
        assert "wait_s" in await answer
        ours = await router.call({"op": "status", "id": "d1"})
        theirs = await router._conns[owner].call({"op": "status", "id": "d1"})
        assert ours["decision"].pop("shard") == owner
        assert ours == theirs

    drive(make_fleet(), body)


def test_router_relay_chains_on_commit():
    fleet = make_fleet()

    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=False,
                              exclude=(fleet.gateway_dc,))
        answer = await router.handle(submit_message("x1", src, dst, deadline=6))
        assert router.counts["relayed"] == 1
        # Leg B must not exist anywhere until leg A commits.
        dst_shard = router.map.shard_for(dst)
        relay = router.tracker.get("x1")
        assert relay.leg_states()["x1#b"] == "waiting"
        await settle(router, brokers)
        assert relay.leg_states() == {"x1#a": "inflight", "x1#b": "waiting"}
        assert brokers[dst_shard].counts["submitted"] == 0
        await run_until_settled(router, brokers)
        assert list(router.decisions) == ["x1"]
        final = await answer
        assert final["id"] == "x1"
        assert final["decision"] == "admitted"
        leg_records = final["relay"]["legs"]
        assert [leg["id"] for leg in leg_records] == ["x1#a", "x1#b"]
        assert all(leg["decision"] == "admitted" for leg in leg_records)
        # Leg B was submitted only after leg A's decision slot.
        assert leg_records[1]["slot"] >= leg_records[0]["slot"]
        assert final["completion_slot"] == leg_records[1]["completion_slot"]
        # The gateway hop's volume is billed once per carrying shard.
        assert brokers[dst_shard].counts["admitted"] >= 1

    drive(fleet, body)


def test_router_rejected_leg_short_circuits():
    # A tiny capacity with an oversized transfer: leg A is rejected,
    # so leg B must never reach the destination shard's broker.
    fleet = make_fleet(capacity=1.0)

    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=False,
                              exclude=(fleet.gateway_dc,))
        answer = await router.handle(
            submit_message("big", src, dst, size=500.0, deadline=4)
        )
        await run_until_settled(router, brokers)
        assert list(router.decisions) == ["big"]
        final = await answer
        assert final["decision"] == "rejected"
        states = {leg["id"]: leg["state"] for leg in final["relay"]["legs"]}
        assert states["big#a"] == "decided"
        assert states["big#b"] == "waiting"
        dst_shard = router.map.shard_for(dst)
        assert brokers[dst_shard].counts["submitted"] == 0

    drive(fleet, body)


def test_router_submission_is_idempotent():
    fleet = make_fleet()

    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=False,
                              exclude=(fleet.gateway_dc,))
        first = await router.handle(submit_message("x1", src, dst))
        again = await router.handle(submit_message("x1", src, dst))
        # Still pending: the resubmission parks on the same relay.
        assert not isinstance(again, dict)
        assert router.counts["submitted"] == 1
        assert len(router.tracker.relays) == 1
        await run_until_settled(router, brokers)
        assert await again == await first
        cached = await router.call(submit_message("x1", src, dst))
        assert cached["cached"] is True
        assert cached["decision"] == "admitted"
        assert router.counts["submitted"] == 1

    drive(fleet, body)


def test_router_shard_ledgers_are_isolated():
    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=True)
        owner = router.map.shard_for(src)
        other = next(n for n in router.map.shards if n != owner)
        await router.handle(submit_message("d1", src, dst, size=8.0))
        await run_until_settled(router, brokers)
        assert brokers[owner].state.ledger.total_volume() > 0.0
        assert brokers[other].state.ledger.total_volume() == 0.0

    drive(make_fleet(), body)


def test_router_status_and_stats_rollup():
    fleet = make_fleet()

    async def status(router, cid):
        return (await router.call({"op": "status", "id": cid}))["state"]

    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=False,
                              exclude=(fleet.gateway_dc,))
        await router.handle(submit_message("x1", src, dst))
        assert await status(router, "x1") == "relaying"
        assert await status(router, "ghost") == "unknown"
        await run_until_settled(router, brokers)
        assert await status(router, "x1") == "admitted"
        stats = await router.call({"op": "stats"})
        assert stats["router"]["relayed"] == 1
        assert stats["shard_map"]["version"] == 1
        fleet_totals = stats["fleet"]
        assert fleet_totals["shards"] == 2
        # Two legs, one per shard.
        assert fleet_totals["submitted"] == 2
        assert fleet_totals["admitted"] == 2
        per_shard = [
            stats["shards"][name]["submitted"] for name in stats["shards"]
        ]
        assert sum(per_shard) == 2

    drive(fleet, body)


def test_router_refuses_leg_separator_in_ids():
    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=True)
        refused = await router.call(submit_message("a#b", src, dst))
        assert refused["ok"] is False
        assert refused["error"] == "invalid"
        assert refused["id"] == "a#b"
        assert "'#'" in refused["message"]
        assert router.counts["submitted"] == 0
        assert all(b.counts["submitted"] == 0 for b in brokers.values())

    drive(make_fleet(), body)


def test_router_serves_every_op_with_no_socket():
    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=True)
        answers = {}
        pending = await router.handle(submit_message("d1", src, dst))
        await settle(router, brokers)
        for op in ("ping", "status", "stats", "metrics", "tick", "resume"):
            answers[op] = await router.call({"op": op, "id": "d1"})
        answers["submit"] = await pending
        answers["drain"] = await router.call({"op": "drain"})
        assert all(answer["ok"] for answer in answers.values()), answers
        assert answers["ping"]["role"] == "router"
        assert answers["drain"]["drained"] is True
        assert router.port is None and router._server is None
        unsupported = await router.call({"op": "watch"})
        assert unsupported["error"] == "unsupported"
        assert "is not served by the router" in unsupported["message"]

    drive(make_fleet(), body)


# -- cheapest-gateway selection --------------------------------------------


def relay_topology(price_via_2=1.0, price_via_3=5.0) -> Topology:
    """4 DCs; transfers 0 -> 1 can hop via 2 or 3 at tunable prices."""
    dcs = [Datacenter(i) for i in range(4)]
    links = [
        Link(0, 2, price_via_2, 100.0), Link(2, 1, price_via_2, 100.0),
        Link(0, 3, price_via_3, 100.0), Link(3, 1, price_via_3, 100.0),
    ]
    return Topology(dcs, links)


def test_fleet_config_validates_gateway_mode():
    with pytest.raises(ServiceError, match="gateway_mode"):
        make_fleet(gateway_mode="random")
    assert make_fleet(gateway_mode="cheapest").gateway_mode == "cheapest"


def test_select_gateway_picks_lowest_price():
    topo = relay_topology(price_via_2=1.0, price_via_3=5.0)
    assert select_gateway(0, 1, 2.0, topo) == 2
    topo = relay_topology(price_via_2=5.0, price_via_3=1.0)
    assert select_gateway(0, 1, 2.0, topo) == 3


def test_select_gateway_ties_break_low_and_fallback():
    topo = relay_topology(price_via_2=3.0, price_via_3=3.0)
    assert select_gateway(0, 1, 2.0, topo) == 2
    # Two datacenters: no third hop exists, the fixed gateway stands.
    tiny = Topology([Datacenter(0), Datacenter(1)], [Link(0, 1, 1.0, 10.0)])
    assert select_gateway(0, 1, 2.0, tiny, fallback=0) == 0


def test_plan_relay_cheapest_mode_routes_per_transfer():
    fleet = make_fleet(gateway_mode="cheapest")
    shard_map = fleet.shard_map()
    topo = fleet.shard.topology()
    src, dst = shard_pair(shard_map, same=False)
    legs = plan_relay(
        fields("t", src, dst, size=3.0), shard_map, fleet.gateway_dc,
        gateway_mode="cheapest", topology=topo,
    )
    assert len(legs) == 2
    chosen = relay_gateway(legs, fleet.gateway_dc)
    assert chosen == select_gateway(
        src, dst, 3.0, topo, fallback=fleet.gateway_dc
    )
    assert chosen not in (src, dst)
    assert legs[0].destination == chosen == legs[1].source


def test_router_cheapest_gateway_end_to_end():
    fleet = make_fleet(gateway_mode="cheapest")

    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=False)
        expected = select_gateway(src, dst, 2.0, fleet.shard.topology())
        answer = await router.handle(submit_message("x1", src, dst))
        await run_until_settled(router, brokers)
        final = await answer
        assert final["decision"] == "admitted"
        assert final["relay"]["gateway"] == expected
        leg_records = final["relay"]["legs"]
        assert leg_records[0]["destination"] == expected
        assert leg_records[1]["source"] == expected

    drive(fleet, body)


def test_router_fixed_mode_still_uses_configured_gateway():
    fleet = make_fleet()

    async def body(router, brokers):
        src, dst = shard_pair(router.map, same=False,
                              exclude=(fleet.gateway_dc,))
        answer = await router.handle(submit_message("x1", src, dst))
        await run_until_settled(router, brokers)
        assert (await answer)["relay"]["gateway"] == fleet.gateway_dc

    drive(fleet, body)


def test_rollup_stats_sums_and_maxes():
    fleet_totals = rollup_stats({
        "a": {"submitted": 3, "admitted": 2, "next_slot": 5,
              "cost_per_slot": 1.5, "draining": False},
        "b": {"submitted": 1, "admitted": 1, "next_slot": 9,
              "cost_per_slot": 0.25, "draining": True},
    })
    assert fleet_totals["submitted"] == 4
    assert fleet_totals["admitted"] == 3
    assert fleet_totals["next_slot"] == 9
    assert fleet_totals["cost_per_slot"] == 1.75
    assert fleet_totals["draining"] is True
