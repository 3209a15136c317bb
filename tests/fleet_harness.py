"""Harness for driving a :class:`FleetRouter` tick by tick in tests.

Works the same over in-process shards (empty endpoints) and over shard
daemons listening in the test's own event loop: quiescence is read off
the router's books and the shard brokers' queues, never off a sleep.
"""

import asyncio


async def open_brokers(router):
    """Every in-process shard's broker, by shard name (a ``stats``
    fan-out makes the router open them all)."""
    await router.call({"op": "stats"})
    return {name: shard.broker for name, shard in router._conns.items()}


async def settle(router, brokers):
    """Yield until the fleet is quiet: every undecided direct submission
    and every relay's current leg sits in its shard's intake queue."""
    for _ in range(2000):
        relays = router.tracker.active()
        inflight = len(router.routes) + sum(
            leg.state == "inflight" for relay in relays for leg in relay.legs
        )
        queued = sum(broker.queue.depth for broker in brokers.values())
        if inflight == queued and all(
            relay.next_leg().state == "inflight" for relay in relays
        ):
            return
        await asyncio.sleep(0.001)
    raise AssertionError("fleet never went quiet")


async def run_until_settled(router, brokers):
    """Tick until nothing is pending; returns the ticks it took."""
    for ticks in range(64):
        await settle(router, brokers)
        if not router.routes and not router.tracker.active():
            return ticks
        tick = await router.call({"op": "tick"})
        assert tick["ok"], tick
    raise AssertionError("fleet did not settle within 64 ticks")


def drive(fleet, body):
    """Run ``await body(router, brokers)`` against a router over
    in-process shards — the production driver, no socket anywhere."""
    from repro.service import FleetRouter

    async def scenario():
        router = FleetRouter(fleet)
        try:
            return await body(router, await open_brokers(router))
        finally:
            await router.stop()

    return asyncio.run(scenario())
