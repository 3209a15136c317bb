"""Fleet-level end-to-end drills: router + shard daemons over sockets.

The headline test is the crash drill from the PR's acceptance criteria:
two WAL-enabled shard subprocesses behind an in-process
:class:`FleetRouter`, a relay mid-flight, ``kill -9`` on the shard
holding its second leg.  The surviving shard must keep admitting, the
killed shard must come back via WAL replay with a strict-clean recovery
verifier, and the parked relay leg must resume and decide **exactly
once** (the shard's idempotent decision log is what makes the
resubmission safe).

Only the two shard-death drills spawn processes (they need a real
``kill``).  Everything else listens on unix sockets inside the test's
own event loop, including the same-code proof: one scripted scenario
through a router over in-process shards and through a router over
socket shards must produce the same decision log.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service import FleetConfig, FleetRouter, ServiceConfig, ServiceDaemon
from repro.service.loadgen import Connection
from tests.fleet_harness import open_brokers, run_until_settled

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

DCS = 6
SHARD_ARGS = [
    "--datacenters", str(DCS), "--capacity", "60", "--seed", "3",
    "--max-deadline", "8", "--tick-seconds", "0",
]


def launch_shard(sock, ckpt_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--checkpoint-dir", ckpt_dir, *SHARD_ARGS],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )


def wait_bound(proc, sock):
    deadline = time.time() + 30
    while time.time() < deadline:
        if os.path.exists(sock):
            return proc
        if proc.poll() is not None:
            raise AssertionError(
                f"shard died on startup:\n{proc.stdout.read().decode()}"
            )
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("shard never bound its socket")


def start_shard(sock, ckpt_dir):
    return wait_bound(launch_shard(sock, ckpt_dir), sock)


def start_shards(tmp_path, socks):
    """Launch every shard before waiting on any socket, so the
    start-ups overlap instead of queueing."""
    procs = {name: launch_shard(sock, str(tmp_path / "ckpt" / name))
             for name, sock in socks.items()}
    try:
        for name, sock in socks.items():
            wait_bound(procs[name], sock)
    except BaseException:
        for proc in procs.values():
            proc.kill()
            proc.wait(timeout=10)
        raise
    return procs


def make_fleet(tmp_path, in_process=False):
    # Over 6 DCs these two names split ownership 3/3 ("ap" owns
    # 0-2 incl. the gateway, "east" owns 3-5), so both shards have a
    # same-shard pair — the crash drill needs one on each side.
    # ``in_process`` gives the same fleet with empty endpoints (shards
    # the router runs itself) and its own checkpoint root.
    socks = {
        "east": str(tmp_path / "east.sock"),
        "ap": str(tmp_path / "ap.sock"),
    }
    root = str(tmp_path / ("ckpt-inproc" if in_process else "ckpt"))
    fleet = FleetConfig(
        shards={
            name: "" if in_process else f"unix:{sock}"
            for name, sock in socks.items()
        },
        gateway_dc=0,
        checkpoint_root=root,
        shard=ServiceConfig(
            tick_seconds=0.0, datacenters=DCS, capacity=60.0, seed=3,
            max_deadline=8,
        ),
    )
    return fleet, socks


def test_wal_shards_get_their_directory_from_the_root(tmp_path, capsys):
    """The shard template names no directory of its own: each shard's
    write-ahead log lives in ``<root>/<name>``, and without a root the
    shards keep no books on disk.  ``--wal`` is no flag any more."""
    from repro.cli import main

    fleet, _ = make_fleet(tmp_path)
    root = str(tmp_path / "ckpt")
    for name in fleet.shards:
        assert fleet.shard_config(name).checkpoint_dir == f"{root}/{name}"
    rootless = FleetConfig(shards={"a": ""}, shard=fleet.shard)
    assert rootless.shard_config("a").checkpoint_dir is None

    sock = tmp_path / "lonely.sock"
    with pytest.raises(SystemExit):
        main(["serve", "--socket", str(sock), "--wal", *SHARD_ARGS])
    assert "unrecognized arguments: --wal" in capsys.readouterr().err
    assert not sock.exists()


async def listen_shards(fleet):
    """One listening daemon per shard, in this event loop."""
    daemons = {
        name: ServiceDaemon(fleet.shard_config(name))
        for name in sorted(fleet.shards)
    }
    for daemon in daemons.values():
        await daemon.start()
    return daemons


def pick_pair(shard_map, same, exclude=()):
    for src in range(DCS):
        for dst in range(DCS):
            if src == dst or src in exclude or dst in exclude:
                continue
            if (shard_map.shard_for(src) == shard_map.shard_for(dst)) == same:
                return src, dst
    raise AssertionError("no such pair")


def submit_message(cid, source, destination, size=5.0, deadline=6):
    return {"op": "submit", "id": cid, "source": source,
            "destination": destination, "size_gb": size,
            "deadline_slots": deadline}


async def poll_relay_state(conn, cid, want, timeout=10.0):
    """Poll router status until leg states satisfy ``want(legs)``."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status = await conn.call({"op": "status", "id": cid})
        legs = status.get("legs", {})
        if status.get("state") != "relaying" or want(legs):
            return status
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"relay never reached {want}: {status}")
        await asyncio.sleep(0.05)


def test_fleet_router_round_trip(tmp_path):
    """Direct + cross-shard submissions through a live 2-shard fleet
    with manual ticks; per-shard metrics roll up at the router."""
    fleet, _ = make_fleet(tmp_path)
    shard_map = fleet.shard_map()
    direct_pair = pick_pair(shard_map, same=True)
    relay_pair = pick_pair(shard_map, same=False, exclude=(fleet.gateway_dc,))

    async def scenario():
        daemons = await listen_shards(fleet)
        router = FleetRouter(fleet, socket_path=str(tmp_path / "router.sock"))
        await router.start()
        conn = await Connection.open("", 0, str(tmp_path / "router.sock"))
        try:
            w_direct = conn.send(submit_message("d1", *direct_pair))
            w_relay = conn.send(submit_message("x1", *relay_pair))
            for _ in range(40):
                tick = await asyncio.wait_for(
                    conn.call({"op": "tick"}), timeout=10
                )
                assert tick["ok"]
                if w_direct.done() and w_relay.done():
                    break
                await asyncio.sleep(0.02)
            direct = await asyncio.wait_for(w_direct, timeout=10)
            relayed = await asyncio.wait_for(w_relay, timeout=10)
            stats = await asyncio.wait_for(conn.call({"op": "stats"}), 10)
            metrics = await asyncio.wait_for(conn.call({"op": "metrics"}), 10)
            return direct, relayed, stats, metrics
        finally:
            await conn.close()
            await router.stop()
            for daemon in daemons.values():
                await daemon.stop()

    direct, relayed, stats, metrics = asyncio.run(scenario())

    assert direct["ok"] and direct["decision"] == "admitted"
    assert direct["shard"] == fleet.shard_map().shard_for(direct_pair[0])
    assert relayed["ok"] and relayed["decision"] == "admitted"
    leg_ids = [leg["id"] for leg in relayed["relay"]["legs"]]
    assert leg_ids == ["x1#a", "x1#b"]
    assert stats["router"]["direct"] == 1
    assert stats["router"]["relayed"] == 1
    assert stats["fleet"]["shards"] == 2
    # 1 direct + 2 legs across the fleet.
    assert stats["fleet"]["submitted"] == 3
    assert metrics["stats"]["submitted"] == 3
    rollup = metrics["snapshot"]
    assert rollup["shards"] == ["ap", "east"]
    # Shards listening in one process share its obs registry, so each
    # shard's sink folds every shard's events; the rollup is still the
    # sum of what the shards reported.
    reported = [
        body["snapshot"]["counters"]["service.submitted"]["total"]
        for body in metrics["shards"].values()
    ]
    assert reported == [3, 3]
    assert rollup["counters"]["service.submitted"]["total"] == sum(reported)


def test_client_hangup_does_not_strand_relay(tmp_path):
    """A relay belongs to the router, not to the connection that asked
    for it: the client hangs up before any tick, and the transfer still
    chains through both shards and is there for the retry."""
    fleet, _ = make_fleet(tmp_path)
    shard_map = fleet.shard_map()
    src, dst = pick_pair(shard_map, same=False, exclude=(fleet.gateway_dc,))
    message = submit_message("x1", src, dst)

    async def scenario():
        daemons = await listen_shards(fleet)
        router = FleetRouter(fleet, socket_path=str(tmp_path / "router.sock"))
        await router.start()
        conn = await Connection.open("", 0, str(tmp_path / "router.sock"))
        other = await Connection.open("", 0, str(tmp_path / "router.sock"))
        try:
            conn.send(message)
            await poll_relay_state(
                other, "x1", lambda legs: legs.get("x1#a") == "inflight"
            )
            await conn.close()
            await asyncio.sleep(0.05)  # let the router see the hang-up
            for _ in range(6):
                tick = await asyncio.wait_for(other.call({"op": "tick"}), 10)
                assert tick["ok"]
                await asyncio.sleep(0.03)  # decision out, next leg chained
            status = await other.call({"op": "status", "id": "x1"})
            assert status["state"] == "admitted", status
            again = await asyncio.wait_for(other.call(message), timeout=10)
            destination = daemons[shard_map.shard_for(dst)].broker
            return status, again, destination.counts
        finally:
            await other.close()
            await router.stop()
            for daemon in daemons.values():
                await daemon.stop()

    status, again, destination_counts = asyncio.run(scenario())

    assert [leg["state"] for leg in status["decision"]["relay"]["legs"]] == [
        "decided", "decided"
    ]
    assert destination_counts["admitted"] == 1
    assert again["ok"] and again["cached"] is True
    record = {k: v for k, v in again.items() if k not in ("ok", "op", "cached")}
    assert record == status["decision"]


def fleet_script(shard_map):
    """The same-code scenario: 4 direct (both shards), 4 relayed (both
    directions, one whose leg A cannot fit), one duplicate submit."""
    # make_fleet's split; datacenter 0 (the gateway) is left out so
    # every cross-shard transfer is a two-leg relay.
    assert [shard_map.shard_for(dc) for dc in range(DCS)] == [
        "ap", "ap", "ap", "east", "east", "east"
    ]
    script = [
        submit_message("d1", 1, 2, size=4.0),
        submit_message("x1", 1, 3, size=5.0, deadline=6),
        submit_message("d2", 3, 4, size=3.0, deadline=3),
        submit_message("x2", 4, 2, size=6.0, deadline=5),
        submit_message("big", 2, 5, size=5000.0, deadline=4),
        submit_message("d3", 2, 1, size=2.0, deadline=2),
        submit_message("x1", 1, 3, size=5.0, deadline=6),
        submit_message("x3", 5, 1, size=7.0, deadline=8),
        submit_message("d4", 4, 5, size=9.0, deadline=8),
    ]
    return script, submit_message("bad#id", 1, 2)


async def run_fleet_script(router, brokers, script, refused_message):
    """Burst the script in, tick to quiescence, return what a client
    and an operator would see."""
    answers = [await router.handle(message) for message in script]
    ticks = await run_until_settled(router, brokers)
    finals = [
        answer if isinstance(answer, dict) else await answer
        for answer in answers
    ]
    log = {}
    for final in finals:
        relay = final.get("relay", {})
        log[final["id"]] = {
            "decision": final["decision"],
            "slot": final["slot"],
            "completion_slot": final["completion_slot"],
            "gateway": relay.get("gateway"),
            "legs": [
                (leg["id"], leg["shard"], leg.get("decision"),
                 leg.get("slot"), leg.get("completion_slot"))
                for leg in relay.get("legs", ())
            ],
        }
    stats = await router.call({"op": "stats"})
    metrics = await router.call({"op": "metrics"})
    return {
        "log": log,
        "ticks": ticks,
        "cached": sum(bool(final.get("cached")) for final in finals),
        "counts": dict(router.counts),
        "refused": await router.call(refused_message),
        # WAL records carry wall-clock floats whose printed width varies.
        "fleet": {k: v for k, v in stats["fleet"].items() if k != "wal_bytes"},
        "keys": {
            "stats": sorted(stats),
            "stats.router": sorted(stats["router"]),
            "stats.fleet": sorted(stats["fleet"]),
            "stats.shards": {n: sorted(b) for n, b in stats["shards"].items()},
            "metrics": sorted(metrics),
            "metrics.stats": sorted(metrics["stats"]),
            "metrics.snapshot": sorted(metrics["snapshot"]),
            "metrics.shards": {
                n: sorted(b) for n, b in metrics["shards"].items()
            },
        },
    }


def test_in_process_and_socket_shards_decide_alike(tmp_path):
    """Same code, two transports: a router over shards it runs itself
    and a router over identically configured listening shards must
    agree on every decision, leg by leg, and on their own books."""
    local_fleet, _ = make_fleet(tmp_path, in_process=True)
    wire_fleet, _ = make_fleet(tmp_path)
    script, refused_message = fleet_script(wire_fleet.shard_map())

    async def scenario():
        local = FleetRouter(local_fleet)
        daemons = await listen_shards(wire_fleet)
        wire = FleetRouter(wire_fleet)
        try:
            # Opening every shard before the burst keeps forwards in
            # submission order on both transports.
            local_run = await run_fleet_script(
                local, await open_brokers(local), script, refused_message
            )
            await wire.call({"op": "stats"})
            wire_run = await run_fleet_script(
                wire, {n: d.broker for n, d in daemons.items()},
                script, refused_message,
            )
            return local_run, wire_run
        finally:
            await local.stop()
            await wire.stop()
            for daemon in daemons.values():
                await daemon.stop()

    local_run, wire_run = asyncio.run(scenario())

    log = local_run["log"]
    assert [log[cid]["decision"] for cid in ("d1", "d2", "d3", "d4")] == [
        "admitted"] * 4
    assert [log[cid]["decision"] for cid in ("x1", "x2", "x3")] == [
        "admitted"] * 3
    assert log["big"]["decision"] == "rejected"
    assert [leg[2] for leg in log["big"]["legs"]] == ["rejected", None]
    assert local_run["counts"]["submitted"] == 8  # the duplicate is not new
    assert local_run["refused"]["error"] == "invalid"
    for key in local_run:
        assert local_run[key] == wire_run[key], key


@pytest.mark.slow
def test_idle_shard_death_is_refused_not_hung(tmp_path):
    """A shard killed with NOTHING in flight must still be refused
    loudly on the next submission.  The router's cached connection sees
    EOF with no waiters to fail, so nothing marks the shard down at
    kill time — the stale connection must be evicted on next use, not
    left to swallow the new submission's waiter forever."""
    fleet, socks = make_fleet(tmp_path)
    shard_map = fleet.shard_map()
    src, dst = pick_pair(shard_map, same=True)
    victim = shard_map.shard_for(src)
    procs = start_shards(tmp_path, socks)

    async def scenario():
        router = FleetRouter(fleet, socket_path=str(tmp_path / "router.sock"))
        await router.start()
        conn = await Connection.open("", 0, str(tmp_path / "router.sock"))
        try:
            # Establish the router's cached connection to the victim
            # and drain the decision so nothing is in flight.
            w = conn.send(submit_message("d1", src, dst))
            for _ in range(40):
                await asyncio.wait_for(conn.call({"op": "tick"}), 10)
                if w.done():
                    break
                await asyncio.sleep(0.05)
            first = await asyncio.wait_for(w, timeout=10)
            os.kill(procs[victim].pid, signal.SIGKILL)
            procs[victim].wait(timeout=10)
            await asyncio.sleep(0.2)  # let the EOF reach the read loop
            refused = await asyncio.wait_for(
                conn.call(submit_message("d2", src, dst)), timeout=10
            )
            return first, refused
        finally:
            await conn.close()
            await router.stop()

    try:
        first, refused = asyncio.run(scenario())
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait(timeout=10)

    assert first["ok"]
    assert refused["ok"] is False
    assert refused["error"] == "shard-down"


@pytest.mark.slow
def test_fleet_kill9_survivors_admit_and_parked_leg_resumes(tmp_path):
    fleet, socks = make_fleet(tmp_path)
    shard_map = fleet.shard_map()
    relay_src, relay_dst = pick_pair(
        shard_map, same=False, exclude=(fleet.gateway_dc,)
    )
    victim = shard_map.shard_for(relay_dst)       # owns leg B
    survivor = next(n for n in shard_map.shards if n != victim)
    survivor_dc = next(
        dc for dc in range(DCS) if shard_map.shard_for(dc) == survivor
    )
    survivor_dst = next(
        dc for dc in range(DCS)
        if dc != survivor_dc and shard_map.shard_for(dc) == survivor
    )
    victim_dc = next(
        dc for dc in range(DCS) if shard_map.shard_for(dc) == victim
    )
    victim_dst = next(
        dc for dc in range(DCS)
        if dc != victim_dc and shard_map.shard_for(dc) == victim
    )
    procs = start_shards(tmp_path, socks)

    async def scenario():
        router = FleetRouter(fleet, socket_path=str(tmp_path / "router.sock"))
        await router.start()
        conn = await Connection.open("", 0, str(tmp_path / "router.sock"))
        # Status polls ride a second connection: on one Connection a
        # status waiter for "x1" would clobber the pending submit
        # waiter for the same id.
        poll = await Connection.open("", 0, str(tmp_path / "router.sock"))
        out = {}
        try:
            # 1. Launch the relay; once leg A is in flight on its
            #    shard, one tick decides it and the router chains
            #    leg B onto the victim shard (no second tick yet, so
            #    leg B stays undecided in the victim's queue).
            w_relay = conn.send(submit_message("x1", relay_src, relay_dst))
            await poll_relay_state(
                poll, "x1", lambda legs: legs.get("x1#a") == "inflight"
            )
            await asyncio.wait_for(conn.call({"op": "tick"}), 10)
            await poll_relay_state(
                poll, "x1",
                lambda legs: legs.get("x1#a") == "decided"
                and legs.get("x1#b") == "inflight",
            )

            # 2. kill -9 the shard holding leg B.
            os.kill(procs[victim].pid, signal.SIGKILL)
            procs[victim].wait(timeout=10)
            # The drive task parks the leg as soon as the socket dies.
            await poll_relay_state(
                poll, "x1", lambda legs: legs.get("x1#b") == "parked"
            )

            # 3. Survivor keeps admitting; victim-bound traffic is
            #    refused loudly, not hung.  Manual clocks mean the
            #    submit and the tick race, so tick until decided.
            w_ok = conn.send(submit_message("s1", survivor_dc, survivor_dst))
            for _ in range(40):
                tick = await asyncio.wait_for(conn.call({"op": "tick"}), 10)
                out["tick_victim"] = str(tick["shards"][victim])
                if w_ok.done():
                    break
                await asyncio.sleep(0.1)
            out["survivor"] = await asyncio.wait_for(w_ok, timeout=10)
            out["refused"] = await asyncio.wait_for(
                conn.call(submit_message("v1", victim_dc, victim_dst)),
                timeout=10,
            )

            # 4. Restart the victim; WAL replay must come back strict-
            #    clean, and the resume op re-drives the parked leg.
            os.unlink(socks[victim])
            procs[victim] = start_shard(
                socks[victim], str(tmp_path / "ckpt" / victim)
            )
            resume = await asyncio.wait_for(conn.call({"op": "resume"}), 10)
            assert resume["ok"] and victim in resume["resumed"]
            for _ in range(40):
                await asyncio.wait_for(conn.call({"op": "tick"}), 10)
                if w_relay.done():
                    break
                await asyncio.sleep(0.1)
            out["final"] = await asyncio.wait_for(w_relay, timeout=15)

            shard_conn = await Connection.open("", 0, socks[victim])
            try:
                out["victim_stats"] = await shard_conn.call({"op": "stats"})
                out["victim_metrics"] = await shard_conn.call(
                    {"op": "metrics"}
                )
                out["leg_status"] = await shard_conn.call(
                    {"op": "status", "id": "x1#b"}
                )
            finally:
                await shard_conn.close()
            out["router_stats"] = await conn.call({"op": "stats"})
            return out
        finally:
            await poll.close()
            await conn.close()
            await router.stop()

    try:
        out = asyncio.run(scenario())
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait(timeout=10)

    # Survivors kept admitting while the victim was down (and its
    # death was loud on the tick fan-out).
    assert victim in out["tick_victim"]
    assert out["survivor"]["ok"]
    assert out["survivor"]["decision"] in ("admitted", "rejected")
    assert out["refused"]["ok"] is False
    assert out["refused"]["error"] == "shard-down"

    # The killed shard recovered via WAL replay, strict-clean.
    assert out["victim_stats"]["resumed"] is True
    recovery = out["victim_metrics"]["recovery"]
    assert recovery["resumed"] is True
    verifier = recovery["verifier"]
    assert verifier is not None and verifier["ok"], verifier

    # The parked leg resumed and decided exactly once: the relay's
    # composite decision arrived, the victim shard holds exactly one
    # decision for the leg id, and the router resumed exactly one leg.
    final = out["final"]
    assert final["ok"] and final["decision"] == "admitted"
    assert {leg["id"]: leg["decision"] for leg in final["relay"]["legs"]} == {
        "x1#a": "admitted", "x1#b": "admitted"
    }
    assert out["leg_status"]["state"] == "admitted"
    assert out["router_stats"]["router"]["resumed_legs"] == 1
    assert out["router_stats"]["router"]["parked"] == 0
    assert out["router_stats"]["shards"][victim]["submitted"] == 1
