"""Property tests for the fleet's consistent-hash shard router.

The :class:`~repro.service.router.ShardMap` is the fabric's routing
authority: every front end, relay planner, and fleet loadgen client
must agree on which shard owns a source datacenter, across processes
and restarts.  Three properties lock that down:

* **Determinism** — assignment is a pure function of (shard names,
  vnodes, version); rebuilding the map, reordering the shard list, or
  round-tripping it through its JSON payload never moves a key.
* **Balance** — with enough keys, consistent hashing with 128 vnodes
  keeps the busiest/least-busy shard ratio bounded (empirically <=
  1.66 for 2-8 shards over >=256 uniform keys; we gate at 2.0).
* **Minimal remap** — adding one shard to an N-shard map moves at
  most ~1/(N+1) of the keys (we gate at 2/(N+1)); removed-shard keys
  all land elsewhere without disturbing survivors.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.service.router import ShardMap

#: Balance/remap bounds need a dense keyspace; small key sets (say 16
#: datacenters over 4 shards) can legitimately skew 3:1.
KEYSPACE = 512



def loads(shard_map, keys):
    """Keys owned per shard (every shard present, possibly 0)."""
    counts = {name: 0 for name in shard_map.shards}
    for key in keys:
        counts[shard_map.shard_for(key)] += 1
    return counts


def load_ratio(shard_map, keys):
    """max/min shard load over ``keys`` (``inf`` on a starved shard): a
    ratio near 1.0 means the ring spreads the key population evenly."""
    counts = loads(shard_map, keys)
    lightest = min(counts.values())
    return float("inf") if lightest == 0 else max(counts.values()) / lightest


def remapped_fraction(before, after, keys):
    """Fraction of ``keys`` whose owner differs between the maps."""
    moved = sum(1 for key in keys if before.shard_for(key) != after.shard_for(key))
    return moved / len(keys) if keys else 0.0


names_strategy = st.lists(
    st.sampled_from(
        ["us-east", "us-west", "eu", "ap", "sa", "af", "oc", "in"]
    ),
    min_size=2,
    max_size=8,
    unique=True,
)


@settings(max_examples=40, deadline=None)
@given(names=names_strategy, version=st.integers(1, 9))
def test_assignment_deterministic_across_rebuilds(names, version):
    reference = ShardMap(names, version=version)
    rebuilt = ShardMap(list(reversed(names)), version=version)
    roundtrip = ShardMap.loads_json(json.dumps(reference.to_payload()))
    assert rebuilt == reference
    assert roundtrip == reference
    for key in range(KEYSPACE):
        owner = reference.shard_for(key)
        assert rebuilt.shard_for(key) == owner
        assert roundtrip.shard_for(key) == owner


@settings(max_examples=40, deadline=None)
@given(names=names_strategy)
def test_assignment_balanced(names):
    shard_map = ShardMap(names)
    counts = loads(shard_map, range(KEYSPACE))
    assert sum(counts.values()) == KEYSPACE
    assert set(counts) == set(names)
    assert load_ratio(shard_map, range(KEYSPACE)) <= 2.0


@settings(max_examples=40, deadline=None)
@given(names=names_strategy, new_name=st.just("new-region"))
def test_shard_add_remaps_bounded_fraction(names, new_name):
    before = ShardMap(names)
    after = before.with_shard(new_name)
    assert after.version == before.version + 1
    moved = remapped_fraction(before, after, range(KEYSPACE))
    assert moved <= 2.0 / (len(names) + 1)
    # Every moved key lands on the new shard: stealing between
    # survivors would be extra churn consistent hashing exists to avoid.
    for key in range(KEYSPACE):
        old_owner = before.shard_for(key)
        new_owner = after.shard_for(key)
        if new_owner != old_owner:
            assert new_owner == new_name


@settings(max_examples=40, deadline=None)
@given(names=names_strategy)
def test_shard_remove_only_moves_orphans(names):
    before = ShardMap(names)
    victim = sorted(names)[0]
    after = before.without_shard(victim)
    for key in range(KEYSPACE):
        old_owner = before.shard_for(key)
        new_owner = after.shard_for(key)
        if old_owner != victim:
            assert new_owner == old_owner
        else:
            assert new_owner != victim
