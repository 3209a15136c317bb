"""Front-end routing for the broker fabric: the versioned shard map.

A fleet of per-region :class:`~repro.service.slotloop.TransferBroker`
shards needs one deterministic answer to "which shard owns submissions
sourced at datacenter ``d``?" — deterministic across processes (two
routers with the same map must agree), across restarts (a resumed
router must route exactly as the dead one did), and *stable* under
fleet growth (adding a shard must remap only ~1/N of the keys, or
every region's ledger and checkpoint history is suddenly on the wrong
shard).

:class:`ShardMap` answers with a consistent-hash ring: every shard
contributes ``vnodes`` points on a 2^64 ring (SHA-1 of
``"<shard>#<i>"`` — a *keyed* hash, never Python's process-seeded
``hash()``), and a key is owned by the first shard point at or after
the key's own ring position.  The map carries an explicit ``version``
that increments on every membership change, so a router and its shards
can detect that they disagree about the fleet before misrouting
anything (see :func:`repro.service.fabric`).
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from repro.errors import ServiceError

#: Ring points contributed per shard.  More points -> better balance
#: (load imbalance shrinks roughly with 1/sqrt(vnodes)); 128 keeps the
#: max/min shard-load ratio under ~1.6 for uniform keys at fleet sizes
#: the property tests sweep, at a few KB of ring per shard.
DEFAULT_VNODES = 128

ShardKey = Union[int, str]


def _point(token: str) -> int:
    """A stable 64-bit ring position for ``token``.

    SHA-1 rather than ``hash()``: Python's string hashing is salted
    per process (PYTHONHASHSEED), and the whole value of the map is
    that two processes — or one process before and after a crash —
    place every key identically.
    """
    return int.from_bytes(hashlib.sha1(token.encode()).digest()[:8], "big")


def _key_point(key: ShardKey) -> int:
    return _point(f"dc:{key}")


class ShardMap:
    """Deterministic key -> shard assignment over a consistent-hash ring.

    Parameters
    ----------
    shards:
        Shard names (unique, non-empty).  Order does not matter: the
        ring is a pure function of the *set* of names.
    vnodes:
        Ring points per shard.
    version:
        Monotone map version; bumped by :meth:`with_shard` /
        :meth:`without_shard` so fabric components can detect stale
        maps.
    """

    def __init__(
        self,
        shards: Sequence[str],
        vnodes: int = DEFAULT_VNODES,
        version: int = 1,
    ):
        names = list(shards)
        if not names:
            raise ServiceError("a shard map needs at least one shard")
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate shard names: {sorted(names)}")
        if any(not name for name in names):
            raise ServiceError("shard names must be non-empty")
        if vnodes < 1:
            raise ServiceError(f"vnodes must be >= 1, got {vnodes}")
        if version < 1:
            raise ServiceError(f"map version must be >= 1, got {version}")
        self.shards: List[str] = sorted(names)
        self.vnodes = vnodes
        self.version = version
        ring: List[Tuple[int, str]] = []
        for name in self.shards:
            for i in range(vnodes):
                ring.append((_point(f"{name}#{i}"), name))
        # Ties (two shards hashing onto one point) are broken by name
        # so the ring is still a pure function of the membership set.
        ring.sort()
        self._ring = ring
        self._points = [point for point, _ in ring]

    # -- routing -----------------------------------------------------------

    def shard_for(self, key: ShardKey) -> str:
        """The shard owning ``key`` (a source-datacenter id)."""
        index = bisect.bisect_right(self._points, _key_point(key))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    def assignments(self, keys: Iterable[ShardKey]) -> Dict[ShardKey, str]:
        """Owner of every key in ``keys``."""
        return {key: self.shard_for(key) for key in keys}

    # -- membership changes ------------------------------------------------

    def with_shard(self, name: str) -> "ShardMap":
        """A new map (version + 1) with ``name`` added.

        Consistent hashing is the point of this method: only keys
        falling into the new shard's ring arcs move — an expected
        1/(N+1) of them, and the property tests bound the realized
        fraction by 2/(N+1).
        """
        if name in self.shards:
            raise ServiceError(f"shard {name!r} is already in the map")
        return ShardMap(
            self.shards + [name], vnodes=self.vnodes, version=self.version + 1
        )

    def without_shard(self, name: str) -> "ShardMap":
        """A new map (version + 1) with ``name`` removed."""
        if name not in self.shards:
            raise ServiceError(f"shard {name!r} is not in the map")
        return ShardMap(
            [s for s in self.shards if s != name],
            vnodes=self.vnodes,
            version=self.version + 1,
        )

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form; rebuilding from it routes identically."""
        return {
            "shards": list(self.shards),
            "vnodes": self.vnodes,
            "version": self.version,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ShardMap":
        return cls(
            [str(name) for name in payload["shards"]],
            vnodes=int(payload.get("vnodes", DEFAULT_VNODES)),
            version=int(payload.get("version", 1)),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def loads_json(cls, text: str) -> "ShardMap":
        return cls.from_payload(json.loads(text))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardMap)
            and self.shards == other.shards
            and self.vnodes == other.vnodes
            and self.version == other.version
        )

    def __repr__(self) -> str:
        return (
            f"ShardMap(shards={self.shards}, vnodes={self.vnodes}, "
            f"version={self.version})"
        )
