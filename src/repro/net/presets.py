"""A realistic global-cloud topology preset.

Eight regions loosely modeled on where the big providers actually put
metal, with per-GB prices derived from a distance- and market-based
formula rather than uniform randomness:

* base price grows with great-circle distance (longer haul, more
  transit providers to pay),
* an intra-continent discount models backbone/peering economics,
* a small deterministic market factor keeps prices asymmetric
  (bandwidth out of some markets costs more than into them).

The formula is synthetic but ordered like published transit pricing:
domestic < transatlantic < transpacific, matching the paper's
observation that "domestic traffic is substantially cheaper than
traffic to global destinations".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TopologyError
from repro.net.schedule import AvailabilityWindow, LinkSchedule
from repro.net.topology import Datacenter, Link, LinkKey, Topology


@dataclass(frozen=True)
class Region:
    """A named cloud region with coordinates and a market factor."""

    name: str
    continent: str
    lat: float
    lon: float
    #: Egress price multiplier for this market (1.0 = cheap market).
    market_factor: float


#: Eight stylized regions (coordinates approximate).
GLOBAL_REGIONS: List[Region] = [
    Region("us-east", "na", 39.0, -77.5, 1.00),
    Region("us-west", "na", 45.6, -121.2, 1.00),
    Region("eu-west", "eu", 53.3, -6.3, 1.05),
    Region("eu-central", "eu", 50.1, 8.7, 1.05),
    Region("ap-southeast", "ap", 1.35, 103.8, 1.35),
    Region("ap-northeast", "ap", 35.7, 139.7, 1.30),
    Region("sa-east", "sa", -23.5, -46.6, 1.50),
    Region("ap-south", "ap", 19.1, 72.9, 1.25),
]

_EARTH_RADIUS_KM = 6371.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two coordinates, in km."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlambda = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2.0) ** 2
    )
    return 2.0 * _EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def link_price(src: Region, dst: Region) -> float:
    """Synthetic $/GB price of the overlay link src -> dst.

    price = (0.8 + distance/4000km) * market(src), with a 35%
    same-continent discount.  Ranges roughly 0.5 (intra-NA) to 7
    (SA <-> AP), a spread comparable to the paper's U[1, 10].
    """
    distance = haversine_km(src.lat, src.lon, dst.lat, dst.lon)
    base = 0.8 + distance / 4000.0
    if src.continent == dst.continent:
        base *= 0.65
    return round(base * src.market_factor, 4)


def global_cloud_topology(
    capacity: float = 100.0,
    regions: List[Region] = None,
) -> Topology:
    """A complete directed overlay over :data:`GLOBAL_REGIONS`.

    Deterministic (no RNG): suitable for examples and docs where
    reproducible prices matter.
    """
    regions = list(regions) if regions is not None else list(GLOBAL_REGIONS)
    datacenters = [
        Datacenter(i, name=region.name, region=region.continent)
        for i, region in enumerate(regions)
    ]
    links = []
    for i, src in enumerate(regions):
        for j, dst in enumerate(regions):
            if i == j:
                continue
            links.append(Link(i, j, price=link_price(src, dst), capacity=capacity))
    return Topology(datacenters, links)


# ---------------------------------------------------------------------------
# Link-schedule presets: time-varying availability over a static overlay.
# ---------------------------------------------------------------------------


def leo_pass_schedule(
    topology: Topology,
    num_slots: int,
    fraction: float = 0.5,
    period: int = 8,
    pass_length: int = 3,
    seed: int = 0,
) -> LinkSchedule:
    """Periodic satellite-pass windows over a random subset of links.

    Models a constellation relaying between ground stations: a seeded
    ``fraction`` of the overlay links ride the constellation and are up
    only while a satellite is overhead — every ``period`` slots for
    ``pass_length`` slots, with a per-link orbital phase offset spread
    deterministically across the period.  The remaining links are
    terrestrial and stay always-on.

    Deterministic for a given (topology, arguments, seed).
    """
    if not 0.0 < fraction <= 1.0:
        raise TopologyError(f"fraction must be in (0, 1], got {fraction}")
    if not 0 < pass_length <= period:
        raise TopologyError(
            f"need 0 < pass_length <= period, got {pass_length} / {period}"
        )
    if num_slots < 1:
        raise TopologyError(f"num_slots must be >= 1, got {num_slots}")
    rng = random.Random(seed)
    keys = sorted((link.src, link.dst) for link in topology.links)
    count = max(1, round(fraction * len(keys)))
    satellite = rng.sample(keys, count)
    schedule = LinkSchedule()
    for rank, (src, dst) in enumerate(sorted(satellite)):
        schedule.schedule_link(src, dst)
        phase = (rank * max(1, period // max(1, count)) + rng.randrange(period)) % period
        for start in range(phase, num_slots, period):
            end = min(start + pass_length, num_slots)
            if end > start:
                schedule.add_window(AvailabilityWindow(src, dst, start, end))
    return schedule


def ground_station_downlink_schedule(
    topology: Topology,
    num_slots: int,
    station_dcs: Sequence[int],
    period: int = 6,
    window_length: int = 2,
) -> LinkSchedule:
    """Appointment-style downlink windows at chosen ground stations.

    Every link touching a DC in ``station_dcs`` (either direction) is
    only reachable during that station's periodic downlink appointment:
    ``window_length`` slots every ``period`` slots, with the stations'
    appointments staggered round-robin so no two stations downlink in
    the same sub-slot pattern.  Links between non-station DCs stay
    always-on.  Deterministic (no RNG).
    """
    if not station_dcs:
        raise TopologyError("need at least one station datacenter")
    if not 0 < window_length <= period:
        raise TopologyError(
            f"need 0 < window_length <= period, got {window_length} / {period}"
        )
    if num_slots < 1:
        raise TopologyError(f"num_slots must be >= 1, got {num_slots}")
    stations = sorted(set(station_dcs))
    known = {dc.id for dc in topology.datacenters}
    missing = [dc for dc in stations if dc not in known]
    if missing:
        raise TopologyError(f"station DCs not in topology: {missing}")
    phase_of = {dc: i * window_length % period for i, dc in enumerate(stations)}
    schedule = LinkSchedule()
    for link in topology.links:
        station = next(
            (dc for dc in stations if dc in (link.src, link.dst)), None
        )
        if station is None:
            continue
        schedule.schedule_link(link.src, link.dst)
        for start in range(phase_of[station], num_slots, period):
            end = min(start + window_length, num_slots)
            if end > start:
                schedule.add_window(
                    AvailabilityWindow(link.src, link.dst, start, end)
                )
    return schedule


def maintenance_schedule(
    topology: Topology,
    num_slots: int,
    outages: Iterable[Tuple[LinkKey, int, int]],
    repeat_every: Optional[int] = None,
) -> LinkSchedule:
    """Planned-maintenance windows: availability is the complement.

    ``outages`` lists ``((src, dst), start_slot, end_slot)`` spans during
    which the named link is *down* for maintenance; the schedule makes
    that link available everywhere else in ``[0, num_slots)``.  With
    ``repeat_every`` the outage pattern recurs (e.g. a nightly patch
    window every 24 slots).  Links without outages stay always-on.
    """
    if num_slots < 1:
        raise TopologyError(f"num_slots must be >= 1, got {num_slots}")
    if repeat_every is not None and repeat_every < 1:
        raise TopologyError(f"repeat_every must be >= 1, got {repeat_every}")
    down: Dict[LinkKey, List[Tuple[int, int]]] = {}
    for (src, dst), start, end in outages:
        if not topology.has_link(src, dst):
            raise TopologyError(f"maintenance on unknown link ({src},{dst})")
        if start < 0 or end <= start:
            raise TopologyError(
                f"maintenance on ({src},{dst}) has empty span [{start}, {end})"
            )
        spans = down.setdefault((src, dst), [])
        if repeat_every is None:
            spans.append((start, end))
        else:
            for base in range(0, num_slots, repeat_every):
                spans.append((base + start, base + end))
    schedule = LinkSchedule()
    for (src, dst), spans in sorted(down.items()):
        schedule.schedule_link(src, dst)
        cursor = 0
        for start, end in sorted(spans):
            if start > cursor:
                schedule.add_window(
                    AvailabilityWindow(src, dst, cursor, min(start, num_slots))
                )
            cursor = max(cursor, end)
            if cursor >= num_slots:
                break
        if cursor < num_slots:
            schedule.add_window(AvailabilityWindow(src, dst, cursor, num_slots))
    return schedule
