"""Unit tests for the global-cloud topology preset."""

import pytest

from repro.net.presets import (
    GLOBAL_REGIONS,
    Region,
    global_cloud_topology,
    haversine_km,
    link_price,
)


def test_haversine_known_distances():
    # Dublin <-> Frankfurt is about 1100 km.
    dublin, frankfurt = GLOBAL_REGIONS[2], GLOBAL_REGIONS[3]
    d = haversine_km(dublin.lat, dublin.lon, frankfurt.lat, frankfurt.lon)
    assert 900 < d < 1300
    # A point to itself is 0.
    assert haversine_km(10, 20, 10, 20) == pytest.approx(0.0)
    # Antipodal-ish: half the circumference is ~20000 km.
    assert 19000 < haversine_km(0, 0, 0, 180) < 21000


def test_price_ordering_matches_transit_reality():
    by_name = {r.name: r for r in GLOBAL_REGIONS}
    domestic = link_price(by_name["us-east"], by_name["us-west"])
    transatlantic = link_price(by_name["us-east"], by_name["eu-west"])
    transpacific = link_price(by_name["us-west"], by_name["ap-southeast"])
    assert domestic < transatlantic < transpacific


def test_asymmetric_markets():
    by_name = {r.name: r for r in GLOBAL_REGIONS}
    out_of_sa = link_price(by_name["sa-east"], by_name["us-east"])
    into_sa = link_price(by_name["us-east"], by_name["sa-east"])
    assert out_of_sa > into_sa  # pricier egress from the expensive market


def test_topology_construction():
    topo = global_cloud_topology(capacity=80.0)
    assert topo.num_datacenters == 8
    assert topo.is_complete()
    assert all(l.capacity == 80.0 for l in topo.links)
    assert topo.datacenter(0).name == "us-east"
    assert topo.datacenter(0).region == "na"


def test_topology_is_deterministic():
    a = global_cloud_topology()
    b = global_cloud_topology()
    assert [l.price for l in a.links] == [l.price for l in b.links]


def test_custom_regions():
    regions = [
        Region("a", "x", 0.0, 0.0, 1.0),
        Region("b", "x", 0.0, 10.0, 1.0),
    ]
    topo = global_cloud_topology(capacity=10.0, regions=regions)
    assert topo.num_datacenters == 2
    assert topo.num_links == 2


def test_preset_works_with_scheduler():
    from repro.core import PostcardScheduler
    from repro.traffic import TransferRequest

    topo = global_cloud_topology(capacity=50.0)
    scheduler = PostcardScheduler(topo, horizon=20)
    request = TransferRequest(0, 4, 30.0, 3, release_slot=0)  # us-east -> ap
    schedule = scheduler.on_slot(0, [request])
    assert schedule.delivered_volume(request) == pytest.approx(30.0)
