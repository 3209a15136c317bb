"""Topology generators.

``paper_topology`` reproduces the evaluation setup of Sec. VII: a
complete directed graph over 20 datacenters with per-link prices drawn
uniformly from [1, 10] and a uniform per-slot capacity.  The other
generators provide the motivating examples (Fig. 1, Fig. 3) and common
shapes used in tests and ablations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import TopologyError
from repro.net.topology import Datacenter, Link, Topology


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def complete_topology(
    num_datacenters: int,
    capacity: float,
    price_low: float = 1.0,
    price_high: float = 10.0,
    seed: Optional[int] = None,
    symmetric_prices: bool = False,
) -> Topology:
    """A complete directed graph with uniform-random per-link prices.

    ``symmetric_prices=True`` makes a_ij == a_ji (useful for ablations;
    the paper draws each direction independently).
    """
    if num_datacenters < 2:
        raise TopologyError("complete topology needs at least 2 datacenters")
    if price_low < 0 or price_high < price_low:
        raise TopologyError("invalid price range")
    rng = _rng(seed)
    datacenters = [Datacenter(i) for i in range(num_datacenters)]
    links = []
    for i in range(num_datacenters):
        for j in range(num_datacenters):
            if i == j:
                continue
            if symmetric_prices and j < i:
                price = next(
                    l.price for l in links if l.src == j and l.dst == i
                )
            else:
                price = float(rng.uniform(price_low, price_high))
            links.append(Link(i, j, price=price, capacity=capacity))
    return Topology(datacenters, links)


def paper_topology(
    capacity: float,
    num_datacenters: int = 20,
    seed: Optional[int] = None,
) -> Topology:
    """The Sec. VII evaluation network: 20 DCs, complete, a ~ U[1, 10].

    ``capacity`` is either 100 (the "sufficient" settings of Figs. 4-5)
    or 30 (the "limited" settings of Figs. 6-7), in GB/slot.
    """
    return complete_topology(
        num_datacenters=num_datacenters,
        capacity=capacity,
        price_low=1.0,
        price_high=10.0,
        seed=seed,
    )


def fig1_topology(capacity: float = float("inf")) -> Topology:
    """The Fig. 1 motivating example: three datacenters.

    Prices: D2->D3 costs 10, D2->D1 costs 1, D1->D3 costs 3 per MB
    (we keep the numbers; the unit is irrelevant).  Links are symmetric
    in price.  Datacenter ids are 1-based to match the figure.
    """
    datacenters = [Datacenter(1), Datacenter(2), Datacenter(3)]
    prices = {(2, 3): 10.0, (3, 2): 10.0, (1, 2): 1.0, (2, 1): 1.0, (1, 3): 3.0, (3, 1): 3.0}
    links = [Link(s, d, price=p, capacity=capacity) for (s, d), p in prices.items()]
    return Topology(datacenters, links)


def fig3_topology(capacity: float = 5.0) -> Topology:
    """The Fig. 3 worked example: four datacenters, capacity 5 per slot.

    The figure's per-link prices are not legible in the paper text, so
    they are reconstructed (symmetric) to make every number quoted in
    the text hold exactly:

    * a_12 = 1, a_14 = 6, a_24 = 11, a_23 = 4, a_34 = 6, a_13 = 4.

    With File 1 = (2 -> 4, F=8, T=4) and File 2 = (1 -> 4, F=10, T=2):

    * naive direct transfer at the desired rates costs
      2*a_24 + 5*a_14 = 52 per slot,
    * the flow-based optimum routes File 2 on {1->4} and File 1 on
      {2->3->4} for 5*a_14 + 2*(a_23 + a_34) = 50 per slot,
    * the Postcard optimum stores File 1 at DC 1 and rides the
      already-paid link {1->4} after File 2 completes, for
      5*a_14 + (8/3)*a_12 = 98/3 = 32.67 per slot.
    """
    datacenters = [Datacenter(i) for i in (1, 2, 3, 4)]
    base = {(1, 2): 1.0, (1, 4): 6.0, (2, 4): 11.0, (2, 3): 4.0, (3, 4): 6.0, (1, 3): 4.0}
    links = []
    for (s, d), p in base.items():
        links.append(Link(s, d, price=p, capacity=capacity))
        links.append(Link(d, s, price=p, capacity=capacity))
    return Topology(datacenters, links)


def line_topology(
    num_datacenters: int,
    capacity: float,
    price: float = 1.0,
    bidirectional: bool = True,
) -> Topology:
    """A path D0 - D1 - ... - Dn-1 with uniform prices."""
    if num_datacenters < 2:
        raise TopologyError("line topology needs at least 2 datacenters")
    datacenters = [Datacenter(i) for i in range(num_datacenters)]
    links = []
    for i in range(num_datacenters - 1):
        links.append(Link(i, i + 1, price=price, capacity=capacity))
        if bidirectional:
            links.append(Link(i + 1, i, price=price, capacity=capacity))
    return Topology(datacenters, links)


def ring_topology(num_datacenters: int, capacity: float, price: float = 1.0) -> Topology:
    """A bidirectional ring with uniform prices."""
    if num_datacenters < 3:
        raise TopologyError("ring topology needs at least 3 datacenters")
    datacenters = [Datacenter(i) for i in range(num_datacenters)]
    links = []
    for i in range(num_datacenters):
        j = (i + 1) % num_datacenters
        links.append(Link(i, j, price=price, capacity=capacity))
        links.append(Link(j, i, price=price, capacity=capacity))
    return Topology(datacenters, links)


def star_topology(
    num_leaves: int,
    capacity: float,
    spoke_price: float = 1.0,
) -> Topology:
    """A hub (id 0) with ``num_leaves`` spokes; all traffic relays via 0."""
    if num_leaves < 2:
        raise TopologyError("star topology needs at least 2 leaves")
    datacenters = [Datacenter(0, name="hub")] + [
        Datacenter(i) for i in range(1, num_leaves + 1)
    ]
    links = []
    for i in range(1, num_leaves + 1):
        links.append(Link(0, i, price=spoke_price, capacity=capacity))
        links.append(Link(i, 0, price=spoke_price, capacity=capacity))
    return Topology(datacenters, links)


def two_region_topology(
    per_region: int,
    capacity: float,
    intra_price: float = 1.0,
    inter_price: float = 8.0,
    seed: Optional[int] = None,
) -> Topology:
    """Two complete regions joined by expensive transcontinental links.

    Mirrors the paper's observation that domestic traffic is much
    cheaper than global traffic: intra-region links cost
    ``intra_price`` per GB, inter-region links ``inter_price``.
    Every ordered pair is connected (the graph stays complete).
    """
    if per_region < 1:
        raise TopologyError("each region needs at least 1 datacenter")
    rng = _rng(seed)
    total = 2 * per_region
    datacenters = [
        Datacenter(i, region="east" if i < per_region else "west") for i in range(total)
    ]
    links = []
    for i in range(total):
        for j in range(total):
            if i == j:
                continue
            same = (i < per_region) == (j < per_region)
            base = intra_price if same else inter_price
            jitter = float(rng.uniform(0.9, 1.1))
            links.append(Link(i, j, price=base * jitter, capacity=capacity))
    return Topology(datacenters, links)
