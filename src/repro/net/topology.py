"""Datacenters, overlay links, and the Topology container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import TopologyError

NodeId = int
LinkKey = Tuple[NodeId, NodeId]


@dataclass(frozen=True)
class Datacenter:
    """One datacenter (a node of the overlay graph).

    ``region`` is a free-form label used by workload generators (e.g. to
    bias sources toward one continent in the diurnal workload).
    """

    id: NodeId
    name: str = ""
    region: str = ""

    def __post_init__(self):
        if self.id < 0:
            raise TopologyError(f"datacenter id must be non-negative, got {self.id}")
        if not self.name:
            object.__setattr__(self, "name", f"DC{self.id}")


@dataclass(frozen=True)
class Link:
    """A directed overlay link between two datacenters.

    Attributes
    ----------
    src, dst:
        Endpoint datacenter ids (``src != dst``).
    price:
        Cost per traffic unit (the paper's ``a_ij``), in $/GB.
    capacity:
        Volume the link can carry in one time slot (the paper's
        ``c_ij * t_bar``), in GB/slot.  ``float("inf")`` models the
        paper's "sufficiently large" links of the Fig. 1 example.
    """

    src: NodeId
    dst: NodeId
    price: float
    capacity: float

    def __post_init__(self):
        if self.src == self.dst:
            raise TopologyError(f"self-loop link at datacenter {self.src}")
        if self.price < 0:
            raise TopologyError(f"link ({self.src},{self.dst}) has negative price")
        if self.capacity <= 0:
            raise TopologyError(f"link ({self.src},{self.dst}) has non-positive capacity")

    @property
    def key(self) -> LinkKey:
        return (self.src, self.dst)


class Topology:
    """An inter-datacenter overlay network.

    The paper models a complete directed graph, but the container
    supports arbitrary directed topologies so the motivating examples
    (Fig. 1, Fig. 3) and ablations can use sparse graphs.
    """

    def __init__(self, datacenters: Iterable[Datacenter], links: Iterable[Link]):
        self.datacenters: List[Datacenter] = list(datacenters)
        if not self.datacenters:
            raise TopologyError("a topology needs at least one datacenter")
        ids = [dc.id for dc in self.datacenters]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate datacenter ids")
        self._by_id: Dict[NodeId, Datacenter] = {dc.id: dc for dc in self.datacenters}

        self.links: List[Link] = []
        self._link_map: Dict[LinkKey, Link] = {}
        self._out: Dict[NodeId, List[Link]] = {dc.id: [] for dc in self.datacenters}
        self._in: Dict[NodeId, List[Link]] = {dc.id: [] for dc in self.datacenters}
        for link in links:
            self.add_link(link)

    # -- construction ---------------------------------------------------

    def add_link(self, link: Link) -> None:
        """Add one directed link; endpoints must exist and be unique."""
        if link.src not in self._by_id or link.dst not in self._by_id:
            raise TopologyError(
                f"link ({link.src},{link.dst}) references unknown datacenter"
            )
        if link.key in self._link_map:
            raise TopologyError(f"duplicate link ({link.src},{link.dst})")
        self.links.append(link)
        self._link_map[link.key] = link
        self._out[link.src].append(link)
        self._in[link.dst].append(link)

    # -- queries -----------------------------------------------------------

    @property
    def num_datacenters(self) -> int:
        return len(self.datacenters)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def datacenter(self, node_id: NodeId) -> Datacenter:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise TopologyError(f"no datacenter with id {node_id}") from None

    def has_link(self, src: NodeId, dst: NodeId) -> bool:
        return (src, dst) in self._link_map

    def link(self, src: NodeId, dst: NodeId) -> Link:
        try:
            return self._link_map[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link ({src},{dst})") from None

    def out_links(self, node_id: NodeId) -> List[Link]:
        """Links leaving ``node_id`` (validates the id)."""
        self.datacenter(node_id)
        return list(self._out[node_id])

    def in_links(self, node_id: NodeId) -> List[Link]:
        """Links entering ``node_id`` (validates the id)."""
        self.datacenter(node_id)
        return list(self._in[node_id])

    def node_ids(self) -> List[NodeId]:
        return [dc.id for dc in self.datacenters]

    def __iter__(self) -> Iterator[Link]:
        return iter(self.links)

    def __contains__(self, key: LinkKey) -> bool:
        return key in self._link_map

    # -- derived views -------------------------------------------------------

    def is_complete(self) -> bool:
        """True when every ordered datacenter pair has a link."""
        n = self.num_datacenters
        return self.num_links == n * (n - 1)

    def to_networkx(self):
        """Export as a networkx DiGraph with price/capacity attributes
        (networkx loads here: no daemon module needs it)."""
        import networkx as nx

        graph = nx.DiGraph()
        for dc in self.datacenters:
            graph.add_node(dc.id, name=dc.name, region=dc.region)
        for link in self.links:
            graph.add_edge(link.src, link.dst, price=link.price, capacity=link.capacity)
        return graph

    def __repr__(self) -> str:
        return f"Topology(datacenters={self.num_datacenters}, links={self.num_links})"
