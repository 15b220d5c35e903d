"""A PLUTO-style routing underlay for the synthetic testbed.

The paper positions PLUTO (Nakao, Peterson, Bavier — SIGCOMM 2003) as
"completely complementary" to iOverlay: a layer that exposes underlay
topological information — connectivity, disjoint end-to-end paths, and
distances in latency or router hops — to overlay algorithms, and its
Section 5 names integrating it "as additional reusable components in the
form of libraries" as future work.  This module is that library for the
simulated testbed.

The underlay model: every site has an access router; regional routers
aggregate the sites of one region; a full backbone mesh connects the
regions.  Crude, but it yields the two signals overlay algorithms
consume — relative distance and path (in)dependence — with the same
statistical flavour as real traceroute-derived underlays.
"""

from __future__ import annotations

import networkx as nx

from repro.core.ids import NodeId
from repro.errors import UnknownNodeError
from repro.testbed.latency import one_way_latency
from repro.testbed.planetlab import PlanetLabTestbed
from repro.testbed.sites import Site


class PlutoUnderlay:
    """Topological queries over the testbed's underlying router network."""

    def __init__(self, testbed: PlanetLabTestbed) -> None:
        self._site_of: dict[NodeId, Site] = {
            node.node_id: node.site for node in testbed.nodes
        }
        self.graph = nx.Graph()
        sites = {node.site.name: node.site for node in testbed.nodes}
        regions = sorted({site.region for site in sites.values()})
        for region in regions:
            self.graph.add_node(f"core:{region}", kind="core")
        # Full backbone mesh between regional cores.
        for i, region_a in enumerate(regions):
            for region_b in regions[i + 1 :]:
                # Backbone latency approximated from one representative
                # site pair of the two regions.
                rep_a = next(s for s in sites.values() if s.region == region_a)
                rep_b = next(s for s in sites.values() if s.region == region_b)
                self.graph.add_edge(
                    f"core:{region_a}", f"core:{region_b}",
                    latency=one_way_latency(rep_a, rep_b),
                )
        for site in sites.values():
            self.graph.add_node(f"site:{site.name}", kind="access")
            self.graph.add_edge(
                f"site:{site.name}", f"core:{site.region}", latency=0.004
            )
        # Overlay nodes hang off their site's access router.
        for node_id, site in self._site_of.items():
            self.graph.add_node(f"node:{node_id}", kind="host")
            self.graph.add_edge(f"node:{node_id}", f"site:{site.name}", latency=0.001)

    # ------------------------------------------------------------------- queries

    def _vertex(self, node: NodeId) -> str:
        if node not in self._site_of:
            raise UnknownNodeError(f"{node} is not attached to the underlay")
        return f"node:{node}"

    def router_hops(self, a: NodeId, b: NodeId) -> int:
        """Number of underlay router hops between two overlay nodes."""
        if a == b:
            return 0
        return nx.shortest_path_length(self.graph, self._vertex(a), self._vertex(b))

    def latency(self, a: NodeId, b: NodeId) -> float:
        """Underlay path latency between two overlay nodes (seconds)."""
        if a == b:
            return 0.0
        return nx.shortest_path_length(
            self.graph, self._vertex(a), self._vertex(b), weight="latency"
        )

    def path(self, a: NodeId, b: NodeId) -> list[str]:
        """The underlay router path (vertex labels) between two nodes."""
        return nx.shortest_path(self.graph, self._vertex(a), self._vertex(b))

    def paths_disjoint(self, a: NodeId, b: NodeId, c: NodeId, d: NodeId) -> bool:
        """Do the underlay paths a->b and c->d share any router?

        Overlay algorithms use this to pick backup routes whose failures
        are independent (PLUTO's "disjoint end-to-end paths" service).
        """
        first = {v for v in self.path(a, b) if not v.startswith("node:")}
        second = {v for v in self.path(c, d) if not v.startswith("node:")}
        return not (first & second)

    def closest(self, node: NodeId, candidates: list[NodeId]) -> NodeId:
        """The candidate with the smallest underlay latency to ``node``."""
        if not candidates:
            raise ValueError("no candidates")
        return min(candidates, key=lambda c: (self.latency(node, c), str(c)))

    def nodes(self) -> list[NodeId]:
        return list(self._site_of)
