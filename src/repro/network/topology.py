"""The k-ary fat-tree topology and its equal-cost paths.

The paper's setup: "a common 54-server three-layered fat-tree topology, with a
full bisection-bandwidth fabric consisting of 45 6-port switches organized in
6 pods".  That is the standard k = 6 fat-tree: (k/2)^2 = 9 core switches,
k pods each with k/2 = 3 aggregation and 3 edge switches, and k/2 = 3 hosts
per edge switch, for k^3/4 = 54 hosts and 45 switches.

:class:`FatTreeTopology` builds the topology (as a :mod:`networkx` graph for
introspection and tests) and enumerates, for every host pair, the complete set
of equal-cost shortest paths that ECMP hashes over.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import networkx as nx

from repro.exceptions import ConfigurationError, RoutingError


class FatTreeTopology:
    """A k-ary fat-tree.

    Node naming convention:

    * hosts: ``h_<pod>_<edge>_<i>`` with ``i`` in ``[0, k/2)``
    * edge switches: ``e_<pod>_<edge>``
    * aggregation switches: ``a_<pod>_<agg>``
    * core switches: ``c_<group>_<i>`` where aggregation switch ``agg`` of any
      pod connects to the ``k/2`` core switches of group ``agg``.

    Attributes:
        k: Switch radix (must be even, >= 2).
        graph: Undirected :class:`networkx.Graph` of the topology.
    """

    def __init__(self, k: int = 6) -> None:
        """Build a k-ary fat-tree (k even)."""
        if k < 2 or k % 2 != 0:
            raise ConfigurationError(f"fat-tree k must be an even integer >= 2, got {k!r}")
        self.k = int(k)
        self.graph = nx.Graph()
        self._build()
        self._path_cache: Dict[Tuple[str, str], List[List[str]]] = {}

    # ------------------------------------------------------------------ #

    @property
    def half(self) -> int:
        """k/2: hosts per edge switch, edge/agg switches per pod, cores per group."""
        return self.k // 2

    @property
    def num_hosts(self) -> int:
        """Number of hosts, ``k^3 / 4``."""
        return self.k**3 // 4

    def hosts(self) -> List[str]:
        """All host names, sorted."""
        return sorted(n for n in self.graph.nodes if n.startswith("h_"))

    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        k, half = self.k, self.half
        for pod in range(k):
            for edge in range(half):
                edge_name = f"e_{pod}_{edge}"
                self.graph.add_node(edge_name, kind="edge", pod=pod)
                for i in range(half):
                    host = f"h_{pod}_{edge}_{i}"
                    self.graph.add_node(host, kind="host", pod=pod)
                    self.graph.add_edge(host, edge_name)
            for agg in range(half):
                agg_name = f"a_{pod}_{agg}"
                self.graph.add_node(agg_name, kind="agg", pod=pod)
                for edge in range(half):
                    self.graph.add_edge(agg_name, f"e_{pod}_{edge}")
        for group in range(half):
            for i in range(half):
                core_name = f"c_{group}_{i}"
                self.graph.add_node(core_name, kind="core", pod=-1)
                for pod in range(k):
                    self.graph.add_edge(core_name, f"a_{pod}_{group}")

    # ------------------------------------------------------------------ #

    @staticmethod
    def host_location(host: str) -> Tuple[int, int, int]:
        """Decode a host name into ``(pod, edge, index)``."""
        try:
            _, pod, edge, index = host.split("_")
            return int(pod), int(edge), int(index)
        except ValueError as exc:
            raise RoutingError(f"not a host name: {host!r}") from exc

    def equal_cost_paths(self, src: str, dst: str) -> List[List[str]]:
        """All equal-cost shortest paths between two hosts, as node-name lists.

        The result is cached; for a k=6 fat-tree there are 1, k/2 = 3 or
        (k/2)^2 = 9 paths depending on whether the hosts share an edge switch,
        share only a pod, or sit in different pods.

        Raises:
            RoutingError: If ``src == dst`` or either is not a host.
        """
        if src == dst:
            raise RoutingError("source and destination hosts are the same")
        key = (src, dst)
        if key in self._path_cache:
            return self._path_cache[key]

        s_pod, s_edge, _ = self.host_location(src)
        d_pod, d_edge, _ = self.host_location(dst)
        half = self.half
        paths: List[List[str]] = []

        if s_pod == d_pod and s_edge == d_edge:
            paths.append([src, f"e_{s_pod}_{s_edge}", dst])
        elif s_pod == d_pod:
            for agg in range(half):
                paths.append(
                    [src, f"e_{s_pod}_{s_edge}", f"a_{s_pod}_{agg}", f"e_{d_pod}_{d_edge}", dst]
                )
        else:
            for agg in range(half):
                for core_index in range(half):
                    paths.append(
                        [
                            src,
                            f"e_{s_pod}_{s_edge}",
                            f"a_{s_pod}_{agg}",
                            f"c_{agg}_{core_index}",
                            f"a_{d_pod}_{agg}",
                            f"e_{d_pod}_{d_edge}",
                            dst,
                        ]
                    )
        self._path_cache[key] = paths
        return paths
