"""Tests for the fat-tree topology and ECMP routing."""

import networkx as nx
import pytest

from repro.exceptions import ConfigurationError, RoutingError
from repro.network import EcmpRouter, FatTreeTopology


def num_switches(topo):
    """Switches a k-ary fat-tree has: ``k^2 + (k/2)^2``, i.e. 45 for k = 6."""
    return topo.k * topo.k + topo.half * topo.half


def switches(topo):
    """All switch names, sorted."""
    return sorted(n for n in topo.graph.nodes if not n.startswith("h_"))


def verify(topo):
    """The reference check of a built fat-tree: its host and switch counts,
    and every switch's degree k."""
    assert len(topo.hosts()) == topo.num_hosts
    assert len(switches(topo)) == num_switches(topo)
    for switch in switches(topo):
        assert topo.graph.degree(switch) == topo.k, switch


class TestFatTreeTopology:
    def test_paper_scale_counts(self):
        topo = FatTreeTopology(k=6)
        assert topo.num_hosts == 54
        assert num_switches(topo) == 45
        assert len(topo.hosts()) == 54
        assert len(switches(topo)) == 45

    def test_verify_passes_for_k4_and_k6(self):
        verify(FatTreeTopology(k=4))
        verify(FatTreeTopology(k=6))

    def test_switch_degree_equals_k(self):
        topo = FatTreeTopology(k=4)
        for switch in switches(topo):
            assert topo.graph.degree(switch) == 4

    def test_hosts_have_single_uplink(self):
        topo = FatTreeTopology(k=4)
        for host in topo.hosts():
            assert topo.graph.degree(host) == 1

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigurationError):
            FatTreeTopology(k=5)

    def test_path_counts_by_locality(self):
        topo = FatTreeTopology(k=6)
        same_edge = topo.equal_cost_paths("h_0_0_0", "h_0_0_1")
        same_pod = topo.equal_cost_paths("h_0_0_0", "h_0_1_0")
        cross_pod = topo.equal_cost_paths("h_0_0_0", "h_3_2_1")
        assert len(same_edge) == 1
        assert len(same_pod) == 3
        assert len(cross_pod) == 9

    def test_paths_are_valid_graph_paths(self):
        topo = FatTreeTopology(k=4)
        for path in topo.equal_cost_paths("h_0_0_0", "h_2_1_1"):
            for u, v in zip(path, path[1:]):
                assert topo.graph.has_edge(u, v)

    def test_paths_match_networkx_shortest_length(self):
        topo = FatTreeTopology(k=4)
        src, dst = "h_0_0_0", "h_2_1_1"
        expected = nx.shortest_path_length(topo.graph, src, dst)
        for path in topo.equal_cost_paths(src, dst):
            assert len(path) - 1 == expected

    def test_full_bisection_structure(self):
        # Every aggregation switch reaches k/2 distinct core switches.
        topo = FatTreeTopology(k=6)
        cores = [n for n in topo.graph.neighbors("a_0_0") if n.startswith("c_")]
        assert len(cores) == 3

    def test_same_host_rejected(self):
        with pytest.raises(RoutingError):
            FatTreeTopology(k=4).equal_cost_paths("h_0_0_0", "h_0_0_0")

    def test_host_location_parsing(self):
        assert FatTreeTopology.host_location("h_2_1_0") == (2, 1, 0)
        with pytest.raises(RoutingError):
            FatTreeTopology.host_location("e_0_0")


class TestEcmpRouter:
    def test_default_path_is_deterministic(self):
        topo = FatTreeTopology(k=6)
        router = EcmpRouter(topo)
        a = router.default_path(1, "h_0_0_0", "h_3_2_1")
        b = router.default_path(1, "h_0_0_0", "h_3_2_1")
        assert a == b

    def test_different_flows_spread_over_paths(self):
        topo = FatTreeTopology(k=6)
        router = EcmpRouter(topo)
        chosen = {tuple(router.default_path(i, "h_0_0_0", "h_3_2_1")) for i in range(200)}
        assert len(chosen) > 3  # many of the 9 paths get used

    def test_alternate_differs_from_default_when_possible(self):
        topo = FatTreeTopology(k=6)
        router = EcmpRouter(topo)
        for flow_id in range(100):
            default = router.default_path(flow_id, "h_0_0_0", "h_3_2_1")
            alternate = router.alternate_path(flow_id, "h_0_0_0", "h_3_2_1")
            assert default != alternate

    def test_alternate_equals_default_for_single_path_pairs(self):
        topo = FatTreeTopology(k=6)
        router = EcmpRouter(topo)
        assert router.alternate_path(7, "h_0_0_0", "h_0_0_1") == router.default_path(
            7, "h_0_0_0", "h_0_0_1"
        )

    def test_path_links_pairs(self):
        topo = FatTreeTopology(k=4)
        router = EcmpRouter(topo)
        path = router.default_path(1, "h_0_0_0", "h_1_0_0")
        links = router.path_links(path)
        assert links[0][0] == "h_0_0_0"
        assert links[-1][1] == "h_1_0_0"
        assert len(links) == len(path) - 1

    def test_path_links_too_short(self):
        router = EcmpRouter(FatTreeTopology(k=4))
        with pytest.raises(RoutingError):
            router.path_links(["h_0_0_0"])
