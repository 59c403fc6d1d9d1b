"""Unit tests for the grid network model."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.grid.network import Link, Network, NetworkError, USER_SITE


class TestLink:
    def test_transfer_time_formula(self):
        link = Link(bandwidth_mbps=100.0, latency_s=0.01)
        # 10 MB at 100 MB/s = 0.1 s, plus latency.
        assert link.transfer_time(10_000_000) == pytest.approx(0.11)

    def test_zero_bytes_costs_latency_only(self):
        assert Link(100.0, 0.02).transfer_time(0) == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bandwidth_mbps=0),
            dict(latency_s=-1),
            dict(bandwidth_mbps=math.nan),
            dict(bandwidth_mbps=math.inf),
            dict(latency_s=math.nan),
            dict(latency_s=math.inf),
        ],
    )
    def test_validation(self, kwargs):
        params = dict(bandwidth_mbps=100.0, latency_s=0.0)
        params.update(kwargs)
        with pytest.raises(ValueError):
            Link(**params)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Link(100.0, 0.0).transfer_time(-1)

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_non_finite_size_rejected(self, size):
        with pytest.raises(ValueError):
            Link(100.0, 0.0).transfer_time(size)


class TestTopology:
    def test_fully_connected_has_all_routes(self):
        net = Network.fully_connected([0, 1, 2])
        for a in (0, 1, 2, USER_SITE):
            for b in (0, 1, 2, USER_SITE):
                assert net.has_route(a, b)

    def test_self_link_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.connect(1, 1, Link(100.0, 0.0))

    def test_user_uplink_can_differ(self):
        net = Network.fully_connected(
            [0, 1], bandwidth_mbps=100.0, latency_s=0.001,
            user_bandwidth_mbps=10.0, user_latency_s=0.05,
        )
        size = 10_000_000
        assert net.transfer_time(size, USER_SITE, 0) > net.transfer_time(size, 0, 1)

    def test_remove_site(self):
        net = Network.fully_connected([0, 1])
        net.remove_site(1)
        assert not net.has_route(0, 1)
        assert not net.has_route(1, 1)  # every known site reaches itself

    def test_user_site_cannot_be_removed(self):
        with pytest.raises(ValueError):
            Network().remove_site(USER_SITE)

    def test_disconnect(self):
        net = Network()
        net.connect(0, 1, Link(100.0, 0.0))
        net.disconnect(0, 1)
        assert not net.has_route(0, 1)
        with pytest.raises(NetworkError):
            net.disconnect(0, 1)


class TestTransferTimes:
    def test_same_site_is_free(self):
        net = Network.fully_connected([0, 1])
        assert net.transfer_time(10**9, 0, 0) == 0.0

    def test_multi_hop_sums_latency_uses_bottleneck(self):
        net = Network()
        net.connect(0, 1, Link(bandwidth_mbps=100.0, latency_s=0.01))
        net.connect(1, 2, Link(bandwidth_mbps=10.0, latency_s=0.02))
        t = net.transfer_time(10_000_000, 0, 2)
        # latencies 0.01 + 0.02, bottleneck 10 MB/s -> 1 s serialization.
        assert t == pytest.approx(1.03)

    def test_no_route_raises(self):
        net = Network()
        net.connect(0, 1, Link(100.0, 0.0))
        net.connect(2, 3, Link(100.0, 0.0))
        with pytest.raises(NetworkError, match="no route"):
            net.transfer_time(100, 0, 3)

    def test_unknown_site_raises(self):
        net = Network()
        with pytest.raises(NetworkError, match="unknown"):
            net.path(0, 42)

    def test_min_latency_path_chosen(self):
        net = Network()
        net.connect(0, 1, Link(1000.0, 0.5))  # fast but high latency
        net.connect(0, 2, Link(1000.0, 0.01))
        net.connect(2, 1, Link(1000.0, 0.01))
        assert net.path(0, 1) == [0, 2, 1]

    @pytest.mark.parametrize("size", [-1, math.nan, math.inf])
    def test_bad_size_rejected(self, size):
        net = Network.fully_connected([0, 1])
        with pytest.raises(ValueError):
            net.transfer_time(size, 0, 1)


class MirroredNetwork(Network):
    """A Network that replays every topology change onto a networkx
    graph, so routes can be checked against ``nx.shortest_path``."""

    def __init__(self) -> None:
        super().__init__()
        self.oracle = nx.Graph()
        self.oracle.add_node(USER_SITE)

    def connect(self, a: int, b: int, link: Link) -> None:
        super().connect(a, b, link)
        self.oracle.add_edge(a, b, link=link)

    def disconnect(self, a: int, b: int) -> None:
        super().disconnect(a, b)
        self.oracle.remove_edge(a, b)

    def remove_site(self, site: int) -> None:
        super().remove_site(site)
        if site in self.oracle:
            self.oracle.remove_node(site)


def _weight(u, v, d):
    return d["link"].latency_s


def reference_path(net: MirroredNetwork, src: int, dst: int) -> list[int]:
    graph = net.oracle
    if src not in graph or dst not in graph:
        raise NetworkError(f"unknown site in route {src} -> {dst}")
    try:
        return nx.shortest_path(graph, src, dst, weight=_weight)
    except nx.NetworkXNoPath:
        raise NetworkError(f"no route {src} -> {dst}") from None


def reference_transfer(net: MirroredNetwork, size: int, src: int, dst: int) -> float:
    """Uncached transfer time, routed by networkx on every call."""
    if src == dst:
        return 0.0
    route = reference_path(net, src, dst)
    links = [net.oracle.edges[u, v]["link"] for u, v in zip(route, route[1:])]
    total_latency = sum(l.latency_s for l in links)
    bottleneck = min(l.bandwidth_mbps for l in links)
    return total_latency + size / (bottleneck * 1e6)


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except NetworkError as exc:
        return ("error", str(exc))


MESH = [0, 1, 2, 3, 4, 5]
PROBES = [USER_SITE, *MESH, 42]  # 42 is never a site


def assert_matches_reference(net: Network, size: int) -> None:
    for src in PROBES:
        for dst in PROBES:
            got = outcome(net.transfer_time, size, src, dst)
            assert got == outcome(reference_transfer, net, size, src, dst), (src, dst)


def random_link(rng: random.Random) -> Link:
    return Link(rng.choice([1.0, 10.0, 100.0, 1000.0]), rng.choice([0.0, 0.001, 0.01, 0.1]))


class TestRouteCache:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_mutations_match_uncached_routing(self, seed):
        rng = random.Random(seed)
        net = MirroredNetwork.fully_connected(MESH, bandwidth_mbps=100.0, latency_s=0.01)
        severed: list[tuple[int, int, Link]] = []
        for _ in range(30):
            assert_matches_reference(net, rng.choice([0, 1, 10**6, 10**9]))
            op = rng.choice(["connect", "disconnect", "degrade", "sever", "restore", "remove"])
            edges = list(net.oracle.edges)
            if op == "connect":
                a, b = rng.sample([USER_SITE, *MESH], 2)
                net.connect(a, b, random_link(rng))
            elif op == "disconnect":
                a, b = rng.sample([USER_SITE, *MESH], 2)
                if net.has_link(a, b):
                    net.disconnect(a, b)
                else:
                    with pytest.raises(NetworkError):
                        net.disconnect(a, b)
            elif op == "degrade" and edges:
                a, b = rng.choice(edges)
                net.degrade(a, b, factor=rng.choice([0.1, 0.5, 1.0]))
            elif op == "sever" and edges:
                a, b = rng.choice(edges)
                severed.append((a, b, net.sever(a, b)))
            elif op == "restore" and severed:
                net.restore(*severed.pop(rng.randrange(len(severed))))
            elif op == "remove":
                net.remove_site(rng.choice(MESH))
        assert_matches_reference(net, 10**6)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda net: net.connect(0, 1, Link(1.0, 0.0)),
            lambda net: net.disconnect(0, 1),
            lambda net: net.degrade(0, 1, factor=0.1),
            lambda net: net.sever(0, 1),
            lambda net: net.restore(0, 1, Link(1.0, 0.0)),
            lambda net: net.remove_site(1),
        ],
        ids=["connect", "disconnect", "degrade", "sever", "restore", "remove_site"],
    )
    def test_mutation_reprices_a_cached_pair(self, mutate):
        net = MirroredNetwork.fully_connected(
            [0, 1, 2], bandwidth_mbps=100.0, latency_s=0.01
        )
        before = net.transfer_time(10**6, 0, 1)
        mutate(net)
        after = outcome(net.transfer_time, 10**6, 0, 1)
        assert after == outcome(reference_transfer, net, 10**6, 0, 1)
        assert after != ("ok", before)

    def test_routes_each_pair_once(self, monkeypatch):
        calls = []
        real = Network.path

        def counting(self, src, dst):
            calls.append((src, dst))
            return real(self, src, dst)

        monkeypatch.setattr(Network, "path", counting)
        net = MirroredNetwork()
        net.connect(0, 1, Link(100.0, 0.01))
        net.connect(2, 3, Link(100.0, 0.01))
        for size in (1, 10, 100):
            net.transfer_time(size, 0, 1)
            with pytest.raises(NetworkError, match="no route"):
                net.transfer_time(size, 0, 3)  # the partition is cached too
        assert calls == [(0, 1), (0, 3)]
        net.connect(1, 2, Link(100.0, 0.01))
        healed = net.transfer_time(1, 0, 3)
        assert calls[2:] == [(0, 3)]
        assert healed == reference_transfer(net, 1, 0, 3)


SITES = [USER_SITE, 0, 1, 2, 3, 4]
LATENCIES = [0.0, 0.01, 0.02]  # few values, so equal-latency routes tie
BANDWIDTHS = [1.0, 10.0, 100.0]  # and tied routes can still differ in price


def assert_matches_networkx(net: MirroredNetwork) -> None:
    for src in [*SITES, 42]:
        for dst in [*SITES, 42]:
            assert outcome(net.path, src, dst) == outcome(reference_path, net, src, dst)
            assert outcome(net.transfer_time, 10**6, src, dst) == outcome(
                reference_transfer, net, 10**6, src, dst
            )
            known = src in net.oracle and dst in net.oracle
            assert net.has_route(src, dst) == (
                known and nx.has_path(net.oracle, src, dst)
            )
            assert net.has_link(src, dst) == net.oracle.has_edge(src, dst)


class TestNetworkxOracle:
    """Routes on random topologies equal ``nx.shortest_path`` over the
    same links added in the same order, including which of several
    equal-latency routes is taken."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_topologies_route_like_networkx(self, data):
        net = MirroredNetwork()
        severed: list[tuple[int, int, Link]] = []
        pair = st.lists(st.sampled_from(SITES), min_size=2, max_size=2, unique=True)
        link = st.builds(Link, st.sampled_from(BANDWIDTHS), st.sampled_from(LATENCIES))
        for _ in range(data.draw(st.integers(1, 25))):
            op = data.draw(
                st.sampled_from(
                    ["connect", "connect", "connect", "disconnect", "degrade",
                     "sever", "restore", "remove_site"]
                )
            )
            edges = list(net.oracle.edges)
            if op == "connect":
                a, b = data.draw(pair)
                net.connect(a, b, data.draw(link))
            elif op == "disconnect":
                a, b = data.draw(pair)
                if net.has_link(a, b):
                    net.disconnect(a, b)
                else:
                    with pytest.raises(NetworkError):
                        net.disconnect(a, b)
            elif op == "degrade" and edges:
                a, b = data.draw(st.sampled_from(edges))
                net.degrade(a, b, factor=data.draw(st.sampled_from([0.1, 0.5, 1.0])))
            elif op == "sever" and edges:
                a, b = data.draw(st.sampled_from(edges))
                severed.append((a, b, net.sever(a, b)))
            elif op == "restore" and severed:
                net.restore(*severed.pop(data.draw(st.integers(0, len(severed) - 1))))
            elif op == "remove_site":
                net.remove_site(data.draw(st.sampled_from(SITES[1:])))
            assert_matches_networkx(net)
