"""Grid network model: topology, bandwidth, latency, transfer times.

The scheduler's cost model must account for "the time required to send
configuration bitstreams" and input data (Section V).  Nodes here are
*grid sites* identified by node_id; the special :data:`USER_SITE`
represents the submitting user's location (where the JSS receives
artifacts), so bitstream/data shipping is always ``USER_SITE ->
executing node`` unless a producer task's site is known.

Transfer time over a path is the sum of per-hop latencies plus the
serialization time on the *slowest* hop (store-and-forward of one
message, cut-through within a hop), the standard first-order WAN model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

#: Site identifier for the submitting user / JSS ingress point.
USER_SITE = -100


@dataclass(frozen=True)
class Link:
    """A network link with the two parameters that set transfer cost."""

    bandwidth_mbps: float  # megabytes per second
    latency_s: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth_mbps) and self.bandwidth_mbps > 0):
            raise ValueError("bandwidth must be finite and positive")
        if not (math.isfinite(self.latency_s) and self.latency_s >= 0):
            raise ValueError("latency must be finite and non-negative")

    def transfer_time(self, size_bytes: int) -> float:
        """Seconds to push *size_bytes* across this single link."""
        if not (math.isfinite(size_bytes) and size_bytes >= 0):
            raise ValueError("size must be finite and non-negative")
        return self.latency_s + size_bytes / (self.bandwidth_mbps * 1e6)


class NetworkError(RuntimeError):
    """No route between the requested sites."""


class Network:
    """Weighted topology over grid sites.

    Sites are added implicitly by :meth:`connect`.  Routing picks the
    minimum-latency path; the effective bandwidth of a path is its
    bottleneck link.

    Each (src, dst) route is computed once and cached as its total
    latency and bottleneck bandwidth (or as "no route") until the
    topology changes.  :attr:`graph` is therefore read-only to callers:
    every mutation must go through :meth:`connect`, :meth:`disconnect`
    or :meth:`remove_site` (which :meth:`degrade`, :meth:`sever` and
    :meth:`restore` use), and each of those clears the whole cache.
    """

    def __init__(self) -> None:
        self.graph = nx.Graph()
        self.graph.add_node(USER_SITE)
        #: (src, dst) -> (total latency s, bottleneck MB/s), or None
        #: when the two known sites are partitioned.
        self._routes: dict[tuple[int, int], tuple[float, float] | None] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def connect(self, a: int, b: int, link: Link) -> None:
        """Add (or replace) the link between sites *a* and *b*."""
        if a == b:
            raise ValueError("cannot connect a site to itself")
        self.graph.add_edge(a, b, link=link)
        self._routes.clear()

    def disconnect(self, a: int, b: int) -> None:
        if not self.graph.has_edge(a, b):
            raise NetworkError(f"no link between {a} and {b}")
        self.graph.remove_edge(a, b)
        self._routes.clear()

    def remove_site(self, site: int) -> None:
        """Drop a site and all its links (node-leave events)."""
        if site == USER_SITE:
            raise ValueError("the user site cannot be removed")
        if site in self.graph:
            self.graph.remove_node(site)
            self._routes.clear()

    @classmethod
    def fully_connected(
        cls,
        sites: list[int],
        *,
        bandwidth_mbps: float = 100.0,
        latency_s: float = 0.01,
        user_bandwidth_mbps: float | None = None,
        user_latency_s: float | None = None,
    ) -> "Network":
        """Uniform full mesh among *sites*, each also linked to the user.

        The user's uplink may be slower (typical for WAN submission);
        it defaults to the site-to-site parameters.
        """
        net = cls()
        link = Link(bandwidth_mbps, latency_s)
        user_link = Link(
            user_bandwidth_mbps if user_bandwidth_mbps is not None else bandwidth_mbps,
            user_latency_s if user_latency_s is not None else latency_s,
        )
        for i, a in enumerate(sites):
            net.connect(USER_SITE, a, user_link)
            for b in sites[i + 1 :]:
                net.connect(a, b, link)
        return net

    # ------------------------------------------------------------------
    # Fault injection (degraded links, partitions)
    # ------------------------------------------------------------------
    def link_between(self, a: int, b: int) -> Link:
        if not self.graph.has_edge(a, b):
            raise NetworkError(f"no link between {a} and {b}")
        return self.graph.edges[a, b]["link"]

    def degrade(self, a: int, b: int, *, factor: float) -> Link:
        """Scale the a-b link's bandwidth down by *factor* (in (0, 1]);
        returns the healthy link so the caller can restore it later."""
        if not 0.0 < factor <= 1.0:
            raise ValueError("degrade factor must be in (0, 1]")
        healthy = self.link_between(a, b)
        self.connect(a, b, Link(healthy.bandwidth_mbps * factor, healthy.latency_s))
        return healthy

    def sever(self, a: int, b: int) -> Link:
        """Cut the a-b link (partition faults); returns it for restore."""
        healthy = self.link_between(a, b)
        self.disconnect(a, b)
        return healthy

    def restore(self, a: int, b: int, link: Link) -> None:
        """Re-install a previously degraded or severed link."""
        self.connect(a, b, link)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_route(self, src: int, dst: int) -> bool:
        return (
            src in self.graph
            and dst in self.graph
            and nx.has_path(self.graph, src, dst)
        )

    def path(self, src: int, dst: int) -> list[int]:
        """Minimum-latency route between two sites."""
        if src not in self.graph or dst not in self.graph:
            raise NetworkError(f"unknown site in route {src} -> {dst}")
        try:
            return nx.shortest_path(
                self.graph, src, dst, weight=lambda u, v, d: d["link"].latency_s
            )
        except nx.NetworkXNoPath:
            raise NetworkError(f"no route {src} -> {dst}") from None

    def transfer_time(self, size_bytes: int, src: int, dst: int) -> float:
        """Seconds to move *size_bytes* from *src* to *dst*.

        Same-site transfers are free (local disk/DMA is not modeled).
        """
        if not (math.isfinite(size_bytes) and size_bytes >= 0):
            raise ValueError("size must be finite and non-negative")
        if src == dst:
            return 0.0
        key = (src, dst)
        try:
            route = self._routes[key]
        except KeyError:
            route = self._routes[key] = self._route(src, dst)
        if route is None:
            raise NetworkError(f"no route {src} -> {dst}")
        total_latency, bottleneck = route
        return total_latency + size_bytes / (bottleneck * 1e6)

    def _route(self, src: int, dst: int) -> tuple[float, float] | None:
        """Uncached (total latency, bottleneck bandwidth) of the
        minimum-latency route; None when the sites are partitioned.
        Unknown sites raise and are never cached."""
        if src not in self.graph or dst not in self.graph:
            raise NetworkError(f"unknown site in route {src} -> {dst}")
        try:
            route = self.path(src, dst)
        except NetworkError:
            return None
        links = [self.graph.edges[u, v]["link"] for u, v in zip(route, route[1:])]
        return (
            sum(l.latency_s for l in links),
            min(l.bandwidth_mbps for l in links),
        )
