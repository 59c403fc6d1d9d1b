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

import heapq
import itertools
import math
from dataclasses import dataclass

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

    The topology is an insertion-ordered adjacency ``{site: {neighbour:
    Link}}``.  Each (src, dst) route is computed once and cached as its
    total latency and bottleneck bandwidth (or as "no route") until the
    topology changes: every mutation goes through :meth:`connect`,
    :meth:`disconnect` or :meth:`remove_site` (which :meth:`degrade`,
    :meth:`sever` and :meth:`restore` use), and each of those clears the
    whole cache.
    """

    def __init__(self) -> None:
        #: site -> {neighbour: link}; both levels keep insertion order,
        #: which decides ties between equal-latency routes (:meth:`path`).
        self._adj: dict[int, dict[int, Link]] = {USER_SITE: {}}
        #: (src, dst) -> (total latency s, bottleneck MB/s), or None
        #: when the two known sites are partitioned.
        self._routes: dict[tuple[int, int], tuple[float, float] | None] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def connect(self, a: int, b: int, link: Link) -> None:
        """Add (or replace) the link between sites *a* and *b*.

        Replacing a link keeps its place in both sites' neighbour order.
        """
        if a == b:
            raise ValueError("cannot connect a site to itself")
        self._adj.setdefault(a, {})[b] = link
        self._adj.setdefault(b, {})[a] = link
        self._routes.clear()

    def disconnect(self, a: int, b: int) -> None:
        """Drop the a-b link; both sites stay known, possibly isolated."""
        if not self.has_link(a, b):
            raise NetworkError(f"no link between {a} and {b}")
        del self._adj[a][b]
        del self._adj[b][a]
        self._routes.clear()

    def remove_site(self, site: int) -> None:
        """Drop a site and all its links (node-leave events)."""
        if site == USER_SITE:
            raise ValueError("the user site cannot be removed")
        if site in self._adj:
            for neighbour in self._adj.pop(site):
                del self._adj[neighbour][site]
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
    def has_link(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def link_between(self, a: int, b: int) -> Link:
        try:
            return self._adj[a][b]
        except KeyError:
            raise NetworkError(f"no link between {a} and {b}") from None

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
        if src not in self._adj or dst not in self._adj:
            return False
        return src == dst or self._route(src, dst) is not None

    def path(self, src: int, dst: int) -> list[int]:
        """Minimum-latency route between two sites.

        A bidirectional Dijkstra search: forward steps from *src*
        alternate with backward steps from *dst* until one site is
        settled from both ends.  Ties between equal-latency routes are
        broken deterministically, and route prices depend on the
        choice (DESIGN.md, "The router's tie-breaking contract"): a
        push counter orders equal distances in each heap, a site's
        predecessor is fixed at its first strictly shorter discovery,
        neighbours are relaxed in link insertion order, and the meeting
        site changes only on a strictly shorter total.
        """
        adj = self._adj
        if src not in adj or dst not in adj:
            raise NetworkError(f"unknown site in route {src} -> {dst}")
        if src == dst:
            return [src]
        # Index 0 is the forward search, 1 the backward one.
        done: tuple[dict[int, float], ...] = ({}, {})
        seen: tuple[dict[int, float], ...] = ({src: 0.0}, {dst: 0.0})
        preds: tuple[dict[int, int | None], ...] = ({src: None}, {dst: None})
        fringe: tuple[list, ...] = ([(0.0, 0, src)], [(0.0, 1, dst)])
        pushes = itertools.count(2)
        best, meet = math.inf, None
        side = 1  # flipped before each step, so the forward search goes first
        while fringe[0] and fringe[1]:
            side = 1 - side
            dist, _, site = heapq.heappop(fringe[side])
            if site in done[side]:
                continue
            done[side][site] = dist
            if site in done[1 - side]:
                forward, backward = [], []
                hop = meet
                while hop is not None:
                    forward.append(hop)
                    hop = preds[0][hop]
                hop = preds[1][meet]
                while hop is not None:
                    backward.append(hop)
                    hop = preds[1][hop]
                return forward[::-1] + backward
            for neighbour, link in adj[site].items():
                length = dist + link.latency_s
                if neighbour in done[side] or length >= seen[side].get(
                    neighbour, math.inf
                ):
                    continue
                seen[side][neighbour] = length
                heapq.heappush(fringe[side], (length, next(pushes), neighbour))
                preds[side][neighbour] = site
                other = seen[1 - side].get(neighbour)
                if other is not None and length + other < best:
                    best, meet = length + other, neighbour
        raise NetworkError(f"no route {src} -> {dst}")

    def transfer_time(self, size_bytes: int, src: int, dst: int) -> float:
        """Seconds to move *size_bytes* from *src* to *dst*.

        Same-site transfers are free (local disk/DMA is not modeled).
        """
        if not (math.isfinite(size_bytes) and size_bytes >= 0):
            raise ValueError("size must be finite and non-negative")
        if src == dst:
            return 0.0
        route = self._route(src, dst)
        if route is None:
            raise NetworkError(f"no route {src} -> {dst}")
        total_latency, bottleneck = route
        return total_latency + size_bytes / (bottleneck * 1e6)

    def _route(self, src: int, dst: int) -> tuple[float, float] | None:
        """(total latency, bottleneck bandwidth) of the minimum-latency
        route between two distinct sites, cached per pair; None when
        they are partitioned.  Unknown sites raise and are never
        cached."""
        key = (src, dst)
        try:
            return self._routes[key]
        except KeyError:
            pass
        if src not in self._adj or dst not in self._adj:
            raise NetworkError(f"unknown site in route {src} -> {dst}")
        try:
            hops = self.path(src, dst)
        except NetworkError:
            route = None
        else:
            links = [self._adj[u][v] for u, v in zip(hops, hops[1:])]
            route = (
                sum(l.latency_s for l in links),
                min(l.bandwidth_mbps for l in links),
            )
        self._routes[key] = route
        return route
