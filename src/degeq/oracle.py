"""Exponential ground-truth computations for small graphs.

``brute_force_fk`` finds what the definition of the equalization number asks
for: the smallest deletion set, by size then lexicographic order, whose
removal leaves k vertices of maximum degree or fewer than k vertices.
``solve`` runs the tree program on a forest and this search on other graphs.
"""

from __future__ import annotations

import time

from .certificates import RemovalCertificate, make_certificate
from .forest_dp import DeadlineExceeded, NotAForestError, compute_fk_forest
from .graph import Graph, _last_pick

DEFAULT_ORDER_LIMIT = 18


class OrderLimitError(ValueError):
    """Graph order exceeds the brute-force guard limit."""


def _guard(graph: Graph, limit: int) -> None:
    if graph.n > limit:
        raise OrderLimitError(
            f"order {graph.n} exceeds brute-force limit {limit}; "
            f"expect ~2^{graph.n} subsets if forced"
        )


def brute_force_fk(
    graph: Graph,
    k: int,
    limit: int = DEFAULT_ORDER_LIMIT,
    deadline: float | None = None,
) -> tuple[int, RemovalCertificate]:
    """Exact equalization number by depth-first search, with certificate.

    Deletion sets are tried by increasing size; within a size the search
    picks vertices in increasing index order, so its leaves come in the order
    of ``itertools.combinations`` and the first success is the
    lexicographically least minimum deletion set.

    The search keeps the degree of every live vertex and a histogram of those
    degrees; removing or restoring a vertex touches only its live neighbours.
    A leaf succeeds when the top non-empty bucket holds at least k vertices.

    Prune: take a node with r picks left, about to try candidate v.  In every
    branch from v on, each vertex below v that is live at the node stays in
    the final graph and loses at most r degree there, so the final maximum
    degree is at least L = (max live degree below v) - r.  A vertex ending at
    that maximum has degree at least L at the node, so when fewer than k live
    vertices do, no leaf in those branches succeeds and the node returns.
    L only grows with v, so the test runs at the node's first candidate and
    again whenever a tried candidate raises the maximum.  Sizes that leave
    fewer than k vertices never reach the search: their first set succeeds
    by the order-below-k escape.

    Last pick: with r = 1, fewer than k live vertices hold the top degree
    (else the picks so far were a smaller success, found one size earlier),
    so ``_last_pick`` tries only the closed neighbourhood of the least of
    them, with the same prune.

    The deadline is checked every 4096 nodes, each a candidate tried with two
    or more picks left and followed by at most deg(u) + 1 leaf checks; pruned
    subtrees have no leaves, so a leaf count could go long without a check.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    _guard(graph, limit)
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded("oracle deadline exceeded")
    n = graph.n
    adj = graph.adj
    deg = [len(nbrs) for nbrs in adj]  # -1 marks a removed vertex
    hist = [0] * (max(deg, default=0) + 1)
    for d in deg:
        hist[d] += 1
    picked: list[int] = []
    nodes = 0

    def hopeless(high: int, r: int) -> bool:
        # fewer than k live vertices have degree at least high - r
        return high > r and sum(hist[high - r :]) < k

    def search(start: int, r: int) -> bool:
        """Pick r more vertices from start on; True, with ``picked`` filled,
        at the first success."""
        nonlocal nodes
        high = max(deg[:start], default=-1)
        if hopeless(high, r):
            return False
        if r == 1:
            v = _last_pick(adj, deg, hist, k, start, high)
            if v is not None:
                picked.append(v)
            return v is not None
        for v in range(start, n - r + 1):
            nodes += 1
            if deadline is not None and not nodes % 4096:
                if time.monotonic() > deadline:
                    raise DeadlineExceeded("oracle deadline exceeded")
            dv = deg[v]
            hist[dv] -= 1
            deg[v] = -1
            for w in adj[v]:
                dw = deg[w]
                if dw > 0:  # live: a live neighbour of v has degree >= 1
                    hist[dw] -= 1
                    hist[dw - 1] += 1
                    deg[w] = dw - 1
            if search(v + 1, r - 1):
                picked.append(v)
                return True
            for w in adj[v]:
                dw = deg[w]
                if dw >= 0:
                    hist[dw] -= 1
                    hist[dw + 1] += 1
                    deg[w] = dw + 1
            deg[v] = dv
            hist[dv] += 1
            if dv > high:
                high = dv
                if hopeless(high, r):
                    return False
        return False

    x: tuple[int, ...] = ()
    if n >= k and hist[-1] < k:  # fewer than k vertices share the maximum
        for size in range(1, n - k + 1):
            if search(0, size):
                x = tuple(sorted(picked))
                break
        else:
            # the first set that leaves fewer than k vertices
            x = tuple(range(n - k + 1))
    return len(x), make_certificate(graph, x, k, "brute")


def solve(
    graph: Graph, k: int, limit: int = DEFAULT_ORDER_LIMIT, deadline: float | None = None
) -> tuple[int, RemovalCertificate]:
    """Exact equalization number with certificate, method ``"dp"`` on a
    forest and ``"brute"`` otherwise; ``OrderLimitError`` past ``limit``
    on a graph with a cycle.  The tree program's own rooting search is the
    forest check."""
    try:
        return compute_fk_forest(graph, k, deadline=deadline)
    except NotAForestError:
        return brute_force_fk(graph, k, limit, deadline)
