"""Exponential ground-truth computations for small graphs.

``brute_force_fk`` finds what the definition of the equalization number asks
for: the smallest deletion set, by size then lexicographic order, whose
removal leaves k vertices of maximum degree or fewer than k vertices.
``brute_force_subforest`` exhaustively maximizes induced-subforest order under
degree constraints; it is the reference the tree dynamic program is validated
against.
"""

from __future__ import annotations

import time
from itertools import combinations

from .certificates import RemovalCertificate, make_certificate
from .forest_dp import NEG_INF, DeadlineExceeded
from .graph import Graph

DEFAULT_ORDER_LIMIT = 18


class OrderLimitError(ValueError):
    """Graph order exceeds the brute-force guard limit."""


def _guard(graph: Graph, limit: int) -> None:
    if graph.n > limit:
        raise OrderLimitError(
            f"order {graph.n} exceeds brute-force limit {limit}; "
            f"expect ~2^{graph.n} subsets if forced"
        )


def _neighbor_masks(graph: Graph) -> list[int]:
    masks = [0] * graph.n
    for v in range(graph.n):
        acc = 0
        for w in graph.adj[v]:
            acc |= 1 << w
        masks[v] = acc
    return masks


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

    The deadline is checked every 4096 search nodes; pruned subtrees have no
    leaves, so counting leaves could leave it unchecked for long.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    _guard(graph, limit)
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded("oracle deadline exceeded")
    n = graph.n
    adj = graph.adj
    deg = [len(nbrs) for nbrs in adj]  # -1 marks a removed vertex
    top = max(deg, default=0)
    hist = [0] * (top + 1)
    for d in deg:
        hist[d] += 1
    picked: list[int] = []
    nodes = 0

    def equalized() -> bool:
        d = top
        while not hist[d]:
            d -= 1
        return hist[d] >= k

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
            if equalized() if r == 1 else search(v + 1, r - 1):
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
    if n >= k and not equalized():
        for size in range(1, n - k + 1):
            if search(0, size):
                x = tuple(sorted(picked))
                break
        else:
            # the first set that leaves fewer than k vertices
            x = tuple(range(n - k + 1))
    return len(x), make_certificate(graph, x, k, "brute")


def _induced_degree_ok(masks, subset_mask, required, delta) -> bool:
    rest = subset_mask
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        deg = (masks[v] & subset_mask).bit_count()
        if deg > delta:
            return False
        if deg != delta and (required >> v) & 1:
            return False
    return True


def brute_force_subforest(
    forest: Graph, special, delta: int, limit: int = DEFAULT_ORDER_LIMIT
):
    """Max order of an induced subgraph containing ``special`` with max degree
    <= delta and every special vertex at exactly delta; NEG_INF if none.
    """
    _guard(forest, limit)
    n = forest.n
    special = tuple(sorted(set(special)))
    for v in special:
        if not 0 <= v < n:
            raise ValueError(f"special vertex {v} out of range")
    masks = _neighbor_masks(forest)
    required = 0
    for v in special:
        required |= 1 << v
    others = [v for v in range(n) if not (required >> v) & 1]
    best = NEG_INF
    for size in range(len(others) + 1):
        for extra in combinations(others, size):
            mask = required
            for v in extra:
                mask |= 1 << v
            if _induced_degree_ok(masks, mask, required, delta):
                order = len(special) + size
                if order > best:
                    best = order
    return best


def brute_force_subforest_all(
    forest: Graph, k: int, limit: int = DEFAULT_ORDER_LIMIT
) -> dict[tuple[tuple[int, ...], int], int]:
    """All (S, delta) -> best order, in one sweep over vertex subsets.

    Any nonempty vertex subset is valid exactly for delta equal to its induced
    maximum degree, with S any k-subset of its maximum-degree vertices; missing
    keys mean NEG_INF.  Used to validate the dynamic program pairwise.
    """
    _guard(forest, limit)
    n = forest.n
    masks = _neighbor_masks(forest)
    table: dict[tuple[tuple[int, ...], int], int] = {}
    for subset_mask in range(1, 1 << n):
        degs = []
        max_deg = 0
        rest = subset_mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            deg = (masks[v] & subset_mask).bit_count()
            degs.append((v, deg))
            if deg > max_deg:
                max_deg = deg
        top = [v for v, deg in degs if deg == max_deg]
        if len(top) < k:
            continue
        order = len(degs)
        for s in combinations(top, k):
            key = (s, max_deg)
            if table.get(key, -1) < order:
                table[key] = order
    return table
