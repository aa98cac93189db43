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
from .graph import Graph, _least_deletions

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

    The search (``graph._least_deletions``) tries deletion sets by
    increasing size and, within a size, in lexicographic order, so its first
    success is the lexicographically least minimum deletion set.  It runs
    with no work budget; the deadline is checked on entry and then every
    ``graph._TICK`` units of search work.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    _guard(graph, limit)
    tick = None
    if deadline is not None:

        def tick():
            if time.monotonic() > deadline:
                raise DeadlineExceeded("oracle deadline exceeded")

        tick()
    x, _ = _least_deletions(graph, k, tick=tick)
    return len(x), make_certificate(graph, x, k, "brute")


def solve(
    graph: Graph, k: int, limit: int = DEFAULT_ORDER_LIMIT, deadline: float | None = None
) -> tuple[int, RemovalCertificate]:
    """Exact equalization number with certificate, method ``"dp"`` on a
    forest and ``"brute"`` otherwise; ``OrderLimitError`` past ``limit``
    on a graph with a cycle.  The tree program's ``is_forest`` check is the
    only forest check."""
    try:
        return compute_fk_forest(graph, k, deadline=deadline)
    except NotAForestError:
        return brute_force_fk(graph, k, limit, deadline)
