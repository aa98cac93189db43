"""Exponential ground-truth computations for small graphs.

``brute_force_fk`` finds what the definition of the equalization number asks
for: the smallest deletion set, by size then lexicographic order, whose
removal leaves k vertices of maximum degree or fewer than k vertices.
Past an order limit (18 vertices by default) it answers only f_k <= 1, which
needs no search of two or more deletions, and refuses the rest.  ``solve``
runs the tree program on a forest and this search on other graphs.
"""

from __future__ import annotations

from .certificates import RemovalCertificate, make_certificate
from .forest_dp import NotAForestError, _deadline_tick, compute_fk_forest
from .graph import Graph, _least_deletions

DEFAULT_ORDER_LIMIT = 18


class OrderLimitError(ValueError):
    """Graph order exceeds the brute-force limit and f_k is at least 2."""


def brute_force_fk(
    graph: Graph,
    k: int,
    limit: int = DEFAULT_ORDER_LIMIT,
    deadline: float | None = None,
) -> tuple[int, RemovalCertificate]:
    """Exact equalization number by depth-first search, with certificate.

    The search (``graph._least_deletions``) tries deletion sets by
    increasing size and, within a size, in lexicographic order, so its first
    success is the lexicographically least minimum deletion set.  Up to
    ``limit`` vertices it runs with no work budget; past it, at a budget of
    0, which answers f_k <= 1 and refuses a larger f_k with
    ``OrderLimitError``.  The deadline is checked on entry and then every
    ``graph._TICK`` units of search work.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    tick = _deadline_tick(deadline, "oracle")
    x, _ = _least_deletions(graph, k, 0 if graph.n > limit else None, tick)
    if x is None:
        raise OrderLimitError(
            f"order {graph.n} exceeds brute-force limit {limit}; "
            f"expect ~2^{graph.n} subsets if forced"
        )
    return len(x), make_certificate(graph, x, k, "brute")


def solve(
    graph: Graph, k: int, limit: int = DEFAULT_ORDER_LIMIT, deadline: float | None = None
) -> tuple[int, RemovalCertificate]:
    """Exact equalization number with certificate, method ``"dp"`` on a
    forest and ``"brute"`` otherwise: the one choice of solver, for
    ``compute``, verify and the bench.  ``OrderLimitError`` on a graph with a
    cycle, past ``limit`` vertices and with f_k >= 2; ``DeadlineExceeded``
    once ``deadline`` passes, which the solver that runs checks on entry and
    then as it goes.  The tree program's ``is_forest`` is the only forest
    check."""
    try:
        return compute_fk_forest(graph, k, deadline=deadline)
    except NotAForestError:
        return brute_force_fk(graph, k, limit, deadline)
