"""Deterministic graph families: stars, paths, star unions, and the extremal
star-union family whose members need t deletions to equalize three maximum
degrees despite having few edges."""

from __future__ import annotations

from .graph import MAX_ORDER, Graph


def _refuse_over(order: int, name: str) -> None:
    """Refuse a family member of more than ``MAX_ORDER`` vertices unbuilt."""
    if order > MAX_ORDER:
        raise ValueError(f"{name} has {order} vertices, over {MAX_ORDER}")


def a_sequence(i: int) -> int:
    """The i-th star size of the extremal family.

    a_1 = 1, a_2 = 3, and a_i = max(a_{i-1}, i - a_{i-1} + 2 a_{i-2}) after
    that; equals (i // 2)^2 + (i // 2) + 1 in closed form.
    """
    if i < 1:
        raise ValueError("index must be positive")
    if i == 1:
        return 1
    prev2, prev = 1, 3
    for j in range(3, i + 1):
        prev2, prev = prev, max(prev, j - prev + 2 * prev2)
    return prev


def build_star(n: int) -> Graph:
    """Star on n vertices: center 0, leaves 1..n-1."""
    if n < 1:
        raise ValueError("star needs at least one vertex")
    _refuse_over(n, "the star")
    return build_star_union([n - 1])


def build_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    _refuse_over(n, "the path")
    if n == 1:
        return Graph(1, ((),), 0)
    inner = ((v - 1, v + 1) for v in range(1, n - 1))
    return Graph(n, ((1,), *inner, (n - 2,)), n - 1)


def build_star_union(leaf_counts) -> Graph:
    """Disjoint union of stars; ids assigned component by component, center
    first."""
    leaf_counts = list(leaf_counts)
    if not leaf_counts or any(c < 0 for c in leaf_counts):
        raise ValueError("leaf counts must be non-negative and non-empty")
    _refuse_over(len(leaf_counts) + sum(leaf_counts), "the star union")
    adj: list[tuple[int, ...]] = []
    for count in leaf_counts:
        center = len(adj)
        adj.append(tuple(range(center + 1, center + count + 1)))
        adj.extend([(center,)] * count)
    return Graph(len(adj), tuple(adj), len(adj) - len(leaf_counts))


def build_extremal_forest(t: int) -> Graph:
    """Union of stars with leaf counts a_1 .. a_t."""
    if t < 1:
        raise ValueError("t must be positive")
    # t stars: a centre each, and the m leaves; checked before any a_i is built
    _refuse_over(extremal_size(t) + t, f"F_{t}")
    return build_star_union([a_sequence(i) for i in range(1, t + 1)])


def extremal_size(t: int) -> int:
    """Closed-form edge count of the extremal forest with parameter t."""
    if t < 1:
        raise ValueError("t must be positive")
    k, odd = divmod(t, 2)
    # the closed form has denominator 3; its numerator is computed in thirds
    if odd:
        thirds = 2 * k**3 + 6 * k**2 + 10 * k + 3
    else:
        thirds = 2 * k**3 + 3 * k**2 + 7 * k
    value, remainder = divmod(thirds, 3)
    if remainder:
        raise AssertionError(f"size formula produced non-integer {thirds}/3")
    return value
