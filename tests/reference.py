"""Exhaustive and plain references the tests validate the package against.

None of this runs in a command: the subset sweeps are exponential, the plain
searches are the slower forms of the package's bitmask kernels, and the
relabelled subgraph checks the residual degrees the package reads G - X from.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from typing import Iterable

from degeq.bounds import lemma3_surplus
from degeq.graph import DegreeProfile, Graph
from degeq.oracle import OrderLimitError
from degeq.prng import _MASK, _MIX1, _MIX2, SplitMix64

NEG_INF = float("-inf")
SWEEP_LIMIT = 18  # the sweeps try all 2^n subsets


# ---------------------------------------------------------------------------
# Subset sweeps for the induced-subforest problem


def _check_order(graph: Graph, limit: int) -> None:
    if graph.n > limit:
        raise OrderLimitError(f"order {graph.n} exceeds the sweep limit {limit}")


def _neighbor_masks(graph: Graph) -> list[int]:
    masks = [0] * graph.n
    for v in range(graph.n):
        acc = 0
        for w in graph.adj[v]:
            acc |= 1 << w
        masks[v] = acc
    return masks


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
    forest: Graph, special, delta: int, limit: int = SWEEP_LIMIT
):
    """Max order of an induced subgraph containing ``special`` with max degree
    <= delta and every special vertex at exactly delta; NEG_INF if none.
    """
    _check_order(forest, limit)
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


def subforest_sweep(forest: Graph, k: int, limit: int = SWEEP_LIMIT):
    """One sweep over vertex subsets, giving two tables.

    Any nonempty vertex subset is valid exactly for delta equal to its induced
    maximum degree, with S any k-subset of its maximum-degree vertices.  The
    first table maps every (S, delta) to its best order; missing keys mean
    NEG_INF.  The second maps every delta to (order, X): the largest order of
    a subset valid at delta, and the lexicographically least deletion set X
    among the subsets of that order.
    """
    _check_order(forest, limit)
    n = forest.n
    masks = _neighbor_masks(forest)
    table: dict[tuple[tuple[int, ...], int], int] = {}
    least: dict[int, tuple[int, tuple[int, ...]]] = {}
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
        x = tuple(v for v in range(n) if not subset_mask >> v & 1)
        best = least.get(max_deg)
        if best is None or order > best[0] or (order == best[0] and x < best[1]):
            least[max_deg] = (order, x)
    return table, least


def brute_force_subforest_all(
    forest: Graph, k: int, limit: int = SWEEP_LIMIT
) -> dict[tuple[tuple[int, ...], int], int]:
    """All (S, delta) -> best order: the first table of ``subforest_sweep``."""
    return subforest_sweep(forest, k, limit)[0]


def decode_score(score: int, n: int) -> tuple[int, tuple[int, ...]] | None:
    """An n-vertex counting pass's score as (order, X): the kept order and
    the deletion set its low n bits name, highest bit vertex 0; None for the
    infeasible -1."""
    if score < 0:
        return None
    return score >> n, tuple(v for v in range(n) if score >> (n - 1 - v) & 1)


# ---------------------------------------------------------------------------
# Closed forms and hypotheses


def a_closed_form(i: int) -> int:
    if i < 1:
        raise ValueError("index must be positive")
    half = i // 2
    return half * half + half + 1


def lemma3_hypothesis(profile: DegreeProfile, k: int, t: int) -> bool:
    if t < (k - 1) ** 2:
        return False
    return lemma3_surplus(profile, k) <= t


# ---------------------------------------------------------------------------
# Plain searches


def bfs_girth(graph: Graph) -> int | float:
    """Girth by one deque breadth-first search per start vertex over the
    whole graph: the minimum of dist(x) + dist(y) + 1 over non-tree edges
    (x, y), ``math.inf`` for forests."""
    best: int | float = math.inf
    dist = [-1] * graph.n
    parent = [-1] * graph.n
    for start in range(graph.n):
        for v in range(graph.n):
            dist[v] = -1
        dist[start] = 0
        parent[start] = -1
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                continue  # any cycle through u is at least 2*dist[u] long
            for w in graph.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    length = dist[u] + dist[w] + 1
                    if length < best:
                        best = length
    return best


def tuple_key_profile(graph: Graph) -> DegreeProfile:
    """Degree profile sorted by the (-degree, id) tuple key."""
    order = sorted(range(graph.n), key=lambda v: (-len(graph.adj[v]), v))
    return DegreeProfile(
        deltas=tuple(len(graph.adj[v]) for v in order), witnesses=tuple(order)
    )


def randrange_shuffle(rng: SplitMix64, items: list) -> None:
    """Fisher-Yates from the top with one ``randrange`` call per position."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


def unmix64(value: int) -> int:
    """Inverse of ``mix64``: undo its xor-shifts and odd multiplications in
    reverse order, so a test can pick the state behind a given draw."""
    z = _unshift(value, 31)
    z = (z * pow(_MIX2, -1, 1 << 64)) & _MASK
    z = _unshift(z, 27)
    z = (z * pow(_MIX1, -1, 1 << 64)) & _MASK
    return _unshift(z, 30)


def _unshift(value: int, shift: int) -> int:
    """x from x ^ (x >> shift): each pass fixes ``shift`` more top bits."""
    x = value
    for _ in range(64 // shift):
        x = value ^ (x >> shift)
    return x


def linear_minimal_t(predicate, start: int) -> int:
    """Smallest t >= start satisfying predicate, by stepping t up by one."""
    t = start
    while not predicate(t):
        t += 1
    return t


# ---------------------------------------------------------------------------
# Relabelled induced subgraph, the reference for the residual degrees


def remove_vertices(graph: Graph, removed: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the kept vertices plus the old-id -> new-id map."""
    removed_set = set(removed)
    for v in removed_set:
        if not (isinstance(v, int) and 0 <= v < graph.n):
            raise ValueError(f"unknown vertex {v!r}")
    kept = [v for v in range(graph.n) if v not in removed_set]
    old_to_new = {old: new for new, old in enumerate(kept)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in graph.edges()
        if u in old_to_new and v in old_to_new
    ]
    return Graph.from_edges(len(kept), edges), old_to_new
