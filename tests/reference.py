"""Exhaustive and per-pair references the tests validate the package against.

None of this runs in a command: the subset sweeps are exponential, and the
per-pair tree program is reached in the package only through
``compute_fk_forest``'s reconstruction.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from degeq.bounds import lemma3_surplus
from degeq.forest_dp import (
    NEG_INF,
    _build_skeleton,
    _certificate_attachments,
    _run_pass,
    _Skeleton,
)
from degeq.graph import DegreeProfile, Graph, components
from degeq.oracle import DEFAULT_ORDER_LIMIT, _guard


# ---------------------------------------------------------------------------
# Subset sweeps for the induced-subforest problem


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


# ---------------------------------------------------------------------------
# The per-pair tree program on one (S, delta)


def root_forest(
    forest: Graph, special, attachments: Iterable[int] | None = None
) -> _Skeleton:
    """The skeleton the per-pair program runs on: a virtual root n adjacent
    to one vertex per component.

    By default the attachments are those of ``compute_fk_forest``'s
    certificate pass for the special set ``special``.  Any attachments give
    the same values; they decide which of several optimal subforests the
    reconstruction replays.
    """
    comps = components(forest)
    if forest.m != forest.n - len(comps):
        raise ValueError("input graph is not a forest")
    for v in special:
        if not 0 <= v < forest.n:
            raise ValueError(f"special vertex {v} out of range")
    if attachments is None:
        attachments = _certificate_attachments(comps, special)
    return _build_skeleton(forest, comps, attachments)


def run_pair(forest: Graph, special, delta: int, attachments=None):
    """The skeleton, triples and plans of the per-pair program on (S, delta)."""
    skeleton = root_forest(forest, special, attachments)
    return (skeleton, *_run_pass(skeleton, frozenset(special), delta))


def max_subforest_order(
    forest: Graph,
    special,
    delta: int,
    attachments: Iterable[int] | None = None,
):
    """Maximum order of an induced subforest of ``forest`` containing all of
    ``special`` with max degree <= delta and every special vertex at exactly
    delta; NEG_INF when no such subforest exists.
    """
    special = tuple(sorted(set(special)))
    if forest.n <= len(special):
        raise ValueError("forest order must exceed the special set size")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    delta_cap = forest.max_degree()
    if delta > delta_cap:
        return NEG_INF  # special vertices cannot reach degree delta
    _, values, _ = run_pair(forest, special, delta, attachments)
    return values[forest.n][0]  # the virtual root, which is always deleted


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
