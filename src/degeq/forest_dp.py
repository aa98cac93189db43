"""Exact equalization numbers for forests via a rooted-tree dynamic program.

f_k(F) is the fewest deletions that leave k vertices of maximum degree or
fewer than k vertices, and the certificate is the lexicographically least
deletion set of that size, as ``brute_force_fk`` returns.  For a target
degree delta, keeping a largest induced
subforest with maximum degree at most delta and at least k vertices at exactly
delta deletes the fewest vertices that leave k vertices of maximum degree
delta.  So f_k is n minus the largest such order over all delta, unless only
the always-available escape of keeping k - 1 vertices does better.

One counting pass per delta (``_best_score``) solves that problem for every
choice of the k vertices at once, on the forest rooted by one depth-first
search, and scores each subforest so that the maximum also names the
lexicographically least deletion set of largest order: the walk keeps the
best score and decodes the certificate from it once.  A pass walks only the
vertices with children; each folds its twin leaf children in one step, from
one mask of their deletion bits that ``split`` keeps for all passes.
From delta = 2 on a kept leaf never counts toward the k and adds 2**n for
one deletion bit below 2**n, so the fold tries only the most kept leaves
below degree delta and exactly delta, and a vertex keeps a row only for
each count of kept children that some choice reaches.  The passes walk
delta down from the k-th largest degree until a bounded-degree-deletion
lower bound (``_min_deletions``) shows that no lower delta can reach the
best order, and skip a delta where the k least degrees at or above it
(``_k_deletions``) already delete too many.

The forest check is ``graph.is_forest``.  No pass runs when a small
deletion set suffices: before the walk, the oracle's size-ordered search
(``graph._least_deletions``) runs under a work budget of ``_SEARCH_WORK``
units per vertex, and its first success is the certificate.  Theorem 1 of
the paper bounds f_2 of a forest of order n by about (6n)**(1/3), so f_k is
small next to n on most forests, and the search finds it in a few dozen
nodes; the forest is rooted, and the walk runs, only when the budget runs out.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .certificates import RemovalCertificate, make_certificate
from .graph import Graph, _least_deletions, is_forest


# the pre-walk search's work budget, per vertex; 8 was too few for a random
# forest of 16 vertices with f_4 = 3, whose search takes 13 per vertex
_SEARCH_WORK = 16


class DeadlineExceeded(Exception):
    """Cooperative timeout raised by long-running solvers."""


def _deadline_tick(deadline: float | None, solver: str):
    """The check that raises ``DeadlineExceeded`` once the ``time.monotonic``
    value ``deadline`` has passed, run once here on entry; None when there is
    no deadline.  Both exact solvers call it again as they go."""
    if deadline is None:
        return None

    def tick():
        if time.monotonic() > deadline:
            raise DeadlineExceeded(f"{solver} deadline exceeded")

    tick()
    return tick


class NotAForestError(ValueError):
    """The tree program was given a graph with a cycle."""


@dataclass(frozen=True)
class _Skeleton:
    """A forest rooted at the virtual vertex n, which is adjacent to the
    lowest vertex of each component."""

    order: tuple[int, ...]  # children-before-parent traversal, ending at n
    children: tuple[tuple[int, ...], ...]

    @cached_property
    def split(self) -> list[tuple[int, list[int], int, list[int]]]:
        """``(u, inner, mask, cuts)`` per vertex u with children, children first:
        non-leaf children, leaf deletion bits, and ``[n, *leaf bit positions]``
        descending, so the j lowest leaves' bits are ``mask >> cuts[j] << cuts[j]``."""
        children = self.children
        n = len(children) - 1
        out = []
        for u in self.order[:-1]:
            if children[u]:
                inner, cuts = [], [n]
                for v in children[u]:
                    if children[v]:
                        inner.append(v)
                    else:
                        cuts.append(n - 1 - v)
                cuts.sort(reverse=True)
                digits = bytearray(b"0" * (cuts[1] + 1 if len(cuts) > 1 else 1))
                for p in cuts[1:]:  # in place: or-ing bits in copies the mask each
                    digits[cuts[1] - p] = 49  # "1"
                out.append((u, inner, int(digits, 2), cuts))
        return out


def _build_skeleton(forest: Graph) -> _Skeleton:
    """Rooted structure of ``forest``, found by one depth-first search: the
    scan meets each component first at its lowest vertex."""
    n = forest.n
    child_lists: list[list[int]] = [[] for _ in range(n + 1)]
    preorder = [n]
    seen = [False] * n
    for top in range(n):
        if not seen[top]:
            seen[top] = True
            child_lists[n].append(top)
            stack = [top]
            while stack:
                u = stack.pop()
                preorder.append(u)
                for w in forest.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        child_lists[u].append(w)
                        stack.append(w)
    return _Skeleton(tuple(reversed(preorder)), tuple(map(tuple, child_lists)))


# ---------------------------------------------------------------------------
# Counting program: every choice of the k vertices of one delta in one pass
#
# For a fixed delta each vertex carries three vectors indexed by j, the number
# of kept vertices at degree delta counted in its subtree (0 <= j <= k): the
# vertex deleted, kept with its parent edge, and kept without it.  An entry is
# the best score ``order * 2**n + sum(2**(n-1-v) for v in X)``, with X the
# deleted vertices of the subtree, or -1 when infeasible.  Deletion sets of one
# order have one size, and among them the larger bit sum is the
# lexicographically lesser set, so the maximum is the largest kept subforest
# and, among those, the least deletion set.  A vector is None when no j is
# feasible.


def _merge(x: list[int], y: list[int], k: int) -> list[int]:
    """Max-plus convolution of two j-vectors, truncated at j = k."""
    if len(x) < len(y):
        x, y = y, x
    if len(y) == 1:
        b = y[0]
        return [a + b if a >= 0 else -1 for a in x]
    out = [-1] * min(len(x) + len(y) - 1, k + 1)
    for i, a in enumerate(x):
        if a >= 0:
            for j in range(min(len(y), k + 1 - i)):
                b = y[j]
                if b >= 0 and a + b > out[i + j]:
                    out[i + j] = a + b
    return out


def _vmax(x: list[int] | None, y: list[int] | None) -> list[int] | None:
    """Entrywise maximum of two j-vectors."""
    if x is None or y is None:
        return x if y is None else y
    if len(x) < len(y):
        x, y = y, x
    out = x[:]
    for j, b in enumerate(y):
        if b > out[j]:
            out[j] = b
    return out


def _kept(base, at_delta, gain: int, k: int):
    """Vector of a kept vertex: ``base`` plus the vertex itself, and, from the
    children choices ``at_delta`` that give it degree delta, the vertex
    counted at degree delta as well."""
    out = [a + gain if a >= 0 else -1 for a in base]
    if at_delta is not None:
        for j in range(min(len(at_delta), k)):
            a = at_delta[j]
            if a >= 0:
                score = a + gain
                if j + 1 == len(out):
                    out.append(score)
                elif score > out[j + 1]:
                    out[j + 1] = score
    return out


def _vertex_vectors(bit: int, kids, gain: int, k: int, delta: int, mask=0, cuts=()):
    """(deleted, kept with the parent edge, free) vectors of one vertex, whose
    deletion bit is ``bit``, from its children's triples ``kids`` and its
    leaf children's ``mask`` and ``cuts``, as ``_Skeleton.split`` gives them."""
    deleted = [bit]
    rows = {0: [0]}  # rows[c]: exactly c kept children, for each count reached
    for drop, up, free in kids:
        deleted = _merge(deleted, free, k)
        new = {c: _merge(row, drop, k) for c, row in rows.items()}
        if up is not None:
            for c, row in rows.items():
                if c < delta:
                    new[c + 1] = _vmax(new.get(c + 1), _merge(row, up, k))
        rows = new
    count = len(cuts) - 1
    if count > 0:
        # leaves are twins: keeping c of them is best done by deleting the
        # count - c lowest ids.  A leaf counts toward j only at degree delta:
        # kept beside its parent at delta = 1, or with it deleted at delta = 0
        # (capped at j = k here: _merge does not truncate beside a scalar).
        # From delta = 2 on a kept leaf never counts and adds 2**n for one
        # deletion bit below 2**n, so row c tries only the most leaves that
        # stay below delta and exactly delta - c (at delta <= 1, every count)
        width = 1 + min(count, k) if delta == 0 else 1
        deleted = _merge(deleted, [count * gain] * width, k)
        folded = {}
        for c, row in rows.items():
            least = max(0, min(count, delta - 1 - c))
            for extra in range(least, min(count, delta - c) + 1):
                b = extra * gain + (mask >> cuts[count - extra] << cuts[count - extra])
                shift = [b] * (1 + extra if delta == 1 else 1)
                folded[c + extra] = _vmax(folded.get(c + extra), _merge(row, shift, k))
        rows = folded
    low = None
    for c, row in rows.items():
        if c < delta:
            low = _vmax(low, row)
    top = rows.get(delta)
    last = rows.get(delta - 1)
    up = _kept(low, last, gain, k) if delta > 0 else None
    return deleted, up, _vmax(deleted, _kept(_vmax(low, top), top, gain, k))


def _pass_vectors(skel: _Skeleton, n: int, k: int, delta: int) -> list:
    """The ``_vertex_vectors`` triple at delta of every vertex with children,
    children first, and None for a leaf: each vertex folds in its leaf
    children at once, so the pass never visits a leaf."""
    gain = 1 << n
    vectors = [None] * n
    for u, inner, mask, cuts in skel.split:
        kids = [vectors[v] for v in inner]
        vectors[u] = _vertex_vectors(1 << (n - 1 - u), kids, gain, k, delta, mask, cuts)
    return vectors


def _best_score(skel: _Skeleton, n: int, k: int, delta: int) -> int:
    """Score of the largest induced subforest with max degree <= delta and at
    least k vertices of degree delta, whose bits name the lexicographically
    least deletion set over all largest subforests; -1 if there is none."""
    vectors = _pass_vectors(skel, n, k, delta)
    # an isolated vertex is kept at every j, its 2**n above its deletion
    # bit, so one triple with no bit serves them all
    _, _, alone = _vertex_vectors(0, [], 1 << n, k, delta)
    total = [0]
    for v in skel.children[n]:
        total = _merge(total, alone if vectors[v] is None else vectors[v][2], k)
    return total[k] if len(total) > k else -1


def _min_deletions(skel: _Skeleton, delta: int) -> int:
    """Fewest deletions that bring the forest's maximum degree to delta or
    below: the scalar tree program for bounded-degree vertex deletion
    (Betzler, Bredereck, Niedermeier and Uhlmann, DAM 160, 2012).

    Each vertex is deleted, kept with its parent edge (at most delta - 1
    kept children), or kept without it (at most delta).  A kept vertex
    keeps the children that save the most over deleting them; a leaf saves 1
    (from delta = 1), no more than any other, so leaves follow sorted gains.
    """
    size = len(skel.children)  # n + 1: the vertices, then the virtual root
    drop = [0] * size  # deleted
    up = [0] * size  # kept with the parent edge; moot at delta = 0: no child kept
    free = [0] * size  # deleted, or kept without the parent edge; 0 for a leaf
    for u, inner, _, cuts in skel.split:
        deleted, gains = 1, []
        base = leaves = len(cuts) - 1  # every child deleted
        for v in inner:
            deleted += free[v]
            base += drop[v]
            if drop[v] > up[v]:
                gains.append(drop[v] - up[v])
        gains.sort(reverse=True)
        room = delta - len(gains)  # kept-child slots left to the leaves
        drop[u] = deleted
        free[u] = min(deleted, base - sum(gains[:delta]) - max(0, min(leaves, room)))
        up[u] = base - sum(gains[: delta - 1]) - max(0, min(leaves, room - 1))
    return sum(free[v] for v in skel.children[-1])


def _k_deletions(ascending: list[int], low: int, k: int, delta: int) -> int:
    """Fewest deletions that could leave k vertices at exactly delta, from
    the k least degrees >= delta, ``ascending[low : low + k]`` (see
    ``compute_fk_forest``)."""
    return sum(ascending[low : low + k]) - k * (delta + 1) + 1


# ---------------------------------------------------------------------------
# Driver


def compute_fk_forest(
    forest: Graph,
    k: int,
    deadline: float | None = None,
) -> tuple[int, RemovalCertificate]:
    """Exact equalization number of a forest, with the lexicographically least
    minimum deletion set as its certificate (that of ``brute_force_fk``).

    For each target degree delta from the k-th largest degree down to 0, one
    counting pass scores the largest induced subforest with maximum degree at
    most delta and at least k vertices at exactly delta, and the least
    deletion set that leaves it.  The incumbent score starts at the escape,
    which deletes 0, ..., n - k and keeps k - 1 vertices; of two scores the
    larger has the larger order, or the same order and the lesser deletion
    set, so the walk keeps the maximum.  Such a subforest has at most
    n - bdd(delta) vertices, where bdd(delta) is the fewest deletions that
    bring the maximum degree to delta or below.  bdd does not decrease as
    delta falls, so the walk stops at the first delta whose bound is below the
    incumbent order.  Deleting every vertex of degree above delta is one such
    deletion set, so bdd is computed only where n minus their number is below
    the incumbent.

    A delta is also skipped, without a stop, where the k bound
    ``_k_deletions`` is above n minus the incumbent order.  Let v_1, ..., v_k
    be kept at exactly delta with forest degrees d_1, ..., d_k >= delta: each
    has d_i - delta neighbours in the deletion set X.  Those edges join the
    k vertices to X in a subforest of the forest on at most k + |X|
    vertices, so there are at most k + |X| - 1 of them, and
    |X| >= sum(d_i - delta) - k + 1.  The sum is least for the k least
    degrees that are at least delta.  It grows by k with each step down of
    delta and drops where delta meets a lower degree, so a skipped delta
    says nothing of the next.  Both tests are strict: a delta that could tie
    the optimum still runs its pass, since its deletion set may be the
    lesser one.

    Before the walk, the oracle's search (``graph._least_deletions``) tries
    deletion sets by size and, within a size, in lexicographic order, under
    a budget of ``_SEARCH_WORK`` * n units of work.  Sizes below f_k have no
    success, so its first success is a minimum deletion set, and the
    lexicographically least one: the certificate, with no pass or bdd.  It
    answers n <= k, f_k = 0 and, as its size-1 pick is not charged, f_k = 1
    at any budget.  The forest is rooted only when the budget runs out and
    the walk runs, so no forest pays more than O(n) for the search.  A graph
    with a cycle raises ``NotAForestError`` from ``is_forest``.  Then the
    deadline is checked on entry, every ``graph._TICK`` units of search work
    and before each pass.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not is_forest(forest):
        raise NotAForestError("input graph is not a forest")
    n = forest.n
    tick = _deadline_tick(deadline, "forest solver")
    x, _ = _least_deletions(forest, k, _SEARCH_WORK * n, tick)
    if x is not None:
        return len(x), make_certificate(forest, x, k, "dp")

    skeleton = _build_skeleton(forest)
    best = ((k - 1) << n) + (1 << n) - (1 << (k - 1))  # the escape: delete 0..n-k
    ascending = sorted(map(len, forest.adj))
    for delta in range(ascending[-1], -1, -1):
        low = bisect_left(ascending, delta)  # ascending[low:] are the degrees >= delta
        # delta is at most d_k, the k-th largest, and the k bound, which may
        # skip a delta but stops nothing, leaves it a chance to win
        if low <= n - k and n - _k_deletions(ascending, low, k, delta) >= best >> n:
            if tick:
                tick()
            within = bisect_right(ascending, delta)  # vertices of degree <= delta
            if within < best >> n > n - _min_deletions(skeleton, delta):
                break  # n - bdd only falls with delta: no lower delta can win
            best = max(best, _best_score(skeleton, n, k, delta))

    x = tuple(v for v, bit in enumerate(bin(best)[-n:]) if bit == "1")
    if len(x) != n - (best >> n):
        raise AssertionError(f"{len(x)} deletions keep {best >> n} of {n} vertices")
    return len(x), make_certificate(forest, x, k, "dp")
