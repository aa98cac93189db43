"""Exact equalization numbers for forests via a rooted-tree dynamic program.

For a forest F, a set S of k "special" vertices, and a target degree delta,
the program computes the maximum order of an induced subforest that contains
all of S, has maximum degree at most delta, and gives every special vertex
degree exactly delta.  Minimizing n(F) minus that maximum over all (S, delta)
pairs, together with the always-available option of keeping only k-1 vertices,
yields the exact equalization number.

Each vertex u of the rooted tree carries a triple (n1, n2, n3):

* n1 -- best subforest of the subtree below u that excludes u,
* n2 -- best one including u with u at degree exactly delta,
* n3 -- best one including u with u at degree delta-1 if u is special,
  at most delta-1 otherwise (so u can still accept its parent edge).

NEG_INF marks infeasible states; sums absorb it and max ignores it.  Every
forest is rooted at a virtual vertex n, never special, adjacent to one vertex
per component; its n1 is the maximum order.

The solver does not run this per-pair program for every (S, delta): one
counting pass per delta (``_best_special_set``) covers all special sets at
once and finds the least optimal pair, and the per-pair program then runs
once on that pair to reconstruct the certificate.  The passes walk delta
down from the k-th largest degree and stop once a bounded-degree-deletion
lower bound (``_min_deletions``) shows that no lower delta can reach the
best order found so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .certificates import RemovalCertificate, make_certificate
from .graph import Graph, components, degree_profile

NEG_INF = float("-inf")


class DeadlineExceeded(Exception):
    """Cooperative timeout raised by long-running solvers."""


def _pair_key(triple) -> float:
    # n3 - n1, with NEG_INF n3 sorting last; n3 finite and n1 infeasible
    # sorts first (such a child must be kept whenever possible).
    if triple[2] == NEG_INF:
        return NEG_INF
    return triple[2] - triple[0]


def _combine(special, specials, nonspecials, delta: int):
    """The four recursions at one vertex; every evaluation of the per-pair
    program goes through here.

    ``specials`` and ``nonspecials`` are the children's triples, the latter
    in non-increasing n3 - n1 order.  Returns ``((n1, n2, n3), cut2, cut3)``:
    a cut is the number of leading non-special children kept adjacent to the
    vertex in the n2 (resp. n3) state, or None when no number of them gives
    the vertex the degree that state needs.  The vertex itself contributes +1
    to every state that includes it (n2, n3).
    """
    p = len(specials)
    q = len(nonspecials)
    cut2 = delta - p
    if not 0 <= cut2 <= q:
        cut2 = None
    if special:
        n1 = NEG_INF
        cut3 = delta - 1 - p
        if not 0 <= cut3 <= q:
            cut3 = None
    else:
        n1 = 0
        for t in specials:
            n1 += t[1]
        for t in nonspecials:
            n1 += max(t)
        if p > delta - 1:
            cut3 = None
        else:
            # keep leading children whose n3 is no worse than their n1, as
            # many as the degree bound allows
            cut3 = 0
            limit = min(q, delta - 1 - p)
            while cut3 < limit and _pair_key(nonspecials[cut3]) >= 0:
                cut3 += 1
    # a kept state holds the vertex, its special children at n3, the first
    # ``cut`` non-special children at n3 and the other ones deleted (n1)
    kept = [NEG_INF, NEG_INF]
    for state, cut in enumerate((cut2, cut3)):
        if cut is not None:
            total = 1
            for t in specials:
                total += t[2]
            for i, t in enumerate(nonspecials):
                total += t[2] if i < cut else t[0]
            kept[state] = total
    return (n1, kept[0], kept[1]), cut2, cut3


# ---------------------------------------------------------------------------
# Skeletons and the evaluation pass


@dataclass(frozen=True)
class _Skeleton:
    """A forest rooted at the virtual vertex n, which is adjacent to one
    attachment vertex per component; independent of (S, delta)."""

    order: tuple[int, ...]  # children-before-parent traversal, ending at n
    children: tuple[tuple[int, ...], ...]


def _build_skeleton(forest: Graph, comps, attachments: Iterable[int]) -> _Skeleton:
    """Rooted structure of ``forest``, whose components are ``comps``."""
    n = forest.n
    tops = sorted(attachments)
    rep_comp = {v: idx for idx, comp in enumerate(comps) for v in comp}
    if sorted(rep_comp[a] for a in tops) != list(range(len(comps))):
        raise ValueError("attachments must cover each component exactly once")
    child_lists: list[list[int]] = [[] for _ in range(n)] + [tops]
    preorder = [n]
    seen = [False] * n
    for a in tops:
        seen[a] = True
    stack = list(tops)
    while stack:
        u = stack.pop()
        preorder.append(u)
        for w in forest.adj[u]:
            if not seen[w]:
                seen[w] = True
                child_lists[u].append(w)
                stack.append(w)
    # children were appended in adjacency (ascending) order except possibly
    # reversed by stack handling; normalize to ascending ids.
    children = tuple(tuple(sorted(c)) for c in child_lists)
    return _Skeleton(tuple(reversed(preorder)), children)


def _certificate_attachments(comps, special) -> list[int]:
    """Where the certificate pass hangs the virtual root: from the lowest
    non-special vertex of a connected forest (vertex 0 if all are special),
    and from the lowest vertex of each component otherwise.  Any attachments
    give the same values; they decide which of several optimal subforests
    the reconstruction replays."""
    if len(comps) == 1:
        return [next((v for v in comps[0] if v not in special), 0)]
    return [comp[0] for comp in comps]


def _run_pass(skeleton: _Skeleton, special, delta: int):
    """Evaluate the program bottom-up over a skeleton, for the special set
    ``special`` and the target degree ``delta``.

    Returns the triple of every vertex and its plan: the special children,
    the non-special children in ``_combine``'s order, and the two cuts.
    """
    size = len(skeleton.children)
    values: list = [None] * size
    keys: list = [None] * size  # _pair_key of each triple
    plans: list = [None] * size
    leaves = {}  # the two leaf entries of this delta
    for u in skeleton.order:
        kids = skeleton.children[u]
        flag = u in special
        if not kids:
            if flag not in leaves:
                triple, cut2, cut3 = _combine(flag, (), (), delta)
                leaves[flag] = (triple, _pair_key(triple), ((), (), cut2, cut3))
            values[u], keys[u], plans[u] = leaves[flag]
            continue
        sp = [v for v in kids if v in special]
        # stable: equal keys stay in ascending vertex order
        ns = [v for v in kids if v not in special]
        ns.sort(key=keys.__getitem__, reverse=True)
        triple, cut2, cut3 = _combine(
            flag, [values[v] for v in sp], [values[v] for v in ns], delta
        )
        values[u] = triple
        keys[u] = _pair_key(triple)
        plans[u] = (sp, ns, cut2, cut3)
    return values, plans


# ---------------------------------------------------------------------------
# Reconstruction of an optimal subforest


def _best_state(triple) -> int:
    # index of the best state; ties prefer deleting, then degree exactly delta
    return triple.index(max(triple))


def _reconstruct(skeleton: _Skeleton, values, plans) -> set[int]:
    """Vertex set of an optimal subforest, found by replaying the plans of
    ``_run_pass`` from the virtual root down.  States index the triple: 0
    deleted, 1 kept at degree delta, 2 kept with room for the parent edge."""
    stack = [(skeleton.order[-1], 0)]
    kept: set[int] = set()
    while stack:
        u, state = stack.pop()
        specials, nonspecials, cut2, cut3 = plans[u]
        if state == 0:
            for v in specials:
                stack.append((v, 1))
            for v in nonspecials:
                stack.append((v, _best_state(values[v])))
            continue
        kept.add(u)
        cut = cut2 if state == 1 else cut3
        for v in specials:
            stack.append((v, 2))
        for i, v in enumerate(nonspecials):
            stack.append((v, 2 if i < cut else 0))
    return kept


# ---------------------------------------------------------------------------
# Counting program: every special set of one delta in a single pass
#
# For a fixed delta each vertex carries three vectors indexed by j, the number
# of special vertices chosen in its subtree (0 <= j <= k): the vertex deleted,
# kept with its parent edge, and kept without it.  An entry is the best score
# ``order * 2**n + sum(2**(n-1-v) for v in S)``, or -1 when infeasible, so the
# maximum is the largest kept subforest and, among those, the lexicographically
# least S.  A vector is None when no j is feasible.


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


def _kept(base, at_delta, gain: int, bit: int, k: int):
    """Vector of a kept vertex: ``base`` plus the vertex itself, and, from the
    children choices ``at_delta`` that give it degree delta, the vertex added
    to S as well."""
    if base is None:
        return None
    out = [a + gain if a >= 0 else -1 for a in base]
    if at_delta is not None:
        for j in range(min(len(at_delta), k)):
            a = at_delta[j]
            if a >= 0:
                score = a + gain + bit
                if j + 1 == len(out):
                    out.append(score)
                elif score > out[j + 1]:
                    out[j + 1] = score
    return out


def _best_special_set(skel: _Skeleton, n: int, k: int, delta: int):
    """Largest induced subforest with max degree <= delta and at least k
    vertices of degree delta, as (order, S) with S the lexicographically least
    k of those vertices over all largest subforests; None if there is none.
    """
    gain = 1 << n
    children = skel.children
    drop = [None] * n  # deleted
    up = [None] * n  # kept with the parent edge
    free = [None] * n  # deleted, or kept without the parent edge
    for u in skel.order[:-1]:
        deleted = [0]
        rows = [[0]]  # rows[c]: exactly c kept children
        for v in children[u]:
            deleted = _merge(deleted, free[v], k)
            new = [_merge(row, drop[v], k) for row in rows]
            keep_v = up[v]
            if keep_v is not None:
                if len(rows) <= delta:
                    new.append(None)
                for c, row in enumerate(rows[:delta]):
                    new[c + 1] = _vmax(new[c + 1], _merge(row, keep_v, k))
            rows = new
        bit = 1 << (n - 1 - u)
        low = None
        for row in rows[:delta]:
            low = _vmax(low, row)
        top = rows[delta] if len(rows) > delta else None
        drop[u] = deleted
        if delta > 0:
            last = rows[delta - 1] if len(rows) >= delta else None
            up[u] = _kept(low, last, gain, bit, k)
        free[u] = _vmax(deleted, _kept(_vmax(low, top), top, gain, bit, k))
    total = [0]
    for v in children[n]:
        total = _merge(total, free[v], k)
    if len(total) <= k or total[k] < 0:
        return None
    score = total[k]
    mask = score & (gain - 1)
    special = tuple(v for v in range(n) if mask >> (n - 1 - v) & 1)
    return score >> n, special


def _min_deletions(skel: _Skeleton, delta: int) -> int:
    """Fewest deletions that bring the forest's maximum degree to delta or
    below: the scalar tree program for bounded-degree vertex deletion
    (Betzler, Bredereck, Niedermeier and Uhlmann, DAM 160, 2012).

    Each vertex is deleted, kept with its parent edge (at most delta - 1
    kept children), or kept without it (at most delta).  A kept vertex
    keeps the children that save the most over deleting them.
    """
    children = skel.children
    size = len(children)  # exceeds every deletion count: an infeasible state
    drop = [0] * size  # deleted
    up = [0] * size  # kept with the parent edge
    free = [0] * size  # deleted, or kept without the parent edge
    for u in skel.order[:-1]:
        deleted = 1
        base = 0  # every child deleted
        gains = []
        for v in children[u]:
            deleted += free[v]
            base += drop[v]
            if drop[v] > up[v]:
                gains.append(drop[v] - up[v])
        gains.sort(reverse=True)
        drop[u] = deleted
        free[u] = min(deleted, base - sum(gains[:delta]))
        up[u] = base - sum(gains[: delta - 1]) if delta > 0 else size
    return sum(free[v] for v in children[-1])


# ---------------------------------------------------------------------------
# Driver


def compute_fk_forest(
    forest: Graph,
    k: int,
    deadline: float | None = None,
) -> tuple[int, RemovalCertificate]:
    """Exact equalization number of a forest, with a deletion certificate.

    For each target degree delta from the k-th largest degree down to 0, one
    counting pass finds the largest induced subforest with maximum degree at
    most delta and k special vertices at exactly delta; keeping only k-1
    vertices covers the order-below-k escape and is the first incumbent.
    Such a subforest has at most n - bdd(delta) vertices, where bdd(delta) is
    the fewest deletions that bring the maximum degree to delta or below.
    bdd does not decrease as delta falls, so the walk stops at the first
    delta whose bound is below the incumbent order.  The test is strict: a
    delta that could tie the optimum still runs its pass, so ties resolve to
    the lexicographically least (S, delta) pair as in a full scan, and its
    per-pair program then yields the certificate.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = forest.n
    comps = components(forest)
    if forest.m != n - len(comps):
        raise ValueError("input graph is not a forest")
    deltas = degree_profile(forest).deltas
    if n < k or deltas[0] == deltas[k - 1]:  # k vertices share the maximum
        return 0, make_certificate(forest, (), k, "dp")
    if n == k:  # not equalized, and deleting vertex 0 leaves k - 1 vertices
        return 1, make_certificate(forest, (0,), k, "dp")

    lowest = [comp[0] for comp in comps]
    counting = _build_skeleton(forest, comps, lowest)
    # the incumbent order starts at the keep-(k-1) escape; every pass keeps
    # k special vertices, so the first one found beats it
    best_val = k - 1
    best_key: tuple[tuple[int, ...], int] | None = None
    for delta in range(deltas[k - 1], -1, -1):
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("forest solver deadline exceeded")
        if n - _min_deletions(counting, delta) < best_val:
            break  # n - bdd only falls with delta: no lower delta can win
        found = _best_special_set(counting, n, k, delta)
        if found is None:
            continue
        val, special = found
        if val > best_val or (val == best_val and (special, delta) < best_key):
            best_val = val
            best_key = (special, delta)

    if best_key is None:
        removed = tuple(range(k - 1, n))
        return n - (k - 1), make_certificate(forest, removed, k, "dp")

    special, delta = best_key
    tops = _certificate_attachments(comps, special)
    skeleton = counting if tops == lowest else _build_skeleton(forest, comps, tops)
    kept = _reconstruct(skeleton, *_run_pass(skeleton, frozenset(special), delta))
    if len(kept) != best_val:
        raise AssertionError(
            f"reconstruction produced {len(kept)} vertices, expected {best_val}"
        )
    removed = tuple(sorted(set(range(n)) - kept))
    return n - best_val, make_certificate(forest, removed, k, "dp")
