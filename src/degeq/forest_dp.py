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

NEG_INF marks infeasible states; sums absorb it and max ignores it.

The solver does not run this per-pair program for every (S, delta): one
counting pass per delta (``_best_special_set``) covers all special sets at
once and finds the least optimal pair, and the per-pair program then runs
once on that pair to reconstruct the certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple

from .certificates import RemovalCertificate, make_certificate
from .graph import Graph, check_fk_condition, components, degree_profile, is_forest

NEG_INF = float("-inf")

_KEY = itemgetter(0)


class DeadlineExceeded(Exception):
    """Cooperative timeout raised by long-running solvers."""


class DPTriple(NamedTuple):
    """The (n1, n2, n3) state of one rooted subtree; entries are non-negative
    integers or NEG_INF."""

    n1: int | float
    n2: int | float
    n3: int | float


def dp_leaf_base(special: bool, delta: int) -> DPTriple:
    """State of a leaf (a vertex with no children in the rooted view)."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if special:
        if delta == 0:
            return DPTriple(NEG_INF, 1, NEG_INF)
        if delta == 1:
            return DPTriple(NEG_INF, NEG_INF, 1)
        return DPTriple(NEG_INF, NEG_INF, NEG_INF)
    if delta == 0:
        return DPTriple(0, 1, NEG_INF)
    return DPTriple(0, NEG_INF, 1)


def _pair_key(triple: DPTriple) -> float:
    # n3 - n1, with NEG_INF n3 sorting last; n3 finite and n1 infeasible
    # sorts first (such a child must be kept whenever possible).
    if triple.n3 == NEG_INF:
        return NEG_INF
    return triple.n3 - triple.n1


@dataclass(frozen=True)
class ChildPartition:
    """Children triples of one vertex, split into special and non-special,
    the latter ordered by non-increasing n3 - n1."""

    specials: tuple[DPTriple, ...]
    nonspecials: tuple[DPTriple, ...]

    @classmethod
    def from_triples(cls, specials, nonspecials) -> "ChildPartition":
        ordered = sorted(nonspecials, key=_pair_key, reverse=True)
        return cls(tuple(specials), tuple(ordered))

    @property
    def p(self) -> int:
        return len(self.specials)

    @property
    def q(self) -> int:
        return len(self.nonspecials)

    @property
    def qprime(self) -> int:
        count = 0
        for triple in self.nonspecials:
            if _pair_key(triple) >= 0:
                count += 1
            else:
                break
        return count

    def __post_init__(self):
        keys = [_pair_key(t) for t in self.nonspecials]
        if keys != sorted(keys, reverse=True):
            raise ValueError("non-special children not ordered by n3 - n1")


def dp_combine(special: bool, partition: ChildPartition, delta: int) -> DPTriple:
    """Evaluate the four recursions at an internal vertex.

    The vertex itself contributes +1 to every state that includes it (n2, n3);
    with an empty partition this reproduces ``dp_leaf_base``.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    p = partition.p
    q = partition.q
    sp2: int | float = 0
    sp3: int | float = 0
    for t in partition.specials:
        sp2 += t.n2
        sp3 += t.n3

    pre3 = [0.0] * (q + 1)
    suf1 = [0.0] * (q + 1)
    for i, t in enumerate(partition.nonspecials):
        pre3[i + 1] = pre3[i] + t.n3
    for i in range(q - 1, -1, -1):
        suf1[i] = suf1[i + 1] + partition.nonspecials[i].n1

    if special:
        n1 = NEG_INF
    else:
        n1 = sp2
        for t in partition.nonspecials:
            n1 += max(t.n1, t.n2, t.n3)

    cut = delta - p
    if cut < 0 or cut > q:
        n2 = NEG_INF
    else:
        n2 = 1 + sp3 + pre3[cut] + suf1[cut]

    if special:
        cut = delta - 1 - p
        if cut < 0 or cut > q:
            n3 = NEG_INF
        else:
            n3 = 1 + sp3 + pre3[cut] + suf1[cut]
    else:
        if p > delta - 1:
            n3 = NEG_INF
        else:
            cut = min(partition.qprime, delta - 1 - p)
            n3 = 1 + sp3 + pre3[cut] + suf1[cut]

    return DPTriple(_norm(n1), _norm(n2), _norm(n3))


def _norm(value):
    return int(value) if value != NEG_INF else NEG_INF


# ---------------------------------------------------------------------------
# Rooted views and the array-based evaluation pass


@dataclass(frozen=True)
class _Skeleton:
    """Rooted structure of a forest, independent of (S, delta)."""

    root: int
    size: int  # number of dp nodes (n, or n + 1 with a virtual root)
    order: tuple[int, ...]  # children-before-parent traversal
    children: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    virtual: bool


@dataclass(frozen=True)
class RootedForestView:
    """A skeleton plus the special set and target degree of one subproblem."""

    base: Graph
    skeleton: _Skeleton
    special: frozenset[int]
    delta: int

    @property
    def root(self) -> int:
        return self.skeleton.root

    def __post_init__(self):
        if self.root in self.special:
            raise ValueError("root must not be special")
        if not 0 <= self.delta <= max(self.base.max_degree(), 0):
            raise ValueError("delta out of range for this forest")


def _build_skeleton(
    forest: Graph, root: int | None, attachments: Iterable[int] | None
) -> _Skeleton:
    comps = components(forest)
    n = forest.n
    virtual = len(comps) != 1 or attachments is not None
    if not virtual:
        if root is None:
            raise ValueError("a real root is required for a connected forest")
        r, size, tops = root, n, [root]
    else:
        if attachments is None:
            attachments = [comp[0] for comp in comps]
        tops = sorted(attachments)
        rep_comp = {v: idx for idx, comp in enumerate(comps) for v in comp}
        if sorted(rep_comp[a] for a in tops) != list(range(len(comps))):
            raise ValueError("attachments must cover each component exactly once")
        r, size = n, n + 1
    parent = [-1] * size
    child_lists: list[list[int]] = [[] for _ in range(size)]
    preorder = [r] if virtual else []
    seen = [False] * n
    for a in tops:
        seen[a] = True
        if virtual:
            parent[a] = r
            child_lists[r].append(a)
    stack = list(tops)
    while stack:
        u = stack.pop()
        preorder.append(u)
        for w in forest.adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                child_lists[u].append(w)
                stack.append(w)
    # children were appended in adjacency (ascending) order except possibly
    # reversed by stack handling; normalize to ascending ids.
    children = tuple(tuple(sorted(c)) for c in child_lists)
    order = tuple(reversed(preorder))
    return _Skeleton(r, size, order, children, tuple(parent), virtual)


def root_forest(
    forest: Graph,
    special,
    delta: int,
    root: int | None = None,
    attachments: Iterable[int] | None = None,
) -> RootedForestView:
    """Build the rooted view used by the dynamic program.

    Connected forests are rooted at ``root`` (default: the lowest non-special
    vertex).  Disconnected forests get a virtual root adjacent to one vertex
    per component (default: the lowest of each; overridable for testing).
    """
    if not is_forest(forest):
        raise ValueError("input graph is not a forest")
    special_set = frozenset(special)
    for v in special_set:
        if not 0 <= v < forest.n:
            raise ValueError(f"special vertex {v} out of range")
    if len(components(forest)) == 1 and attachments is None:
        if root is None:
            root = next(v for v in range(forest.n) if v not in special_set)
        elif root in special_set:
            raise ValueError("root must not be special")
    elif root is not None:
        raise ValueError("disconnected forests are rooted at a virtual vertex")
    skeleton = _build_skeleton(forest, root, attachments)
    return RootedForestView(forest, skeleton, special_set, delta)


def _run_pass(skeleton: _Skeleton, sflag, delta: int, n1a, n2a, n3a) -> None:
    """Fill the triple arrays bottom-up.  ``sflag`` is indexable by vertex."""
    children = skeleton.children
    for u in skeleton.order:
        kids = children[u]
        if not kids:
            if sflag[u]:
                if delta == 0:
                    n1a[u], n2a[u], n3a[u] = NEG_INF, 1, NEG_INF
                elif delta == 1:
                    n1a[u], n2a[u], n3a[u] = NEG_INF, NEG_INF, 1
                else:
                    n1a[u], n2a[u], n3a[u] = NEG_INF, NEG_INF, NEG_INF
            elif delta == 0:
                n1a[u], n2a[u], n3a[u] = 0, 1, NEG_INF
            else:
                n1a[u], n2a[u], n3a[u] = 0, NEG_INF, 1
            continue

        p = 0
        sp2 = 0
        sp3 = 0
        acc = 0
        ws = []
        for v in kids:
            if sflag[v]:
                p += 1
                sp2 += n2a[v]
                sp3 += n3a[v]
            else:
                a = n1a[v]
                c = n3a[v]
                b = n2a[v]
                mx = a if a > b else b
                if c > mx:
                    mx = c
                acc += mx
                ws.append((NEG_INF if c == NEG_INF else c - a, a, c))
        q = len(ws)
        if q > 1:
            ws.sort(key=_KEY, reverse=True)
        pre3 = [0] * (q + 1)
        suf1 = [0] * (q + 1)
        for i in range(q):
            pre3[i + 1] = pre3[i] + ws[i][2]
        for i in range(q - 1, -1, -1):
            suf1[i] = suf1[i + 1] + ws[i][1]

        cut = delta - p
        n2a[u] = NEG_INF if (cut < 0 or cut > q) else 1 + sp3 + pre3[cut] + suf1[cut]
        if sflag[u]:
            n1a[u] = NEG_INF
            cut = delta - 1 - p
            n3a[u] = (
                NEG_INF if (cut < 0 or cut > q) else 1 + sp3 + pre3[cut] + suf1[cut]
            )
        else:
            n1a[u] = sp2 + acc
            if p > delta - 1:
                n3a[u] = NEG_INF
            else:
                qp = 0
                for item in ws:
                    if item[0] >= 0:
                        qp += 1
                    else:
                        break
                cut = delta - 1 - p
                if qp < cut:
                    cut = qp
                n3a[u] = 1 + sp3 + pre3[cut] + suf1[cut]


def evaluate_view(view: RootedForestView) -> DPTriple:
    """Run the program over a rooted view and return the root triple."""
    size = view.skeleton.size
    n1a = [NEG_INF] * size
    n2a = [NEG_INF] * size
    n3a = [NEG_INF] * size
    sflag = bytearray(size)
    for v in view.special:
        sflag[v] = 1
    _run_pass(view.skeleton, sflag, view.delta, n1a, n2a, n3a)
    r = view.root
    return DPTriple(_norm(n1a[r]), _norm(n2a[r]), _norm(n3a[r]))


def max_subforest_order(
    forest: Graph,
    special,
    delta: int,
    root: int | None = None,
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
    view = root_forest(forest, special, delta, root=root, attachments=attachments)
    triple = evaluate_view(view)
    if view.skeleton.virtual:
        return triple.n1
    return max(triple)


# ---------------------------------------------------------------------------
# Reconstruction of an optimal subforest


def _reconstruct(skeleton: _Skeleton, sflag, delta, n1a, n2a, n3a, root_state) -> set[int]:
    kept: set[int] = set()
    children = skeleton.children
    stack = [(skeleton.root, root_state)]
    while stack:
        u, state = stack.pop()
        if state != 1 and not (skeleton.virtual and u == skeleton.root):
            kept.add(u)
        kids = children[u]
        if not kids:
            continue
        specials = []
        ws = []
        p = 0
        for v in kids:
            if sflag[v]:
                specials.append(v)
                p += 1
            else:
                c = n3a[v]
                ws.append((NEG_INF if c == NEG_INF else c - n1a[v], v))
        ws.sort(key=_KEY, reverse=True)
        if state == 1:
            for v in specials:
                stack.append((v, 2))
            for _, v in ws:
                a, b, c = n1a[v], n2a[v], n3a[v]
                if a >= b and a >= c:
                    stack.append((v, 1))
                elif b >= c:
                    stack.append((v, 2))
                else:
                    stack.append((v, 3))
            continue
        if state == 2:
            cut = delta - p
        elif sflag[u]:
            cut = delta - 1 - p
        else:
            qp = 0
            for item in ws:
                if item[0] >= 0:
                    qp += 1
                else:
                    break
            cut = min(qp, delta - 1 - p)
        for v in specials:
            stack.append((v, 3))
        for i, (_, v) in enumerate(ws):
            stack.append((v, 3 if i < cut else 1))
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

    ``skel`` must have a virtual root.
    """
    gain = 1 << n
    children = skel.children
    drop = [None] * skel.size  # deleted
    up = [None] * skel.size  # kept with the parent edge
    free = [None] * skel.size  # deleted, or kept without the parent edge
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
    for v in children[skel.root]:
        total = _merge(total, free[v], k)
    if len(total) <= k or total[k] < 0:
        return None
    score = total[k]
    mask = score & (gain - 1)
    special = tuple(v for v in range(n) if mask >> (n - 1 - v) & 1)
    return score >> n, special


# ---------------------------------------------------------------------------
# Driver


class _DriverState:
    """Roots a forest for the per-pair program of one special set."""

    def __init__(self, forest: Graph):
        self.forest = forest
        self.connected = len(components(forest)) == 1

    def skeleton_for(self, special: tuple[int, ...]) -> _Skeleton:
        root = None
        if self.connected:  # the least non-special vertex
            root = min(set(range(self.forest.n)).difference(special))
        return _build_skeleton(self.forest, root, None)


def compute_fk_forest(
    forest: Graph,
    k: int,
    jobs: int = 1,
    deadline: float | None = None,
) -> tuple[int, RemovalCertificate]:
    """Exact equalization number of a forest, with a deletion certificate.

    For each target degree delta up to the k-th largest degree, one counting
    pass finds the largest induced subforest with maximum degree at most delta
    and k special vertices at exactly delta; keeping only k-1 vertices covers
    the order-below-k escape.  Ties resolve to the lexicographically least
    (S, delta) pair, whose per-pair program then yields the certificate.
    ``jobs`` is accepted for compatibility and ignored: the solve is serial
    and its result does not depend on it.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not is_forest(forest):
        raise ValueError("input graph is not a forest")
    n = forest.n
    if n < k:
        return 0, make_certificate(forest, (), k, "dp")
    if check_fk_condition(forest, (), k):
        return 0, make_certificate(forest, (), k, "dp")
    if n == k:
        from .oracle import brute_force_fk

        # f_k <= 1 here, so the oracle tries at most n + 1 subsets.
        return brute_force_fk(forest, k, limit=n)

    profile = degree_profile(forest)
    delta_cap = profile.deltas[k - 1]
    counting = _build_skeleton(forest, None, [comp[0] for comp in components(forest)])
    best_val = NEG_INF
    best_key: tuple[tuple[int, ...], int] | None = None
    for delta in range(delta_cap + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("forest solver deadline exceeded")
        found = _best_special_set(counting, n, k, delta)
        if found is None:
            continue
        val, special = found
        if val > best_val or (val == best_val and (special, delta) < best_key):
            best_val = val
            best_key = (special, delta)

    trivial_f = n - (k - 1)
    if best_val == NEG_INF or n - best_val > trivial_f:
        removed = tuple(range(k - 1, n))
        return trivial_f, make_certificate(forest, removed, k, "dp")

    special, delta = best_key
    state = _DriverState(forest)
    skel = state.skeleton_for(special)
    sflag = bytearray(skel.size)
    for v in special:
        sflag[v] = 1
    size = skel.size
    n1a = [NEG_INF] * size
    n2a = [NEG_INF] * size
    n3a = [NEG_INF] * size
    _run_pass(skel, sflag, delta, n1a, n2a, n3a)
    r = skel.root
    if skel.virtual:
        root_state = 1
    else:
        a, b, c = n1a[r], n2a[r], n3a[r]
        if a >= b and a >= c:
            root_state = 1
        elif b >= c:
            root_state = 2
        else:
            root_state = 3
    kept = _reconstruct(skel, sflag, delta, n1a, n2a, n3a, root_state)
    if len(kept) != best_val:
        raise AssertionError(
            f"reconstruction produced {len(kept)} vertices, expected {best_val}"
        )
    removed = tuple(sorted(set(range(n)) - kept))
    return n - best_val, make_certificate(forest, removed, k, "dp")


def dp_size_guard(n: int, k: int, force: bool = False) -> None:
    """Refuse driver runs whose (n, k) enumeration would be unreasonably big."""
    limits = {2: 150, 3: 90}
    limit = limits.get(k, 40)
    if n > limit and not force:
        raise ValueError(
            f"forest solver refused: n={n} exceeds the default limit {limit} "
            f"for k={k} (pass force/--force to override)"
        )
