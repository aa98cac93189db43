"""Simple undirected graphs on dense integer vertices.

Everything downstream (the forest solver, the brute-force oracle, the
constructive procedures) works on the immutable :class:`Graph` defined here,
together with the degree-profile, girth, and forest utilities and the
success condition for the degree-equalization number f_k.

Both exact solvers search deletion sets with ``_least_deletions``, which tries
sizes 1, 2, ... and ends each set with ``_last_pick``: when fewer than k
vertices hold the top degree d, a deletion outside the closed neighbourhood
N[u] of u, the least of them, leaves u, and so the maximum, at d, so only
N[u] can succeed.  The oracle runs the search to the end up to its order
limit and at a budget of 0 past it; the forest solver runs it under a work
budget of O(n) and walks its tree program only when the budget runs out.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable

INFINITY = math.inf
MAX_ORDER = 10**6  # parse_graph and the generators refuse a larger graph unbuilt

# ASCII digits only: \d would also accept other scripts' digits, which int() reads.
_PAIR_LINE = re.compile(r"([0-9]+) ([0-9]+)$")


class GraphFormatError(ValueError):
    """Edge-list input violates the file format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the sorted tuple of neighbors of ``v`` and ``m`` the number
    of edges.  Instances validate simplicity and symmetry on construction and
    are safe to share across threads or processes.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    m: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        neigh: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in neigh[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            neigh[u].add(v)
            neigh[v].add(u)
            m += 1
        return cls(n, tuple(tuple(sorted(s)) for s in neigh), m)

    def __post_init__(self):
        if len(self.adj) != self.n:
            raise ValueError("adjacency length differs from vertex count")
        if 2 * self.m != sum(len(a) for a in self.adj):
            raise ValueError("edge count inconsistent with degree sum")

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


@dataclass(frozen=True)
class DegreeProfile:
    """Non-increasing degree sequence with one witness vertex per entry.

    ``deltas[i]`` is the (i+1)-th largest degree and ``witnesses[i]`` a vertex
    realizing it; ties are broken by ascending vertex id so every downstream
    procedure is deterministic.
    """

    deltas: tuple[int, ...]
    witnesses: tuple[int, ...]


def parse_graph(text: str | Iterable[str]) -> Graph:
    """Parse the edge-list format: header ``n m`` then m lines ``u v``.

    Lines starting with ``#`` and blank lines are ignored.  Tokens are
    separated by single spaces, ``n`` is at most ``MAX_ORDER``, edge lines
    require ``0 <= u < v < n``, and every violation is reported with its
    line number.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in text]

    header: tuple[int, int] | None = None
    neigh: list[list[int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(lines, start=1):
        if raw.startswith("#") or raw.strip() == "":
            continue
        if header is None:
            match = _PAIR_LINE.fullmatch(raw)
            if not match:
                raise GraphFormatError(f"malformed header {raw!r}", lineno)
            header = (int(match.group(1)), int(match.group(2)))
            if header[0] > MAX_ORDER:
                raise GraphFormatError(f"n={header[0]} is over {MAX_ORDER}", lineno)
            neigh = [[] for _ in range(header[0])]
            continue
        n, m = header
        if len(seen) == m:
            raise GraphFormatError(f"unexpected content after {m} edges", lineno)
        match = _PAIR_LINE.fullmatch(raw)
        if not match:
            raise GraphFormatError(f"malformed edge line {raw!r}", lineno)
        u, v = int(match.group(1)), int(match.group(2))
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        if u > v:
            raise GraphFormatError(f"edge ({u}, {v}) not in increasing order", lineno)
        if v >= n:
            raise GraphFormatError(f"vertex {v} out of range for n={n}", lineno)
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u}, {v})", lineno)
        seen.add((u, v))
        neigh[u].append(v)
        neigh[v].append(u)

    if header is None:
        raise GraphFormatError("missing header line")
    n, m = header
    if len(seen) != m:
        raise GraphFormatError(f"expected {m} edges, found {len(seen)}")
    return Graph(n, tuple(map(tuple, map(sorted, neigh))), m)


def to_edgelist(graph: Graph) -> str:
    """Serialize to the canonical edge-list text (sorted edges, u < v)."""
    out = [f"{graph.n} {graph.m}"]
    out.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(out) + "\n"


def degree_profile(graph: Graph) -> DegreeProfile:
    """Degrees sorted non-increasingly, witnesses tie-broken by vertex id."""
    deg = [len(a) for a in graph.adj]
    # a reverse sort stays stable, so tied degrees keep ascending ids
    order = sorted(range(graph.n), key=deg.__getitem__, reverse=True)
    return DegreeProfile(
        deltas=tuple(map(deg.__getitem__, order)), witnesses=tuple(order)
    )


def _two_core(graph: Graph) -> list[int]:
    """The vertices of the 2-core, ascending: what is left once vertices of
    degree <= 1 are peeled until none remain.  It is empty exactly on forests
    (Seidman, Social Networks 1983)."""
    deg = [len(a) for a in graph.adj]
    peel = [v for v in range(graph.n) if deg[v] < 2]
    for v in peel:  # grows while it is read
        for w in graph.adj[v]:
            deg[w] -= 1
            if deg[w] == 1:
                peel.append(w)
    return [v for v in range(graph.n) if deg[v] > 1]


def is_forest(graph: Graph) -> bool:
    # a forest on n >= 1 vertices has <= n - 1 edges
    return not (graph.m >= graph.n >= 1) and not _two_core(graph)


def girth(graph: Graph) -> int | float:
    """Length of a shortest cycle, ``math.inf`` for forests.

    On the 2-core (vertices of degree <= 1 peeled), one breadth-first search
    per start s runs its levels as bitmasks over the vertices >= s.  Scanning
    level d, an edge inside the level closes a cycle of length at most
    2d + 1, and a next-level vertex reached from two level-d vertices one of
    at most 2d + 2; the scan of the level goes on after the latter, since an
    edge inside it is shorter.  A shortest cycle is found from its least
    vertex (Itai and Rodeh, SIAM J. Comput. 1978).
    """
    core = _two_core(graph)
    bit = [0] * graph.n  # a core vertex's bit, 0 off the core
    for i, v in enumerate(core):
        bit[v] = 1 << i
    masks = [sum(map(bit.__getitem__, graph.adj[v])) for v in core]
    best: int | float = INFINITY
    for start in range(len(masks)):
        level, d, ahead = 1 << start, 0, -1 << start  # ids >= s, no earlier level
        while level and 2 * d + 1 < best:
            grown, found, rest = 0, INFINITY, level
            while rest:
                low = rest & -rest
                rest ^= low
                around = masks[low.bit_length() - 1] & ahead
                if around & level:
                    found = 2 * d + 1
                    break
                if around & grown:
                    found = 2 * d + 2
                grown |= around
            if found < INFINITY:  # deeper levels close only longer cycles
                best = min(best, found)
                break
            ahead ^= level
            level, d = grown, d + 1
    return best


def residual_degrees(graph: Graph, removed: Iterable[int]) -> list[int]:
    """Degree of every vertex of graph - removed, by original id; -1 marks a
    removed vertex.

    Costs O(n + sum of the removed degrees) and builds no subgraph: whether a
    deletion set works depends only on these degrees.
    """
    deg = [len(a) for a in graph.adj]
    removed_set = set(removed)
    for v in removed_set:
        if not (isinstance(v, int) and 0 <= v < graph.n):
            raise ValueError(f"unknown vertex {v!r}")
        deg[v] = -1
    for v in removed_set:
        for w in graph.adj[v]:
            if deg[w] >= 0:
                deg[w] -= 1
    return deg


def check_fk_condition(graph: Graph, removed: Iterable[int], k: int) -> bool:
    """True iff graph - removed has >= k vertices of maximum degree or order < k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    live = [d for d in residual_degrees(graph, removed) if d >= 0]
    return len(live) < k or live.count(max(live)) >= k


def _last_pick(
    adj, deg, hist, k: int, start: int = 0, high: int = -1, charge=None
) -> int | None:
    """The least v >= start in N[u], u the least top-degree vertex, whose
    deletion leaves k live vertices at the top degree, or None.  ``deg`` is
    -1 at deleted vertices, none from start on, and ``hist`` counts live
    degrees; each candidate is deleted and restored in ``hist`` alone.
    ``high`` is the largest live degree below start: a tried candidate stays
    live and loses at most one degree, so once fewer than k live vertices
    reach high - 1, no later one can succeed.  ``charge``, when given, is
    first asked whether the candidates' degrees fit a work budget, and a
    False answer returns None with no candidate tried.
    """
    top = len(hist) - 1
    while not hist[top]:
        top -= 1
    u = deg.index(top)
    tried = sorted(w for w in (u, *adj[u]) if w >= start)
    if charge is not None and not charge(sum(len(adj[v]) for v in tried)):
        return None
    for v in tried:
        dv = deg[v]
        hist[dv] -= 1
        for w in adj[v]:
            dw = deg[w]
            if dw > 0:  # live: a live neighbour of v has degree >= 1
                hist[dw] -= 1
                hist[dw - 1] += 1
        d = top
        while not hist[d]:
            d -= 1
        found = hist[d] >= k
        for w in adj[v]:
            dw = deg[w]
            if dw > 0:
                hist[dw - 1] -= 1
                hist[dw] += 1
        hist[dv] += 1
        if found:
            return v
        if dv > high:
            high = dv
            if high > 1 and sum(hist[high - 1 :]) < k:
                return None
    return None


_TICK = 4096  # units of search work between two calls of a search's tick


def _least_deletions(graph: Graph, k: int, budget: int | None = None, tick=None):
    """``(x, work)``: x the lexicographically least minimum deletion set of
    ``graph``, or None when ``budget`` units of work do not find it, and the
    work charged.

    x is empty when n < k or k vertices already share the top degree.
    Other sizes are tried in increasing order, up to n - k (deleting
    0, ..., n - k leaves fewer than k vertices; at n = k that escape is
    the answer, with no size tried); within a size the search picks vertices
    in increasing index order, so its leaves come in the order of
    ``itertools.combinations`` and the first success is the least minimum
    set.  Removing or restoring a vertex touches only its live neighbours, and
    a leaf succeeds when the top non-empty bucket holds at least k vertices.

    Prune: take a node with r picks left, about to try candidate v.  In every
    branch from v on, each vertex below v that is live at the node stays in
    the final graph and loses at most r degree there, so the final maximum
    degree is at least L = (max live degree below v) - r.  A vertex ending at
    that maximum has degree at least L at the node, so when fewer than k live
    vertices do, no leaf in those branches succeeds and the node returns.
    L only grows with v, so the test runs at the node's first candidate and
    again whenever a tried candidate raises the maximum.  With r = 1, fewer
    than k live vertices hold the top degree (else the picks so far were a
    smaller success), so ``_last_pick`` ends the set, with the same prune.

    Work: a node v (a candidate tried with two or more picks left) is
    charged 1 for its step, its live degree for the neighbours it updates
    and v + 1 for the scan of the degrees below v + 1 that the search it
    calls makes.  Under a budget a last pick is charged the degrees of the
    candidates it tries, but for size 1's lone pick, which costs at most the
    degree sum: a budget of 0 still answers f_k = 1, and no more.  A step is
    taken only if its charge fits, and the first that does not ends the
    search.  ``tick`` is called each time about ``_TICK`` more units are
    charged, and may raise to stop the search.
    """
    n, adj = graph.n, graph.adj
    deg = [len(nbrs) for nbrs in adj]
    hist = [0] * (max(deg, default=0) + 1)
    for d in deg:
        hist[d] += 1
    if n < k or hist[-1] >= k:
        return (), 0
    picked: list[int] = []
    spent = 0
    # an int above any search's work (cheaper to compare than inf); -1 once
    # the budget has run out
    limit = 1 << 62 if budget is None else budget
    due = min(limit, _TICK) if tick else limit  # work charged with no check

    def settle(cost: int) -> bool:
        """Whether the cost just charged fits, once ``spent`` is past ``due``:
        past the budget it is taken back, and nothing fits from then on;
        else the tick is due."""
        nonlocal spent, limit, due
        if spent > limit:
            spent -= cost
            limit = due = -1
            return False
        tick()
        due = min(limit, spent + _TICK)
        return True

    def charge(cost: int) -> bool:
        nonlocal spent
        spent += cost
        return spent <= due or settle(cost)

    pick_charge = None if budget is None else charge

    def search(start: int, r: int) -> bool:
        """Pick r more vertices from start on; True, with ``picked`` filled,
        at the first success."""
        nonlocal spent
        high = max(deg[:start], default=-1)
        if high > r and sum(hist[high - r :]) < k:
            return False
        if r == 1:
            # size 1's lone pick (start 0) is never refused: it costs at most
            # the degree sum, and a budget of 0 still answers f_k = 1
            v = _last_pick(adj, deg, hist, k, start, high, pick_charge if start else None)
            if v is not None:
                picked.append(v)
            return v is not None
        for v in range(start, n - r + 1):
            dv = deg[v]
            spent += v + 2 + dv
            if spent > due and not settle(v + 2 + dv):
                return False
            hist[dv] -= 1
            deg[v] = -1
            nbrs = adj[v]
            for w in nbrs:
                dw = deg[w]
                if dw > 0:  # live: a live neighbour of v has degree >= 1
                    hist[dw] -= 1
                    hist[dw - 1] += 1
                    deg[w] = dw - 1
            if search(v + 1, r - 1):
                picked.append(v)
                return True
            for w in nbrs:
                dw = deg[w]
                if dw >= 0:
                    hist[dw] -= 1
                    hist[dw + 1] += 1
                    deg[w] = dw + 1
            deg[v] = dv
            hist[dv] += 1
            if dv > high:
                high = dv
                if high > r and sum(hist[high - r :]) < k:
                    return False
        return False

    for size in range(1, n - k + 1):
        if search(0, size):
            return tuple(sorted(picked)), spent
        if spent >= limit:  # no work left, and a larger size charges a node
            return None, spent
    return tuple(range(n - k + 1)), spent
