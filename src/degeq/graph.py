"""Simple undirected graphs on dense integer vertices.

Everything downstream (the forest solver, the brute-force oracle, the
constructive procedures) works on the immutable :class:`Graph` defined here,
together with the degree-profile, girth, and forest utilities and the
success condition for the degree-equalization number f_k.

Both exact solvers end with ``_last_pick``: when fewer than k vertices hold
the top degree d, a deletion outside the closed neighbourhood N[u] of u, the
least of them, leaves u, and so the maximum, at d, so only N[u] can succeed.
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


def _last_pick(adj, deg, hist, k: int, start: int = 0, high: int = -1) -> int | None:
    """The least v >= start in N[u], u the least top-degree vertex, whose
    deletion leaves k live vertices at the top degree, or None.  ``deg`` is
    -1 at deleted vertices, none from start on, and ``hist`` counts live
    degrees; each candidate is deleted and restored in ``hist`` alone.
    ``high`` is the largest live degree below start: a tried candidate stays
    live and loses at most one degree, so once fewer than k live vertices
    reach high - 1, no later one can succeed.
    """
    top = len(hist) - 1
    while not hist[top]:
        top -= 1
    u = deg.index(top)
    for v in sorted(w for w in (u, *adj[u]) if w >= start):
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
