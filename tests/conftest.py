"""Shared fixtures: canonical small graphs, independent oracles, and the
exhaustive enumeration of non-isomorphic forests used by the acceptance suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import deque
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from degeq import Graph, forest_dp, parse_graph

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
]


@pytest.fixture
def petersen() -> Graph:
    return Graph.from_edges(10, PETERSEN_EDGES)


@pytest.fixture
def path4() -> Graph:
    return parse_graph("4 3\n0 1\n1 2\n2 3")


@pytest.fixture
def cycle5() -> Graph:
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


@pytest.fixture
def walk_only(monkeypatch):
    """The forest solver with no budget for its pre-walk search, so every
    f_k >= 2 comes from the tree program's walk, which the test then checks
    against an independent answer."""
    monkeypatch.setattr(forest_dp, "_SEARCH_WORK", 0)


def run_python(code: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """Run ``python -c code`` in a child interpreter that imports degeq from
    this checkout's ``src``, and return it finished, its output as text.  A
    resource limit the child sets on itself binds the child alone."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def bfs_distance(graph: Graph, source: int, target: int) -> float:
    if source == target:
        return 0
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.adj[u]:
            if w == target:
                return dist[u] + 1
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return float("inf")


def girth_by_edge_removal(graph: Graph) -> float:
    """Independent girth oracle: shortest cycle through edge (u, v) is
    1 + dist(u, v) in the graph without that edge."""
    best = float("inf")
    for u, v in graph.edges():
        edges = [e for e in graph.edges() if e != (u, v)]
        stripped = Graph.from_edges(graph.n, edges)
        best = min(best, bfs_distance(stripped, u, v) + 1)
    return best


def nx_components(graph: Graph) -> list[list[int]]:
    """Connected components from networkx, as sorted vertex lists ordered by
    least vertex."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges())
    return sorted(sorted(c) for c in nx.connected_components(g))


# ---------------------------------------------------------------------------
# Exhaustive non-isomorphic forest enumeration (test-only; trees come from
# networkx, forests are multisets of trees summing to the target order).

_TREE_CACHE: dict[int, list[list[tuple[int, int]]]] = {}


def trees_of_size(s: int) -> list[list[tuple[int, int]]]:
    if s not in _TREE_CACHE:
        if s == 1:
            _TREE_CACHE[s] = [[]]
        elif s == 2:
            _TREE_CACHE[s] = [[(0, 1)]]
        else:
            import networkx as nx

            _TREE_CACHE[s] = [
                sorted((min(u, v), max(u, v)) for u, v in t.edges())
                for t in nx.nonisomorphic_trees(s)
            ]
    return _TREE_CACHE[s]


def _partitions(n: int, maxpart: int | None = None):
    if maxpart is None:
        maxpart = n
    if n == 0:
        yield []
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def all_forests(n: int) -> list[Graph]:
    """Every forest on n vertices, one per isomorphism class."""
    out: list[Graph] = []
    for part in _partitions(n):
        sizes: dict[int, int] = {}
        for s in part:
            sizes[s] = sizes.get(s, 0) + 1
        ordered = sorted(sizes.items(), reverse=True)
        choices = [
            list(combinations_with_replacement(range(len(trees_of_size(s))), cnt))
            for s, cnt in ordered
        ]
        for combo in product(*choices):
            edges: list[tuple[int, int]] = []
            base = 0
            for (s, _cnt), chosen in zip(ordered, combo):
                for idx in chosen:
                    edges.extend(
                        (base + u, base + v) for u, v in trees_of_size(s)[idx]
                    )
                    base += s
            out.append(Graph.from_edges(n, edges))
    return out
