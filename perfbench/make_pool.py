"""Rebuild ``data/pool.json``, the pinned inputs of the benchmark.

    python3 perfbench/make_pool.py

Each cell lists candidate graphs of one family, order n and k.  A candidate is
kept only when it is non-trivial (``check_fk_condition(G, (), k)`` is false,
so f_k >= 1) and, for the oracle cells, when f_k equals the cell's target and
the oracle's answer comes early in its size layer.  Selection looks only at
these properties, never at timing.  The pinned f_k
comes from the tree solver for forests and from the subset oracle otherwise;
every forest with at most 18 vertices is also solved by the oracle, and each
extremal forest F_t must give f_3 = t.  A pass should take a few seconds, so
that a run repeats every input several times.  The pool is written once and read by
every run; rebuilding it changes the benchmark.
"""

from __future__ import annotations

import json
import logging
import platform
import sys
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from degeq import (  # noqa: E402
    Graph,
    brute_force_fk,
    build_extremal_forest,
    check_fk_condition,
    compute_fk_forest,
    gen_random_forest,
    gen_random_girth5,
    is_forest,
)
from degeq.prng import SplitMix64  # noqa: E402

from instances import POOL_PATH, git_commit, seeded_int, subsets_tried  # noqa: E402

CROSS_CHECK_ORDER = 18
POOL_SEED = 20170524
MAX_ATTEMPTS = 2000


def spiders(rng: SplitMix64, n: int) -> Graph:
    """Two disjoint spiders on n vertices in all, with 4-8 and 3..(more-1)
    legs; the non-center vertices are spread over the legs at random."""
    legs = [4 + rng.randrange(5)]
    legs.append(3 + rng.randrange(legs[0] - 3))
    lengths = [1] * sum(legs)
    for _ in range(n - 2 - sum(legs)):
        lengths[rng.randrange(len(lengths))] += 1
    edges, nxt, leg = [], 2, 0
    for center, count in enumerate(legs):
        for _ in range(count):
            prev = center
            for _ in range(lengths[leg]):
                edges.append((prev, nxt))
                prev, nxt = nxt, nxt + 1
            leg += 1
    return Graph.from_edges(n, edges)


def caterpillar(rng: SplitMix64, n: int) -> Graph:
    """A path spine of 5-10 vertices; the other vertices are leaves hung on
    random spine vertices."""
    spine = 5 + rng.randrange(6)
    edges = [(v, v + 1) for v in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    return Graph.from_edges(n, edges)


def double_star(rng: SplitMix64, n: int) -> Graph:
    """Two adjacent centers with a > b >= 2 leaves, and a pendant path of
    1-3 vertices on the smaller center."""
    path = 1 + rng.randrange(3)
    leaves = n - 2 - path
    a = leaves // 2 + 1 + rng.randrange(max(1, leaves // 2 - 2))
    edges = [(0, 1)]
    edges += [(0, v) for v in range(2, 2 + a)]
    edges += [(1, v) for v in range(2 + a, 2 + leaves)]
    prev = 1
    for v in range(2 + leaves, n):
        edges.append((prev, v))
        prev = v
    return Graph.from_edges(n, edges)


def hubbed_girth5(rng: SplitMix64, n: int) -> Graph:
    """A saturated random girth-5 graph plus 2-4 hub vertices, each joined to
    a random 40-80% of the base vertices.  Hubs take the lowest ids."""
    hubs = 2 + rng.randrange(3)
    base_n = n - hubs
    base = gen_random_girth5(base_n, seed=rng.next_u64())
    edges = [(u + hubs, v + hubs) for u, v in base.edges()]
    for h in range(hubs):
        degree = base_n * 2 // 5 + rng.randrange(base_n * 2 // 5)
        edges.extend((h, v + hubs) for v in rng.sample(base_n, degree))
    return Graph.from_edges(n, edges)


def random_forest(rng: SplitMix64, n: int) -> Graph:
    return gen_random_forest(n, seed=rng.next_u64())


def cell(workload, family, build, n, k, count, pick, target=None) -> dict:
    name = f"{family}-k{k}-n{n}" + ("" if target is None else f"-f{target}")
    if workload == "cli-compute":
        name = "cli-" + name
    return dict(workload=workload, name=name, family=family, build=build, n=n,
                k=k, count=count, pick=pick, target=target)


def cell_specs() -> list[dict]:
    """Cells and how many members each run picks.  Every run takes all
    members of the costly cells and most members of the others, so the work
    in a pass barely depends on the seed."""
    cells = []
    for k, n, count, pick in ((2, 24, 5, 4), (2, 48, 3, 2), (2, 72, 1, 1),
                              (3, 20, 5, 4), (3, 26, 3, 2), (4, 16, 5, 4),
                              (4, 20, 1, 1)):
        cells.append(cell("forest-exact", "random-forest", random_forest, n, k,
                          count, pick))
    for t in (5, 6):
        cells.append(dict(workload="forest-exact", name=f"extremal-F{t}",
                          family="extremal", k=3, t=t, pick=1, count=1))
    for k, n in ((2, 26), (3, 20), (4, 14)):
        for family, build in (("spiders", spiders), ("caterpillar", caterpillar),
                              ("double-star", double_star)):
            cells.append(cell("forest-exact", family, build, n, k, 4, 3))
    for n, k, f, count, pick in ((18, 3, 3, 8, 7), (20, 4, 3, 8, 7),
                                 (22, 3, 4, 8, 7), (22, 4, 4, 8, 7),
                                 (24, 4, 5, 8, 7), (26, 3, 4, 8, 7),
                                 (26, 4, 5, 8, 7), (28, 3, 4, 8, 7),
                                 (28, 4, 5, 8, 7), (24, 4, 6, 2, 2)):
        cells.append(cell("oracle-general", "girth5-hubs", hubbed_girth5, n, k,
                          count, pick, target=f))
    for k, n in ((2, 30), (2, 40), (3, 20), (3, 26)):
        cells.append(cell("cli-compute", "random-forest", random_forest, n, k, 3, 2))
    for k, n, count, pick in ((3, 16, 4, 3), (4, 18, 3, 2)):
        cells.append(cell("cli-compute", "girth5-hubs", hubbed_girth5, n, k, count, pick))
    return cells


def early_in_layer(graph: Graph, x) -> bool:
    """True when the oracle's answer X lies in the first 5% of the subsets of
    its size, so the subsets it tries number about sum_{i<f} C(n, i).  Oracle
    cells keep only such graphs, which makes a cell's work a function of n
    and f_k."""
    n, f = graph.n, len(x)
    return subsets_tried(n, x) - sum(comb(n, i) for i in range(f)) <= comb(n, f) // 20


def exact(graph: Graph, k: int):
    """Pinned f_k and its deletion set, cross-checked wherever two exact
    methods apply."""
    if is_forest(graph):
        value, cert = compute_fk_forest(graph, k)
        if graph.n <= CROSS_CHECK_ORDER:
            oracle = brute_force_fk(graph, k)[0]
            if oracle != value:
                raise RuntimeError(f"tree solver {value} != oracle {oracle}")
        return value, cert.x
    value, cert = brute_force_fk(graph, k, limit=graph.n)
    return value, cert.x


def encode(graph: Graph, fk: int, source: str) -> dict:
    flat = [v for edge in graph.edges() for v in edge]
    return {"n": graph.n, "fk": fk, "source": source, "edges": flat}


def build_cell(spec: dict) -> dict:
    k = spec["k"]
    items = []
    if spec["family"] == "extremal":
        t = spec["t"]
        graph = build_extremal_forest(t)
        fk = exact(graph, k)[0]
        if fk != t:
            raise RuntimeError(f"f_3(F_{t}) = {fk}, expected {t}")
        items.append(encode(graph, fk, f"F_{t}"))
    attempt = 0
    while len(items) < spec["count"]:
        if attempt == MAX_ATTEMPTS:
            raise RuntimeError(f"cell {spec['name']}: too few qualifying candidates")
        sub_seed = seeded_int(POOL_SEED, spec["name"], attempt)
        attempt += 1
        graph = spec["build"](SplitMix64(sub_seed), spec["n"])
        if check_fk_condition(graph, (), k):
            continue
        fk, x = exact(graph, k)
        if spec["target"] is not None and (
            fk != spec["target"] or not early_in_layer(graph, x)
        ):
            continue
        items.append(encode(graph, fk, f"{spec['family']}:{sub_seed}"))
    fields = ("workload", "name", "family", "k", "pick")
    return {**{f: spec[f] for f in fields}, "instances": items}


def main() -> None:
    logging.getLogger("degeq.oracle").setLevel(logging.ERROR)
    cells = []
    for spec in cell_specs():
        cells.append(build_cell(spec))
        print(f"{spec['name']}: {len(cells[-1]['instances'])} instances", flush=True)
    pool = {
        "pinned_at_commit": git_commit(HERE.parent),
        "python": platform.python_version(),
        "cells": cells,
    }
    POOL_PATH.parent.mkdir(exist_ok=True)
    text = json.dumps(pool, separators=(",", ":"))
    POOL_PATH.write_text(text.replace(',{"workload"', ',\n{"workload"') + "\n")


if __name__ == "__main__":
    main()
