"""Timed benchmark suites over fixed seeded instances."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from math import comb

from .extremal import build_extremal_forest, build_path, build_star_union
from .generators import gen_random_forest
from .oracle import brute_force_fk, solve


@dataclass
class BenchRow:
    name: str
    n: int
    m: int
    k: int
    method: str
    value: int
    elapsed_ms: float


def run_suite(suite: str) -> list[BenchRow]:
    if suite == "small":
        # every row has f_k >= 2, so no solve ends at the search's size-1 pick
        cases = [
            ("path-4", build_path(4), (3,)),
            ("star-union-1-3", build_star_union([3, 1]), (3,)),
            ("extremal-F3", build_extremal_forest(3), (3,)),
            ("extremal-F4", build_extremal_forest(4), (3,)),
            ("forest-n12", gen_random_forest(12, seed=7), (4, 5)),
        ]
    elif suite == "forest-dp":
        # seeds with f_k >= 2 on every row, so no solve ends at the size-1
        # pick.  The pre-walk search decides the six random forests (f_k = 2
        # or 3); f_3(F_15) = 15, and f_2 = 10 on S_10, the star union with
        # C(i + 1, 2) + 1 leaves for i = 10..1, run it out of budget and
        # run counting passes
        cases = [
            (f"forest-n{n}", gen_random_forest(n, seed=3000 + n), (k,))
            for k, sizes in ((2, (41, 70, 100)), (3, (30, 45, 60)))
            for n in sizes
        ]
        s10 = build_star_union([comb(i + 1, 2) + 1 for i in range(10, 0, -1)])
        cases += [("extremal-F15", build_extremal_forest(15), (3,))]
        cases += [("star-union-S10", s10, (2,))]
    elif suite == "oracle":
        # forests, so not solve: f_3(F_t) = t, and F_4 has the limit's 18 vertices
        cases = [(f"extremal-F{t}", build_extremal_forest(t), (3,)) for t in (2, 3, 4)]
    else:
        raise ValueError(f"unknown bench suite {suite!r}")
    exact = brute_force_fk if suite == "oracle" else solve
    rows = []
    for name, graph, ks in cases:
        for k in ks:
            start = time.perf_counter()
            value, cert = exact(graph, k)
            ms = (time.perf_counter() - start) * 1000.0
            rows.append(BenchRow(name, graph.n, graph.m, k, cert.method, value, ms))
    return rows


def render(rows: list[BenchRow], fmt: str) -> str:
    if fmt == "json":
        return (
            json.dumps([row.__dict__ for row in rows], indent=2, default=str) + "\n"
        )
    if fmt == "csv":
        out = ["name,n,m,k,method,value,elapsed_ms"]
        out.extend(
            f"{r.name},{r.n},{r.m},{r.k},{r.method},{r.value},{r.elapsed_ms:.3f}"
            for r in rows
        )
        return "\n".join(out) + "\n"
    width = max(len(r.name) for r in rows)
    lines = [
        f"{r.name:<{width}}  n={r.n:>4} m={r.m:>4} k={r.k} "
        f"{r.method:<5} value={r.value:>3} {r.elapsed_ms:9.2f} ms"
        for r in rows
    ]
    return "\n".join(lines) + "\n"
