"""Benchmark inputs: the pinned instance pool, seeded selection, and the
benchmark's own correctness checks.

The pool (``data/pool.json``, rebuilt by ``make_pool.py``) stores every graph
of the forest-exact, oracle-general and cli-compute workloads as an explicit
edge list together with its pinned f_k, so those workloads need no generator
and no solver to know the right answer.  A run's ``--seed`` chooses which
pool members of each cell it times.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path

POOL_PATH = Path(__file__).resolve().parent / "data" / "pool.json"


@dataclass(frozen=True)
class Instance:
    """One pinned input: a graph, the k to solve for, and the exact f_k."""

    cell: str
    family: str
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    fk: int
    source: str

    @property
    def label(self) -> str:
        return f"{self.cell}[{self.source}]"


def seeded_key(seed: int, *parts) -> bytes:
    """Deterministic sort key, independent of Python's hash randomization."""
    text = ":".join(str(p) for p in (seed, *parts))
    return hashlib.sha256(text.encode()).digest()


def seeded_int(seed: int, *parts) -> int:
    return int.from_bytes(seeded_key(seed, *parts)[:8], "big") >> 1


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    try:
        ref = (root / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def load_pool(path: Path = POOL_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _decode(cell: dict, item: dict) -> Instance:
    flat = item["edges"]
    edges = tuple(zip(flat[0::2], flat[1::2]))
    return Instance(
        cell["name"], cell["family"], item["n"], edges, cell["k"], item["fk"],
        item["source"],
    )


def select(pool: dict, workload: str, seed: int) -> list[Instance]:
    """The instances one run times: ``pick`` members of every cell of the
    workload, chosen by the seed, in a seed-shuffled order."""
    chosen = []
    for cell in pool["cells"]:
        if cell["workload"] != workload:
            continue
        ranked = sorted(
            range(len(cell["instances"])),
            key=lambda i: seeded_key(seed, cell["name"], i),
        )
        chosen.extend(_decode(cell, cell["instances"][i]) for i in ranked[: cell["pick"]])
    chosen.sort(key=lambda inst: seeded_key(seed, "order", inst.label))
    return chosen


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def equalizes(adj: list[list[int]], removed, k: int) -> bool:
    """The defining condition of f_k, checked without the package: deleting
    ``removed`` leaves fewer than k vertices or k vertices of maximum degree."""
    gone = set(removed)
    if any(not 0 <= v < len(adj) for v in gone):
        return False
    degrees = [
        sum(1 for w in adj[v] if w not in gone) for v in range(len(adj)) if v not in gone
    ]
    if len(degrees) < k:
        return True
    top = max(degrees)
    return sum(1 for d in degrees if d == top) >= k


def candidate_pairs(adj: list[list[int]], k: int) -> int:
    """Computed count of (S, delta) pairs the forest enumeration visits:
    the sum over delta <= d_k of C(#{v : deg(v) >= delta}, k)."""
    degrees = sorted((len(a) for a in adj), reverse=True)
    if len(degrees) < k:
        return 0
    return sum(
        comb(sum(1 for d in degrees if d >= delta), k)
        for delta in range(degrees[k - 1] + 1)
    )


def subsets_tried(n: int, x) -> int:
    """Computed count of subsets the oracle tests before it returns ``x``:
    every smaller subset, then the lexicographic rank of ``x`` among subsets
    of its size, plus ``x`` itself."""
    f = len(x)
    before = sum(comb(n, i) for i in range(f))
    rank = 0
    prev = -1
    for i, v in enumerate(sorted(x)):
        for skipped in range(prev + 1, v):
            rank += comb(n - 1 - skipped, f - 1 - i)
        prev = v
    return before + rank + 1
