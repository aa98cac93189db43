"""Seeded random instance generators, the table of corpus kinds, and the
expansion of corpus configs into instances."""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations
from typing import Callable

from .extremal import build_extremal_forest, build_path, build_star, build_star_union
from .graph import MAX_ORDER, Graph
from .prng import SplitMix64, instance_seed

MAX_GIRTH_PAIRS = 2 * 10**6  # random girth graphs on more pairs (n > 2,000) are refused
MAX_COUNT = 10**6  # instances per corpus line; a larger count is refused unexpanded


class GirthSaturationError(ValueError):
    """The edge target is unreachable without creating a short cycle."""

    def __init__(self, target: int, achieved: int):
        self.target = target
        self.achieved = achieved
        super().__init__(
            f"requested {target} edges but only {achieved} are insertable"
        )


def gen_random_forest(
    n: int,
    split_prob: float = 0.15,
    seed: int = 0,
    m: int | None = None,
) -> Graph:
    """Random forest by parent attachment: each vertex after the first either
    starts a fresh component or attaches to a uniformly random earlier vertex.

    With an explicit edge target ``m`` the component starts are sampled
    up front so the output has exactly n - m components.  Deterministic in
    ``seed``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_ORDER:
        raise ValueError(f"a random forest on {n} vertices is over {MAX_ORDER}")
    rng = SplitMix64(seed)
    adj: list[list[int]] = [[] for _ in range(n)]
    if m is not None:
        if not 0 <= m <= n - 1:
            raise ValueError(f"a forest on {n} vertices has 0..{n - 1} edges")
        extra_starts = set(v + 1 for v in rng.sample(n - 1, n - 1 - m))
    elif not 0.0 <= split_prob <= 1.0:
        raise ValueError("split probability must be in [0, 1]")
    for v in range(1, n):
        if (v in extra_starts) if m is not None else rng.random() < split_prob:
            continue
        p = rng.randrange(v)
        adj[p].append(v)
        adj[v].append(p)
    # v gets its parent p < v, then its children by id: every list is sorted
    return Graph(n, tuple(map(tuple, adj)), sum(map(len, adj)) // 2)


def _ball_keeper(n: int, wide: int):
    """Adjacency lists and balls (``balls[r][x]``: the vertices within r steps
    of x, r = 0..wide) of an empty graph, and ``insert(a, b)``, which adds an
    edge and keeps every ball exact: each x at distance i < r from a gains b's
    ball of radius r - 1 - i, and likewise with a and b swapped; at i = 0 that
    is a's own ball, written directly.  Rings are taken first and radii
    walked from wide down, so no ball read has grown."""
    adj: list[list[int]] = [[] for _ in range(n)]
    balls = [[1 << x for x in range(n)] for _ in range(wide + 1)]
    steps = [(balls[r], balls[r - 1], [(i, balls[r - 1 - i]) for i in range(1, r)])
             for r in range(wide, 0, -1)]

    def insert(a: int, b: int) -> None:
        rings_a, rings_b = [(a,), adj[a]], [(b,), adj[b]]
        for i in range(2, wide):  # ring i: the new vertices next to ring i - 1
            for x, rings in ((a, rings_a), (b, rings_b)):
                near = balls[i - 1][x]
                rings.append([y for w in rings[-1] for y in adj[w] if not near >> y & 1])
        for row, own, ring_steps in steps:
            row[a] |= own[b]
            row[b] |= own[a]
            for i, far in ring_steps:
                gain_a, gain_b = far[b], far[a]
                for z in rings_a[i]:
                    row[z] |= gain_a
                for z in rings_b[i]:
                    row[z] |= gain_b
        adj[a].append(b)
        adj[b].append(a)

    return adj, balls, insert


def gen_random_girth5(
    n: int,
    m: int | None = None,
    seed: int = 0,
    min_girth: int = 5,
) -> Graph:
    """Random graph of girth at least ``min_girth`` by shuffled greedy edge
    insertion; an edge is inserted only if its endpoints are currently at
    distance at least min_girth - 1, tested as two disjoint bitmask balls.

    Stops after ``m`` edges, or at certified saturation when ``m`` is None.
    Raises :class:`GirthSaturationError` when the target is unreachable:
    once rejected, a pair only gets closer, so one scan is conclusive.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if min_girth < 3:
        raise ValueError("min_girth below 3 is not a girth constraint")
    if m is not None and m < 0:
        raise ValueError("edge target m must be non-negative")
    if n * (n - 1) > 2 * MAX_GIRTH_PAIRS:
        raise ValueError(f"{n} vertices have over {MAX_GIRTH_PAIRS} vertex pairs")
    rng = SplitMix64(seed)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    # dist(u, v) <= cap iff ball(u, wide) meets ball(v, narrow); no distance
    # exceeds n - 1, so a larger cap tests the same and only costs balls
    cap = min(min_girth - 2, n - 1)
    wide, narrow = (cap + 1) // 2, cap // 2
    adj, balls, insert = _ball_keeper(n, wide)
    wide_ball, narrow_ball = balls[wide], balls[narrow]
    count = 0
    for u, v in pairs:
        if wide_ball[u] & narrow_ball[v]:
            continue
        if count == m:
            break
        insert(u, v)
        count += 1
    if m is not None and count < m:
        raise GirthSaturationError(m, count)
    # each inserted pair is distinct with u < v, so adj needs no re-validation
    return Graph(n, tuple(tuple(sorted(a)) for a in adj), count)


def _needs_n(config: GeneratorConfig) -> None:
    if config.n is None or config.n < 1:
        raise ValueError(f"kind {config.kind} requires n >= 1")


def _needs_t(config: GeneratorConfig) -> None:
    if config.t is None or config.t < 1:
        raise ValueError(f"{config.kind} requires t >= 1")


def _needs_sizes(config: GeneratorConfig) -> None:
    if not config.sizes:
        raise ValueError(f"{config.kind} requires a sizes list")


@dataclass(frozen=True)
class CorpusKind:
    """What a corpus kind needs of its config, the params of its instance i,
    and how an instance is built from those params.  A random kind takes one
    seed per instance; the others are deterministic families."""

    require: Callable[[GeneratorConfig], None]
    params: Callable[[GeneratorConfig, int], dict]
    build: Callable[[dict], Graph]
    random: bool = False


# Every corpus kind; configs and corpus expansion read this table, and the CLI
# spells out its names, in its order, as the construct and gen choices.
CORPUS_KINDS = {
    "random-forest": CorpusKind(
        _needs_n,
        lambda c, i: {
            "n": c.n, "m": c.m, "seed": instance_seed(c.seed, i), "split": c.split
        },
        lambda p: gen_random_forest(p["n"], p["split"], p["seed"], p["m"]),
        random=True,
    ),
    "random-girth5": CorpusKind(
        _needs_n,
        lambda c, i: {"n": c.n, "m": c.m, "seed": instance_seed(c.seed, i)},
        lambda p: gen_random_girth5(p["n"], p["m"], p["seed"]),
        random=True,
    ),
    "extremal-Ft": CorpusKind(  # t steps upward from the config's t
        _needs_t, lambda c, i: {"t": c.t + i}, lambda p: build_extremal_forest(p["t"])
    ),
    "star": CorpusKind(_needs_n, lambda c, i: {"n": c.n}, lambda p: build_star(p["n"])),
    "path": CorpusKind(_needs_n, lambda c, i: {"n": c.n}, lambda p: build_path(p["n"])),
    "star-union": CorpusKind(
        _needs_sizes,
        lambda c, i: {"sizes": c.sizes},
        lambda p: build_star_union(p["sizes"]),
    ),
}


@dataclass(frozen=True)
class GeneratorConfig:
    """One corpus line: a kind from ``CORPUS_KINDS``, its parameters, a seed,
    and a count of instances."""

    kind: str
    n: int | None = None
    m: int | None = None
    t: int | None = None
    sizes: tuple[int, ...] | None = None
    seed: int = 0
    count: int = 1
    split: float = 0.15

    def __post_init__(self):
        if self.kind not in CORPUS_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        named = [(k, getattr(self, k)) for k in ("seed", "count", "n", "m", "t")]
        named += [("sizes entry", size) for size in self.sizes or ()]
        for key, val in named:  # not isinstance: bool is an int
            if type(val) is not int and not (val is None and key in ("n", "m", "t")):
                raise ValueError(f"{key} must be an integer")
        if any(val is not None and val < 0 for _, val in named[2:]):  # past seed, count
            raise ValueError("n, m, t and sizes entries must be non-negative")
        if type(self.split) not in (int, float):
            raise ValueError("split must be a number")
        if not 0 <= self.split <= 1:  # false for NaN too
            raise ValueError("split must be in [0, 1]")
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.count > MAX_COUNT:
            raise ValueError(f"count {self.count} is over {MAX_COUNT}")
        CORPUS_KINDS[self.kind].require(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "sizes" in data and data["sizes"] is not None:
            data = dict(data)
            data["sizes"] = tuple(data["sizes"])
        return cls(**data)


@dataclass(frozen=True)
class InstanceSpec:
    index: int
    kind: str
    params: dict

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.index}:{self.kind}({inner})"


def expand_corpus(configs: list[GeneratorConfig]) -> list[InstanceSpec]:
    """One spec per instance, numbered across the corpus; its params come
    from the kind's entry in ``CORPUS_KINDS``."""
    specs: list[InstanceSpec] = []
    for config in configs:
        for i in range(config.count):
            params = CORPUS_KINDS[config.kind].params(config, i)
            specs.append(InstanceSpec(len(specs), config.kind, params))
    return specs


def realize(spec: InstanceSpec) -> Graph:
    return CORPUS_KINDS[spec.kind].build(spec.params)
