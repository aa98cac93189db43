import hashlib
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeq import (
    GeneratorConfig,
    GirthSaturationError,
    Graph,
    SplitMix64,
    gen_random_forest,
    gen_random_girth5,
    girth,
    instance_seed,
    is_forest,
    parse_graph,
)
from degeq.extremal import (
    build_extremal_forest,
    build_path,
    build_star,
    build_star_union,
)
from degeq.generators import MAX_COUNT, MAX_GIRTH_PAIRS, _ball_keeper
from degeq.graph import MAX_ORDER
from degeq.prng import _BLOCK, _GAMMA, _MASK, mix64

from reference import randrange_shuffle, unmix64


def bfs_within_distance(adj, source, target, cap):
    """The breadth-first check the generator used before its ball test."""
    if source == target:
        return True
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        d = dist[u] + 1
        if d > cap:
            continue
        for w in adj[u]:
            if w == target:
                return True
            if w not in dist:
                dist[w] = d
                queue.append(w)
    return False


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 0 of the standard algorithm
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_determinism_and_split(self):
        a, b = SplitMix64(123), SplitMix64(123)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
        child = a.split()
        assert child.next_u64() != a.next_u64()

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, 1000))
    def test_randrange_in_bounds(self, seed, bound):
        rng = SplitMix64(seed)
        for _ in range(20):
            assert 0 <= rng.randrange(bound) < bound

    def test_shuffle_and_sample_deterministic(self):
        items = list(range(10))
        SplitMix64(7).shuffle(items)
        again = list(range(10))
        SplitMix64(7).shuffle(again)
        assert items == again
        assert SplitMix64(9).sample(20, 5) == SplitMix64(9).sample(20, 5)

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 10, 100, 1000])
    def test_shuffle_matches_randrange_fisher_yates(self, size):
        for seed in (0, 1, 2**64 - 1, 0x9E3779B97F4A7C15):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            items, expected = list(range(size)), list(range(size))
            rng.shuffle(items)
            randrange_shuffle(ref, expected)
            assert items == expected
            assert rng.state == ref.state

    @pytest.mark.parametrize("size", [3, 10, 100])
    def test_rejected_draw_is_drawn_again(self, size):
        # the next draw is _MASK, the top value, which every bound that is
        # not a power of two rejects: one more draw than positions or calls
        start = (unmix64(_MASK) - _GAMMA) & _MASK
        assert all(unmix64(mix64(x)) == x for x in (0, 1, start, _MASK, _GAMMA))
        rng, ref = SplitMix64(start), SplitMix64(start)
        items, expected = list(range(size)), list(range(size))
        rng.shuffle(items)
        randrange_shuffle(ref, expected)
        assert items == expected
        assert rng.state == ref.state == (start + size * _GAMMA) & _MASK
        rng = SplitMix64(start)
        assert rng.randrange(size) == mix64(start + 2 * _GAMMA) % size
        assert rng.state == (start + 2 * _GAMMA) & _MASK

    @staticmethod
    def assert_shuffle_is_reference(seed, size):
        """Same order and same final state as one randrange per position."""
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        items, expected = list(range(size)), list(range(size))
        rng.shuffle(items)
        randrange_shuffle(ref, expected)
        assert items == expected
        assert rng.state == ref.state

    @pytest.mark.parametrize(
        "size, draw",
        [
            (1000, 1),  # the first draw of the only block
            (1000, 5),
            (1000, 500),  # mid-block
            (2 * _BLOCK + 10, _BLOCK),  # the last draw of the first block
            (2 * _BLOCK + 10, _BLOCK + 5),  # in the second block
            (2 * _BLOCK + 10, 2 * _BLOCK + 8),  # the last draw of the second block
            (_BLOCK + 5, _BLOCK + 4),  # position 1: bound 2 accepts _MASK
        ],
    )
    def test_rejected_draw_anywhere(self, size, draw):
        # the draw-th draw is _MASK: a rejection wherever its bound is not a
        # power of two, and above the block's fast-accept threshold anywhere
        start = (unmix64(_MASK) - draw * _GAMMA) & _MASK
        rng = SplitMix64(start)
        for _ in range(draw):
            value = rng.next_u64()
        assert value == _MASK
        self.assert_shuffle_is_reference(start, size)

    @pytest.mark.parametrize(
        "size, draw", [(1000, 1), (1000, 500), (2 * _BLOCK + 10, _BLOCK + 5)]
    )
    def test_least_rejected_draw(self, size, draw):
        # 2**64 - 2**64 % bound is the least draw its bound rejects, and a
        # position i < 2**64 % bound later in the same block would accept it
        bound = size - draw + 1
        least = (1 << 64) - (1 << 64) % bound
        assert least < _MASK - 10
        start = (unmix64(least) - draw * _GAMMA) & _MASK
        self.assert_shuffle_is_reference(start, size)

    @pytest.mark.parametrize(
        "size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2, 3 * _BLOCK + 5]
    )
    def test_block_edges(self, size):
        for seed in (0, 7, 2**64 - 1):
            self.assert_shuffle_is_reference(seed, size)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 300))
    def test_shuffle_matches_reference_on_any_seed(self, seed, size):
        self.assert_shuffle_is_reference(seed, size)

    def test_instance_seed_spread(self):
        seeds = {instance_seed(42, i) for i in range(100)}
        assert len(seeds) == 100


class TestForestGenerator:
    def test_single_vertex(self):
        g = gen_random_forest(1, seed=5)
        assert (g.n, g.m) == (1, 0)

    def test_determinism(self):
        assert gen_random_forest(5, seed=77) == gen_random_forest(5, seed=77)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_always_a_forest(self, n, seed):
        assert is_forest(gen_random_forest(n, split_prob=0.3, seed=seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=30), st.data())
    def test_exact_edge_target(self, n, data):
        m = data.draw(st.integers(min_value=0, max_value=n - 1))
        seed = data.draw(st.integers(min_value=0, max_value=2**32))
        g = gen_random_forest(n, seed=seed, m=m)
        assert g.m == m and is_forest(g)

    def test_bad_edge_target(self):
        with pytest.raises(ValueError):
            gen_random_forest(4, m=4)


class TestGirth5Generator:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_girth_invariant(self, n, seed):
        g = gen_random_girth5(n, None, seed=seed)
        assert girth(g) >= 5

    def test_determinism(self):
        assert gen_random_girth5(12, 10, seed=3) == gen_random_girth5(12, 10, seed=3)

    def test_moore_extremal_density_reachable(self):
        # 15 = 3n/2 edges at n=10 is the girth-5 maximum; seed found by scan
        g = gen_random_girth5(10, 15, seed=19)
        assert g.m == 15
        assert girth(g) == 5
        assert set(g.degrees()) == {3}

    def test_saturation_reported_with_achieved_count(self):
        with pytest.raises(GirthSaturationError) as err:
            gen_random_girth5(5, 10, seed=0)
        assert err.value.target == 10
        assert err.value.achieved < 10

    def test_negative_edge_target_refused(self):
        # m < 0 used to fall through to the saturated graph
        with pytest.raises(ValueError, match="non-negative"):
            gen_random_girth5(6, -1, seed=0)

    def test_higher_girth_option(self):
        g = gen_random_girth5(16, None, seed=2, min_girth=7)
        assert girth(g) >= 7

    def test_graph_is_the_one_from_edges_builds(self):
        # the graph is built from the ball keeper's adjacency lists, with no
        # edge re-validated: it must equal the graph of its own edge list;
        # likewise a random forest's, built from its parent attachments
        for n in range(1, 30):
            for min_girth in range(3, 10):
                for m in (None, 0, n):
                    try:
                        g = gen_random_girth5(n, m, seed=n + min_girth, min_girth=min_girth)
                    except GirthSaturationError:
                        continue
                    assert g == Graph.from_edges(n, g.edges()), (n, min_girth, m)
            for m in (None, 0, n // 2, n - 1):
                g = gen_random_forest(n, seed=n, m=m)
                assert g == Graph.from_edges(n, g.edges()), (n, m)
        # the families, and parse_graph from edge lines in any order
        for n in range(1, 30):
            edges = gen_random_girth5(n, None, seed=n).edges()
            lines = [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in reversed(edges))]
            for g in (
                build_star(n),
                build_path(n),
                build_star_union([n % 3, 0, n // 2]),
                build_extremal_forest(n % 9 + 1),
                parse_graph(lines),
            ):
                assert g == Graph.from_edges(g.n, g.edges()), n

    def test_no_edge_list_is_built(self, monkeypatch):
        calls = []
        from_edges = Graph.from_edges.__func__

        def spy(cls, n, edges):
            calls.append(n)
            return from_edges(cls, n, edges)

        monkeypatch.setattr(Graph, "from_edges", classmethod(spy))
        for seed in range(4):
            gen_random_girth5(20, None, seed)
            gen_random_girth5(20, 10, seed, min_girth=7)
            gen_random_forest(20, seed=seed)
            gen_random_forest(20, seed=seed, m=10)
        build_star(20)
        build_path(20)
        build_star_union([3, 0, 2])
        build_extremal_forest(6)
        parse_graph("4 3\n2 3\n1 2\n0 1\n")
        assert calls == []

    def test_min_girth_past_the_order_is_clamped(self):
        # no distance in an n-vertex graph exceeds n - 1, so every min_girth
        # above n + 1 tests the same pairs as n + 1 and keeps no more balls
        start = time.perf_counter()
        for n in (2, 3, 12, 30):
            for m in (None, n // 2):
                huge = gen_random_girth5(n, m, seed=n, min_girth=10**9)
                assert huge == gen_random_girth5(n, m, seed=n, min_girth=n + 1)
        assert time.perf_counter() - start < 1.0

    def test_order_limits_sit_past_2000_vertices_and_a_million(self):
        # the refusals themselves, at these orders and far past them, are
        # tested through gen and verify
        assert 2000 * 1999 // 2 <= MAX_GIRTH_PAIRS < 2001 * 2000 // 2
        with pytest.raises(ValueError, match="over 2000000 vertex pairs"):
            gen_random_girth5(2001, 0)
        with pytest.raises(ValueError, match="random forest on 1000001 vertices"):
            gen_random_forest(MAX_ORDER + 1, m=0)

    def test_inserted_edges_keep_every_ball_exact(self):
        # sequences that close short cycles, forests and girth-5 graphs, one
        # edge at a time at caps 0..6 (girth 2..8): after each insertion every
        # ball of radius r is the breadth-first ball of radius r, and the
        # balls of radius ceil(cap/2) and floor(cap/2) meet iff dist <= cap
        for seed in range(20):
            n = 4 + seed % 12
            rng = SplitMix64(seed)
            dense = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(dense)
            sequences = [
                dense[: n * (1 + seed % 3) // 2 + 2],
                gen_random_girth5(n, None, seed=seed).edges(),
                gen_random_forest(n, split_prob=0.2, seed=seed).edges(),
            ]
            for edges in sequences:
                keepers = [_ball_keeper(n, (cap + 1) // 2) for cap in range(7)]
                adj = keepers[0][0]
                for u, v in edges:
                    for _, _, insert in keepers:
                        insert(u, v)
                    bfs_balls = [
                        [
                            sum(1 << y for y in range(n) if bfs_within_distance(adj, x, y, r))
                            for x in range(n)
                        ]
                        for r in range(4)
                    ]
                    a, b = rng.randrange(n), rng.randrange(n)
                    for cap, (own_adj, balls, _) in enumerate(keepers):
                        assert own_adj == adj
                        assert balls == bfs_balls[: len(balls)], (seed, edges, cap)
                        meet = balls[(cap + 1) // 2][a] & balls[cap // 2][b]
                        assert bool(meet) == bfs_within_distance(adj, a, b, cap)


# sha256 of every gen_random_girth5(n, m, seed, min_girth) edge list, or its
# GirthSaturationError (target, achieved), one line per case; pinned on the
# set-based breadth-first distance test that the bitmask balls replaced
GIRTH_SIZES = [*range(1, 30), 40, 50, 55, 60, 80, 120]
GIRTH_DIGEST = "b3b451a7a22c064cfd056ae46ecc9012ca4f3c07d98aa552d2f496b65e9f1937"


def test_girth_generator_digest():
    digest = hashlib.sha256()
    for n in GIRTH_SIZES:
        for seed in range(8):
            for min_girth in range(3, 10):
                for m in (None, n, 2 * n):
                    try:
                        out = gen_random_girth5(n, m, seed, min_girth).edges()
                    except GirthSaturationError as err:
                        out = ("saturated", err.target, err.achieved)
                    digest.update(f"{n} {seed} {min_girth} {m}: {out}\n".encode())
    assert digest.hexdigest() == GIRTH_DIGEST


NEGATIVE = "n, m, t and sizes entries must be non-negative"


class TestGeneratorConfig:
    def test_roundtrip(self):
        config = GeneratorConfig.from_dict(
            {"kind": "random-forest", "n": 10, "seed": 4, "count": 3}
        )
        assert config.n == 10 and config.count == 3

    def test_count_limit_is_a_million_instances(self):
        # checked on the config, so a refused count is never expanded
        assert MAX_COUNT == 10**6
        assert GeneratorConfig("star", n=3, count=MAX_COUNT).count == MAX_COUNT
        with pytest.raises(ValueError, match="^count 1000001 is over 1000000$"):
            GeneratorConfig("star", n=3, count=MAX_COUNT + 1)

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "nonsense", "n": 3},
            {"kind": "random-forest"},
            {"kind": "extremal-Ft"},
            {"kind": "star-union"},
            {"kind": "random-forest", "n": 5, "bogus": 1},
        ],
    )
    def test_rejects_bad_configs(self, data):
        with pytest.raises(ValueError):
            GeneratorConfig.from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"kind": "nonsense"}, "unknown generator kind 'nonsense'"),
            ({"kind": "path", "n": 3, "count": 0}, "count must be positive"),
            ({"kind": "star"}, "kind star requires n >= 1"),
            ({"kind": "random-girth5", "n": 0}, "kind random-girth5 requires n >= 1"),
            ({"kind": "extremal-Ft", "t": 0}, "extremal-Ft requires t >= 1"),
            ({"kind": "star-union", "sizes": []}, "star-union requires a sizes list"),
            ({"kind": "random-forest", "n": 4.5}, "n must be an integer"),
            ({"kind": "random-girth5", "n": 10, "m": 2.0}, "m must be an integer"),
            ({"kind": "extremal-Ft", "t": True}, "t must be an integer"),
            ({"kind": "star-union", "sizes": [1.5, 2]}, "sizes entry must be an integer"),
            ({"kind": "random-forest", "n": 10, "split": "x"}, "split must be a number"),
            ({"kind": "random-forest", "n": 10, "split": False}, "split must be a number"),
            ({"kind": "random-forest", "n": 10, "split": 1.5}, "split must be in [0, 1]"),
            ({"kind": "random-forest", "n": 10, "split": float("nan")}, "split must be in [0, 1]"),
            ({"kind": "star-union", "sizes": [2, -1]}, NEGATIVE),
            ({"kind": "random-girth5", "n": 10, "m": -1}, NEGATIVE),
            ({"kind": "random-forest", "n": 10, "m": -1}, NEGATIVE),
            ({"kind": "star", "n": -2}, NEGATIVE),
            ({"kind": "extremal-Ft", "t": -1}, NEGATIVE),
            ({"kind": "path", "n": 3, "count": 10**6 + 1}, "count 1000001 is over 1000000"),
            ({"kind": "star", "n": 3, "count": 10**20}, f"count {10**20} is over 1000000"),
        ],
    )
    def test_refusal_messages(self, data, message):
        with pytest.raises(ValueError) as info:
            GeneratorConfig.from_dict(data)
        assert str(info.value) == message
