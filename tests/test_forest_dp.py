"""Tests of the forest solver: its values and certificates against the
exhaustive oracle, the counting pass and the deletion bound against subset
sweeps, and its invariances."""

import hashlib
import importlib
import json
import time
from bisect import bisect_left
from dataclasses import replace
from itertools import combinations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degeq
from conftest import all_forests, nx_components, run_python
from degeq import (
    Graph,
    a_sequence,
    brute_force_fk,
    build_extremal_forest,
    build_star,
    build_star_union,
    check_fk_condition,
    compute_fk_forest,
    gen_random_forest,
    to_edgelist,
    validate_certificate,
)
from degeq import certificates as certificates_module
from degeq import forest_dp
from degeq import graph as graph_module
from degeq.certificates import make_certificate
from degeq.forest_dp import (
    DeadlineExceeded,
    NotAForestError,
    _best_score,
    _build_skeleton,
    _k_deletions,
    _min_deletions,
    _pass_vectors,
    _Skeleton,
    _vertex_vectors,
)
from degeq.graph import degree_profile, parse_graph
from degeq.prng import SplitMix64, instance_seed
from reference import (
    brute_force_subforest,
    decode_score,
    remove_vertices,
    subforest_sweep,
)


def at(vec, j, n):
    """Kept order of entry j of a j-vector in an n-vertex pass, or None when
    that entry is infeasible."""
    if vec is None or j >= len(vec) or vec[j] < 0:
        return None
    return vec[j] >> n


def leaf_triple(n, v, k, delta):
    """Leaf v's triple in an n-vertex pass, which the pass itself never builds:
    ``_vertex_vectors`` with no children."""
    return _vertex_vectors(1 << (n - 1 - v), (), 1 << n, k, delta)


def childless(bit, gain, delta):
    """A leaf's (deleted, kept with the parent edge, free) vectors, read off
    the definition: kept alone it has degree 0, kept with its parent degree
    1, and it is counted when that degree is delta."""
    up = None if delta == 0 else [gain, gain] if delta == 1 else [gain]
    free = [gain, gain] if delta == 0 else [gain]
    return [bit], up, free


class TestLeafBase:
    # a one-vertex pass: deletion bit 1, gain 2, so an entry's order is its
    # score >> 1; ``special`` reads entry j = 1, the vertex counted at delta
    @pytest.mark.parametrize(
        "special, delta, expected",
        [
            (False, 0, (0, None, 1)),
            (False, 1, (0, 1, 1)),
            (False, 5, (0, 1, 1)),
            (True, 0, (None, None, 1)),
            (True, 1, (None, 1, None)),
            (True, 2, (None, None, None)),
            (True, 3, (None, None, None)),
        ],
    )
    def test_base_cases(self, special, delta, expected):
        vectors = _vertex_vectors(1, (), 2, 2, delta)
        assert tuple(at(vec, int(special), 1) for vec in vectors) == expected

    @pytest.mark.parametrize("special", [False, True])
    @pytest.mark.parametrize("delta", [0, 1, 2, 4])
    def test_combine_with_no_children_reproduces_base(self, special, delta):
        # a pass builds no leaf triple; each leaf's own, built with no
        # children, is the childless vectors for its bit
        star = build_star(5)
        n = star.n
        vectors = _pass_vectors(counting_skeleton(star), n, 2, delta)
        base = _vertex_vectors(1, (), 2, 2, delta)
        for leaf in range(1, n):
            assert vectors[leaf] is None
            triple = leaf_triple(n, leaf, 2, delta)
            expected = childless(1 << (n - 1 - leaf), 1 << n, delta)
            assert list(triple) == list(expected)
            got = [at(vec, int(special), n) for vec in triple]
            assert got == [at(vec, int(special), 1) for vec in base]


class TestComputeFkForest:
    @pytest.mark.parametrize(
        "builder, k, expected",
        [
            (lambda: build_star_union([3, 1]), 3, 2),
            (lambda: build_star_union([5, 2, 2]), 3, 3),
            (lambda: parse_graph("4 3\n0 1\n1 2\n2 3"), 3, 2),
            (lambda: Graph.from_edges(5, []), 3, 0),
        ],
    )
    def test_fixtures(self, builder, k, expected):
        forest = builder()
        value, cert = compute_fk_forest(forest, k)
        assert value == expected
        assert validate_certificate(forest, cert, k)
        assert len(cert.x) == value

    def test_rejects_non_forest(self, cycle5):
        with pytest.raises(ValueError):
            compute_fk_forest(cycle5, 2)

    def test_n_or_more_edges_refused_before_rooting(self, cycle5, monkeypatch):
        # a forest on n >= 1 vertices has at most n - 1 edges, so is_forest
        # refuses C_5 and the Heawood graph with no 2-core peel, and the
        # forest is never rooted
        def unexpected(graph):
            raise AssertionError("forest rooted or peeled")

        monkeypatch.setattr(forest_dp, "_build_skeleton", unexpected)
        monkeypatch.setattr(graph_module, "_two_core", unexpected)
        ring = [(i, (i + 1) % 14) for i in range(14)]
        heawood = Graph.from_edges(14, ring + [(i, (i + 5) % 14) for i in range(0, 14, 2)])
        for graph in (cycle5, heawood):
            with pytest.raises(NotAForestError, match="input graph is not a forest"):
                compute_fk_forest(graph, 2)

    @pytest.mark.parametrize(
        "graph",
        [
            Graph.from_edges(6, [(0, 1), (3, 4), (4, 5), (3, 5)]),  # K_2 + C_3
            Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
        ],
        ids=["K2+C3", "P3+C4"],
    )
    def test_rejects_cycle_in_a_later_component(self, graph):
        # the 2-core peel strips the tree component and leaves the cycle,
        # which m < n alone does not show
        for k in (2, 3):
            with pytest.raises(ValueError, match="input graph is not a forest"):
                compute_fk_forest(graph, k)

    def test_rejects_small_k(self, path4):
        with pytest.raises(ValueError):
            compute_fk_forest(path4, 1)

    def test_order_below_k(self):
        value, cert = compute_fk_forest(parse_graph("2 1\n0 1"), 3)
        assert value == 0
        assert cert.order_below_k

    def test_order_equal_k_regular(self):
        value, _ = compute_fk_forest(Graph.from_edges(3, []), 3)
        assert value == 0

    def test_order_equal_k_irregular_deletes_vertex_zero(self):
        # the search's escape, deleting vertex 0, is the tree solver's
        # answer, and says so
        value, cert = compute_fk_forest(parse_graph("3 1\n0 1"), 3)
        assert value == 1
        assert cert.x == (0,)
        assert cert.method == "dp"

    def test_upper_bound_invariant(self):
        for seed in range(25):
            n = 2 + seed % 9
            forest = gen_random_forest(n, split_prob=0.4, seed=seed)
            for k in (2, 3):
                value, _ = compute_fk_forest(forest, k)
                assert value <= max(forest.n - k + 1, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=11),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([2, 3]),
    )
    def test_oracle_equivalence(self, n, seed, k):
        forest = gen_random_forest(n, split_prob=0.3, seed=seed)
        dp_value, dp_cert = compute_fk_forest(forest, k)
        bf_value, _ = brute_force_fk(forest, k)
        assert dp_value == bf_value
        assert validate_certificate(forest, dp_cert, k)
        assert check_fk_condition(forest, dp_cert.x, k)

    def test_extremal_family_values(self):
        for t in range(2, 6):
            forest = build_extremal_forest(t)
            value, _ = compute_fk_forest(forest, 3)
            assert value == t

    def test_extremal_family_smallest_member(self):
        # The two-vertex member already has order below 3, so no deletion is
        # needed; the oracle agrees (the t-deletions pattern starts at t = 2).
        forest = build_extremal_forest(1)
        assert compute_fk_forest(forest, 3)[0] == 0
        assert brute_force_fk(forest, 3)[0] == 0

    def test_jobs_bit_identical(self):
        # a solve depends only on the forest: repeating it, or solving a copy
        # parsed back from its edge list, gives the same value and certificate
        forest = gen_random_forest(24, split_prob=0.25, seed=0)
        copy = parse_graph(to_edgelist(forest))
        for k in (2, 3):
            # f_k >= 1, so no call stops at the already-equalized exit
            assert not check_fk_condition(forest, (), k)
            first = compute_fk_forest(forest, k)
            assert compute_fk_forest(forest, k) == first
            assert compute_fk_forest(copy, k) == first

    def test_winner_is_lexicographically_least_among_optima(self):
        # re-derive the certificate: the first deletion set of the optimal
        # size, in lexicographic order, that leaves the forest equalized
        for seed in (3, 8, 21, 34):
            forest = gen_random_forest(9, split_prob=0.35, seed=seed)
            for k in (2, 3):
                value, cert = compute_fk_forest(forest, k)
                least = next(
                    x
                    for x in combinations(range(forest.n), value)
                    if check_fk_condition(forest, x, k)
                )
                assert cert.x == least

    def test_tie_across_passes_keeps_least_set(self, monkeypatch, walk_only):
        # A claw plus an edge, at k = 3 (f_3 = 2, so the walk runs).
        # Deleting leaves 1 and 2 leaves 0, 3, 4 and 5 at degree 1, and
        # deleting 0 and 4 leaves four isolated vertices: the delta-1 pass
        # finds (1, 2) first and the delta-0 pass must replace it with the
        # lesser (0, 4) at the same order.
        forest = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
        assert not any(check_fk_condition(forest, (v,), 3) for v in range(6))
        assert [x for x in combinations(range(6), 2)
                if check_fk_condition(forest, x, 3)][:3] == [(0, 4), (0, 5), (1, 2)]
        passes = []
        counting_pass = forest_dp._best_score

        def spy(skeleton, n, k, delta):
            score = counting_pass(skeleton, n, k, delta)
            passes.append((delta, decode_score(score, n)))
            return score

        monkeypatch.setattr(forest_dp, "_best_score", spy)
        value, cert = compute_fk_forest(forest, 3)
        assert passes == [(1, (4, (1, 2))), (0, (4, (0, 4)))]
        assert (value, cert.x) == (2, (0, 4))
        assert replace(cert, method="brute") == brute_force_fk(forest, 3)[1]


@st.composite
def labelled_forests(draw, max_n=10):
    """Any labelled forest on at most ``max_n`` vertices: each vertex after
    the first takes an earlier parent or none, then the labels are permuted."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    label = draw(st.permutations(range(n)))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=v - 1))
        if parent >= 0:
            edges.append((label[parent], label[v]))
    return Graph.from_edges(n, edges)


def assert_oracle_answer(forest, k):
    """The solver gives the oracle's value and, but for the method tag, its
    certificate: the lexicographically least minimum deletion set."""
    value, cert = compute_fk_forest(forest, k)
    bf_value, bf_cert = brute_force_fk(forest, k)
    assert value == bf_value, k
    assert replace(cert, method="brute") == bf_cert, k
    assert validate_certificate(forest, cert, k)


@pytest.mark.usefixtures("walk_only")
class TestCountingSolverDifferential:
    @settings(max_examples=120, deadline=None)
    @given(labelled_forests(), st.integers(min_value=2, max_value=5))
    def test_matches_oracle_and_least_pair(self, forest, k):
        assert_oracle_answer(forest, k)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_small_forest_gets_the_oracles_certificate(self, n):
        for forest in all_forests(n):
            for k in range(2, 6):
                assert_oracle_answer(forest, k)

    def test_jobs_never_start_a_process_pool(self, monkeypatch):
        import concurrent.futures
        import concurrent.futures.process

        from degeq import forest_dp

        def refuse(*args, **kwargs):
            raise AssertionError("the forest solver started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(forest_dp, "ProcessPoolExecutor", refuse, raising=False)
        forest = build_extremal_forest(5)  # f_3 = f_4 = 5: no early exit
        for k in (3, 4):
            value, cert = compute_fk_forest(forest, k)
            assert value == 5
            assert validate_certificate(forest, cert, k)

    def test_order_equal_k_above_oracle_limit(self):
        # twenty vertices, one edge, k = 20: one deletion leaves order 19 < k
        forest = Graph.from_edges(20, [(0, 1)])
        value, cert = compute_fk_forest(forest, 20)
        assert value == 1
        assert cert.method == "dp"
        assert validate_certificate(forest, cert, 20)

    def test_extremal_family_values_eight_to_thirty(self):
        # Lemma 2: f_3(F_t) = t
        for t in range(8, 31):
            assert compute_fk_forest(build_extremal_forest(t), 3)[0] == t


def test_public_names_resolve():
    for name in degeq.__all__:
        # each name resolves, lazily, to the object its home module defines
        home = importlib.import_module(f"degeq.{degeq._HOME[name]}")
        assert getattr(degeq, name) is getattr(home, name), name
    namespace = {}
    exec("from degeq import *", namespace)
    assert set(degeq.__all__) <= set(namespace)
    # the exhaustive references and the relabelled subgraph live in
    # tests/reference.py
    for name in ("brute_force_subforest", "brute_force_subforest_all", "remove_vertices"):
        assert not hasattr(degeq, name), name


def counting_skeleton(forest):
    return _build_skeleton(forest)


def pass_pair(skel, n, k, delta):
    """One counting pass read as (order, X), or None when infeasible."""
    return decode_score(_best_score(skel, n, k, delta), n)


def exhaustive_min_deletions(forest):
    """Least |X| such that G - X has maximum degree <= delta, for every
    delta from 0 to the maximum degree, over all 2^n vertex subsets."""
    n = forest.n
    nbrs = [sum(1 << w for w in forest.adj[v]) for v in range(n)]
    best = [n] * (max(map(len, forest.adj), default=0) + 1)
    for mask in range(1 << n):
        live = [v for v in range(n) if not mask >> v & 1]
        top = max(((nbrs[v] & ~mask).bit_count() for v in live), default=0)
        for delta in range(top, len(best)):
            best[delta] = min(best[delta], n - len(live))
    return best


def reference_fk_forest(forest, k):
    """The solver without the bound: every delta scored, and the least
    deletion set kept."""
    n = forest.n
    deltas = degree_profile(forest).deltas
    if n < k or deltas[0] == deltas[k - 1]:
        return 0, make_certificate(forest, (), k, "dp")
    if n == k:
        return 1, make_certificate(forest, (0,), k, "dp")
    skel = counting_skeleton(forest)
    best = tuple(range(n - k + 1))  # keep k - 1 vertices
    for delta in range(deltas[k - 1] + 1):
        found = pass_pair(skel, n, k, delta)
        if found is not None and (len(found[1]), found[1]) < (len(best), best):
            best = found[1]
    return len(best), make_certificate(forest, best, k, "dp")


def double_star(a, b):
    """Adjacent centres 0 and 1 with a and b leaves."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + j) for j in range(b)]
    return Graph.from_edges(2 + a + b, edges)


def spider(legs):
    """Centre 0 with one path of each given length hanging from it."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph.from_edges(n, edges)


def caterpillar(leaves):
    """A spine path with ``leaves[i]`` leaves on its i-th vertex."""
    spine = len(leaves)
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i, count in enumerate(leaves):
        edges.extend((i, n + j) for j in range(count))
        n += count
    return Graph.from_edges(n, edges)


# the optimum is reached at several deltas on many of these, so a prune that
# skips a delta able to tie it can miss the least deletion set
TIE_HEAVY_SHAPES = [
    *(
        build_star_union(s)
        for s in ([3, 3, 1], [4, 4, 2], [5, 5, 5], [6, 5, 5], [4, 3, 3, 3],
                  [2, 2, 2, 2], [7, 7, 6, 1], [4, 3, 1], [6, 2, 2])
    ),
    *(double_star(a, b) for a, b in ((2, 2), (3, 3), (4, 3), (5, 5), (6, 2))),
    *(spider(legs) for legs in ((1, 1, 2), (2, 2, 2), (1, 2, 3, 3), (2, 2, 2, 2, 1))),
    *(
        caterpillar(c)
        for c in ((2, 2, 2), (3, 0, 3), (1, 3, 3, 1), (2, 1, 2, 1, 2),
                  (0, 0, 1, 1), (0, 2, 0, 1))
    ),
]


def golden_forests():
    """400 seeded labelled forests: n from 2 to 30, split 0, 0.1 and 0.3, and
    shuffled labels, so that the least deletion set is seldom the lowest
    vertex ids."""
    forests = []
    for i in range(400):
        n = 2 + i % 29
        split = (0.0, 0.1, 0.3)[i % 3]
        base = gen_random_forest(n, split_prob=split, seed=instance_seed(909, i))
        label = list(range(n))
        SplitMix64(instance_seed(910, i)).shuffle(label)
        edges = [(label[u], label[v]) for u, v in base.edges()]
        forests.append(Graph.from_edges(n, edges))
    return forests


# sha256 of every repr(compute_fk_forest(F, k)) for the forests above and
# k = 2..5, one per line.  It pins each certificate: the lexicographically
# least minimum deletion set, the oracle's.
GOLDEN_DIGEST = "348bfbd8e000d0f6314d1f085e2b2636d699f180ba82bff7912ddce0117557ad"


def test_golden_certificate_digest():
    digest = hashlib.sha256()
    for forest in golden_forests():
        for k in range(2, 6):
            digest.update(repr(compute_fk_forest(forest, k)).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_DIGEST


def relabelled(graph, seed):
    """``graph`` with its ids permuted by ``SplitMix64(seed).shuffle``."""
    label = list(range(graph.n))
    SplitMix64(seed).shuffle(label)
    return Graph.from_edges(graph.n, [(label[u], label[v]) for u, v in graph.edges()])


def scale_cases():
    """(forest, k) pairs with stars of tens to thousands of leaves, far above
    the oracle's reach: F_16 to F_30, two wide star unions, and four
    relabelled unions at every k from 2 to 5."""
    for t in range(16, 31):
        yield build_extremal_forest(t), 3
    yield build_star_union([900, 700, 700, 500, 300]), 3
    yield build_star_union([2000, 1500, 1500, 800]), 4
    for s in range(4):
        union = relabelled(build_star_union([60 - 7 * s, 45, 45, 30 + s, 12, 3]), 77 + s)
        for k in range(2, 6):
            yield union, k


# sha256 of every repr(compute_fk_forest(F, k)) for the cases above, one per
# line, as a fold over every count of kept leaves gives them.  It pins each
# certificate where the fold tries only two counts per row, at stars of up to
# 2,000 leaves
SCALE_DIGEST = "d789a96e8f010ecf6b6768a7e3308b859dbfb9d09e9d397369e35133267fcff2"


def test_scale_certificate_digest():
    digest = hashlib.sha256()
    for forest, k in scale_cases():
        digest.update(repr(compute_fk_forest(forest, k)).encode() + b"\n")
    assert digest.hexdigest() == SCALE_DIGEST


class TestCombine:
    def test_single_special_child(self):
        # K_2 at delta = 1: the kept child counts, and so does its parent
        n, gain = 2, 4
        leaf = childless(1, gain, 1)
        drop, up, free = _vertex_vectors(2, [leaf], gain, 2, 1)
        assert at(free, 2, n) == 2
        assert at(up, 2, n) is None  # no room left for a parent edge
        assert at(up, 1, n) == 1  # the child deleted

    def test_two_nonspecial_leaves_delta0(self):
        n, gain = 3, 8
        leaves = [childless(1 << (n - 1 - v), gain, 0) for v in (1, 2)]
        _, _, free = _vertex_vectors(4, leaves, gain, 2, 0)
        assert at(free, 0, n) == 2
        # confirmed against the exhaustive oracle on the 3-vertex star
        assert brute_force_subforest(build_star(3), (), 0) == 2

    def test_partition_orders_by_pair_key(self):
        # the score orders subforests by order, then by the lesser deletion
        # set: on the 3-vertex star at delta = 1, {0, 1} and {0, 2} tie
        star = build_star(3)
        _, _, free = _pass_vectors(counting_skeleton(star), 3, 2, 1)[0]
        assert free[2] == 2 * 8 + (1 << (3 - 1 - 1))
        assert pass_pair(counting_skeleton(star), 3, 2, 1) == (2, (1,))

    def test_must_keep_child_sorts_first(self):
        # K_1,4 at delta = 1: deleting the centre keeps four vertices, but
        # none at degree 1, so two counted vertices force the centre kept
        star = build_star(5)
        skel = counting_skeleton(star)
        _, _, free = _pass_vectors(skel, 5, 2, 1)[0]
        assert at(free, 0, 5) == 4
        assert at(free, 2, 5) == 2
        assert pass_pair(skel, 5, 0, 1) == (4, (0,))
        assert pass_pair(skel, 5, 2, 1) == (2, (1, 2, 3))

    @settings(max_examples=60, deadline=None)
    @given(
        labelled_forests(max_n=12),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_permuting_children_never_changes_values(self, forest, k, seed):
        # scores order every subforest totally, so the max-plus merges of a
        # vertex's children give the same pass in any child order
        skel = counting_skeleton(forest)
        children = [list(kids) for kids in skel.children]
        rng = SplitMix64(seed)
        for kids in children:
            rng.shuffle(kids)
        shuffled = replace(skel, children=tuple(map(tuple, children)))
        for delta in range(max(map(len, forest.adj), default=0) + 1):
            expected = pass_pair(skel, forest.n, k, delta)
            assert pass_pair(shuffled, forest.n, k, delta) == expected


def rooted_skeleton(forest, roots):
    """Skeleton hanging each component from the virtual root at the given
    vertex, one per component."""
    n = forest.n
    children = [[] for _ in range(n)] + [list(roots)]
    preorder, seen, stack = [n], set(roots), list(roots)
    while stack:
        u = stack.pop()
        preorder.append(u)
        for w in forest.adj[u]:
            if w not in seen:
                seen.add(w)
                children[u].append(w)
                stack.append(w)
    return _Skeleton(tuple(reversed(preorder)), tuple(map(tuple, children)))


def swept_vectors(forest, skel, u, k, delta):
    """u's (deleted, kept with the parent edge, free) entries for j = 0..k,
    each the best score over every vertex subset of u's subtree, or None."""
    n = forest.n
    subtree, stack = [], [u]
    while stack:
        v = stack.pop()
        subtree.append(v)
        stack.extend(skel.children[v])
    best = [[None] * (k + 1) for _ in range(3)]

    def offer(state, score, counted):
        for j in range(min(counted, k) + 1):
            if best[state][j] is None or score > best[state][j]:
                best[state][j] = score

    for size in range(len(subtree) + 1):
        for kept in combinations(subtree, size):
            kept_set = set(kept)
            deg = {v: sum(w in kept_set for w in forest.adj[v]) for v in kept}
            score = size << n
            score += sum(1 << (n - 1 - v) for v in subtree if v not in kept_set)
            others = [v for v in kept if v != u]
            if any(deg[v] > delta for v in others):
                continue
            counted = sum(deg[v] == delta for v in others)
            if u not in kept_set:
                offer(0, score, counted)
                offer(2, score, counted)
                continue
            if deg[u] + 1 <= delta:
                offer(1, score, counted + (deg[u] + 1 == delta))
            if deg[u] <= delta:
                offer(2, score, counted + (deg[u] == delta))
    return best


def padded(vec, k):
    """A j-vector as k + 1 entries, None where infeasible."""
    vec = vec or []
    return [vec[j] if j < len(vec) and vec[j] >= 0 else None for j in range(k + 1)]


class TestEngineAgainstPlans:
    def test_every_node_matches_its_plan(self):
        # every vertex's three vectors hold, for each count j of vertices at
        # degree delta, the best score over every subset of its subtree
        for seed in range(10):
            forest = gen_random_forest(8, split_prob=0.3, seed=seed)
            skel = counting_skeleton(forest)
            for k in (2, 3):
                for delta in range(max(map(len, forest.adj), default=0) + 1):
                    vectors = _pass_vectors(skel, forest.n, k, delta)
                    for u in range(forest.n):
                        if skel.children[u]:
                            triple = vectors[u]
                        else:
                            triple = leaf_triple(forest.n, u, k, delta)
                        got = [padded(vec, k) for vec in triple]
                        assert got == swept_vectors(forest, skel, u, k, delta)


def shuffled_star_union(seed, stars, leaves):
    """A seeded union of at most ``stars`` stars of at most ``leaves`` leaves
    and one isolated vertex, with its ids permuted."""
    rng = SplitMix64(seed)
    counts = [rng.randrange(leaves + 1) for _ in range(1 + rng.randrange(stars))]
    union = build_star_union(counts + [0])
    label = list(range(union.n))
    rng.shuffle(label)
    return Graph.from_edges(union.n, [(label[u], label[v]) for u, v in union.edges()])


class TestLeafFold:
    # a pass folds each vertex's leaf children in closed form and builds no
    # leaf triple; the generic step merges the leaves' own triples one at a
    # time
    @staticmethod
    def assert_fold_is_generic(forest):
        skel = counting_skeleton(forest)
        n = forest.n
        for k in range(2, 6):
            for delta in range(max(map(len, forest.adj), default=0) + 2):
                vectors = _pass_vectors(skel, n, k, delta)
                for u in range(n):
                    if not skel.children[u]:
                        assert vectors[u] is None, (u, k, delta)
                        continue
                    kids = [
                        vectors[v] if skel.children[v] else leaf_triple(n, v, k, delta)
                        for v in skel.children[u]
                    ]
                    generic = _vertex_vectors(1 << (n - 1 - u), kids, 1 << n, k, delta)
                    assert tuple(vectors[u]) == generic, (u, k, delta)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_small_forest(self, n):
        for forest in all_forests(n):
            self.assert_fold_is_generic(forest)

    @pytest.mark.parametrize("t", range(1, 11))
    def test_extremal_family(self, t):
        self.assert_fold_is_generic(build_extremal_forest(t))

    @pytest.mark.parametrize("seed", range(40))
    def test_shuffled_star_unions(self, seed):
        self.assert_fold_is_generic(shuffled_star_union(seed, 7, 12))

    # from delta = 2 on the fold tries only two counts of kept leaves per row:
    # with up to 40 leaves a star, it skips most of them at most deltas
    @pytest.mark.parametrize("seed", range(8))
    def test_wide_shuffled_star_unions(self, seed):
        self.assert_fold_is_generic(shuffled_star_union(seed, 3, 40))

    @pytest.mark.parametrize(
        "forest",
        [double_star(15, 20), double_star(18, 17), caterpillar((16, 20, 15, 18))],
        ids=["double-star-15-20", "double-star-18-17", "caterpillar"],
    )
    def test_wide_spines(self, forest):
        self.assert_fold_is_generic(forest)

    @pytest.mark.parametrize("delta", [0, 1])
    @pytest.mark.parametrize(
        "forest",
        [build_extremal_forest(6), shuffled_star_union(3, 7, 12)],
        ids=["F6", "star-union"],
    )
    def test_one_step_per_non_leaf_vertex(self, monkeypatch, forest, delta):
        # one step per non-leaf vertex, and none for a leaf
        skel = counting_skeleton(forest)
        step, calls = forest_dp._vertex_vectors, []

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(forest_dp, "_vertex_vectors", counted)
        _pass_vectors(skel, forest.n, 3, delta)
        inner = sum(1 for kids in skel.children[:-1] if kids)
        assert 0 < inner < forest.n
        assert len(calls) == inner

    @pytest.mark.parametrize(
        "build, k, delta",
        [
            (lambda: build_star_union([2000, 1500, 1500, 800]), 4, 800),
            (lambda: build_extremal_forest(30), 3, 200),
        ],
        ids=["S2000-1500-1500-800", "F30"],
    )
    def test_merges_paid_per_internal_vertex(self, monkeypatch, build, k, delta):
        # a pass pays for vertices with children, not for leaves: at most
        # four merges per internal vertex and one per component at the root
        forest = build()
        skel = counting_skeleton(forest)
        merge, calls = forest_dp._merge, []

        def counted(*args):
            calls.append(None)
            return merge(*args)

        monkeypatch.setattr(forest_dp, "_merge", counted)
        _best_score(skel, forest.n, k, delta)
        inner = sum(1 for kids in skel.children[:-1] if kids)
        assert len(calls) <= 4 * inner + len(skel.children[forest.n])

    def test_shuffled_star_unions_match_oracle(self):
        checked = 0
        for seed in range(200):
            forest = shuffled_star_union(seed, 4, 5)
            if forest.n <= 14:
                checked += 1
                for k in range(2, 6):
                    assert_oracle_answer(forest, k)
        assert checked >= 100


class TestMaxSubforestOrder:
    """One counting pass: the largest subforest with maximum degree at most
    delta and k vertices at exactly delta, and its least deletion set."""

    @staticmethod
    def best(forest, k, delta):
        return pass_pair(counting_skeleton(forest), forest.n, k, delta)

    def test_star_two_leaf_specials(self):
        assert self.best(build_star(4), 2, 0) == (3, (0,))

    def test_path_three_specials_always_infeasible(self, path4):
        for delta in range(3):
            assert self.best(path4, 3, delta) is None

    def test_star_union_mixed(self):
        # K_2 plus K_1,3 at delta = 1: keep the edge and one edge of the star
        assert self.best(build_star_union([1, 3]), 3, 1) == (4, (3, 4))

    def test_delta_above_max_degree_is_infeasible(self, path4):
        assert self.best(path4, 2, 7) is None

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_oracle_on_every_pair(self, n, seed):
        # every delta, against the subset sweep over all choices of S
        forest = gen_random_forest(n, split_prob=0.3, seed=seed)
        for k in (2, 3):
            table, least = subforest_sweep(forest, k)
            for delta in range(max(map(len, forest.adj), default=0) + 1):
                orders = [order for (_, d), order in table.items() if d == delta]
                expected = (max(orders), least[delta][1]) if orders else None
                assert self.best(forest, k, delta) == expected


    def test_root_invariance_on_connected_trees(self):
        # the pass may hang a tree from any vertex
        for seed in range(12):
            tree = gen_random_forest(7, seed=seed, m=6)
            for k in (1, 2, 3):
                for delta in range(max(map(len, tree.adj), default=0) + 1):
                    values = {
                        pass_pair(rooted_skeleton(tree, (r,)), 7, k, delta)
                        for r in range(7)
                    }
                    assert values == {self.best(tree, k, delta)}

    def test_attachment_invariance_on_disconnected_forests(self):
        forest = build_star_union([2, 1, 2])
        comps = nx_components(forest)
        for k in (2, 3):
            for delta in range(max(map(len, forest.adj), default=0) + 1):
                values = {
                    pass_pair(rooted_skeleton(forest, roots), forest.n, k, delta)
                    for roots in product(*comps)
                }
                assert values == {self.best(forest, k, delta)}

    def test_attachments_must_cover_each_component_once(self):
        # the virtual root holds the lowest vertex of each component, every
        # other vertex is the child of exactly one vertex, and children come
        # before their parents
        for forest in (build_star_union([2, 1]), *all_forests(6)):
            skel = counting_skeleton(forest)
            n = forest.n
            assert skel.children[n] == tuple(comp[0] for comp in nx_components(forest))
            kids = sorted(v for row in skel.children for v in row)
            assert kids == list(range(n))
            assert sorted(skel.order) == list(range(n + 1))
            place = {u: i for i, u in enumerate(skel.order)}
            for u, row in enumerate(skel.children):
                assert all(place[v] < place[u] for v in row)

    def test_realizability_of_reconstruction(self):
        # the deletion set leaves what the order promises
        for seed in range(30):
            forest = gen_random_forest(8, split_prob=0.3, seed=seed)
            for k in (2, 3):
                for delta in range(max(map(len, forest.adj), default=0) + 1):
                    found = self.best(forest, k, delta)
                    if found is None:
                        continue
                    order, x = found
                    induced, _ = remove_vertices(forest, x)
                    assert induced.n == order == forest.n - len(x)
                    assert max(map(len, induced.adj), default=0) <= delta
                    at_delta = [v for v in range(order) if induced.degree(v) == delta]
                    assert len(at_delta) >= k

    def test_requires_order_above_special_count(self, monkeypatch, path4):
        # with n <= k the search answers at any budget, and the forest is
        # never rooted: at n == k its escape deletes vertex 0 and leaves
        # k - 1 vertices, unless the forest is already equalized (of the
        # paths and stars below, only P_2), and below k nothing is deleted
        def refuse(*args):
            raise AssertionError("the walk ran with n <= k")

        for name in ("_build_skeleton", "_best_score", "_min_deletions"):
            monkeypatch.setattr(forest_dp, name, refuse)
        for work in (0, 16):
            monkeypatch.setattr(forest_dp, "_SEARCH_WORK", work)
            assert compute_fk_forest(path4, 4)[0] == 1
            assert compute_fk_forest(path4, 5)[0] == 0
            assert compute_fk_forest(Graph.from_edges(4, []), 4)[0] == 0
            for k in range(2, 6):
                for n in (k, k - 1):
                    path = Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])
                    star = Graph.from_edges(n, [(0, v) for v in range(1, n)])
                    for forest in (path, star):
                        value, cert = compute_fk_forest(forest, k)
                        regular = len(set(forest.degrees())) == 1
                        expected = (1, (0,)) if n == k and not regular else (0, ())
                        assert (value, cert.x) == expected, (k, forest.edges())
                        assert cert.method == "dp"


class TestRootedView:
    def test_special_attachment_is_valid(self, path4):
        # hanging P_4 from vertex 1, which the optimum keeps at degree delta
        skel = rooted_skeleton(path4, (1,))
        assert skel.children[path4.n] == (1,)
        found = pass_pair(skel, 4, 2, 1)
        assert found == pass_pair(counting_skeleton(path4), 4, 2, 1)
        assert found == subforest_sweep(path4, 2)[1][1] == (3, (1,))

    def test_virtual_root_for_disconnected(self):
        forest = build_star_union([1, 1])
        skel = counting_skeleton(forest)
        assert skel.order[-1] == forest.n
        assert skel.children[forest.n] == (0, 2)

    def test_default_attachments(self):
        # each component hangs from its lowest vertex
        path = parse_graph("4 3\n0 1\n1 2\n2 3")
        assert counting_skeleton(path).children[4] == (0,)
        forest = build_star_union([2, 1])  # components {0, 1, 2} and {3, 4}
        assert counting_skeleton(forest).children[5] == (0, 3)

    def test_view_evaluation_matches_public_value(self):
        forest = build_star_union([2, 2])
        n = forest.n
        skel = counting_skeleton(forest)
        vectors = _pass_vectors(skel, n, 2, 1)
        roots = [vectors[v][2] for v in skel.children[n]]
        score = max(
            a + b
            for i, a in enumerate(roots[0])
            for j, b in enumerate(roots[1])
            if i + j == 2 and a >= 0 and b >= 0
        )
        order, x = pass_pair(skel, n, 2, 1)
        assert score == (order << n) + sum(1 << (n - 1 - v) for v in x)
        assert order == max(
            brute_force_subforest(forest, s, 1) for s in combinations(range(n), 2)
        )


class TestDeletionBound:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_exhaustive_search_on_every_small_forest(self, n):
        for forest in all_forests(n):
            skel = counting_skeleton(forest)
            deltas = range(max(map(len, forest.adj), default=0) + 1)
            got = [_min_deletions(skel, d) for d in deltas]
            assert got == exhaustive_min_deletions(forest), forest.edges()


class TestDeletionBoundOnStarUnions:
    # a star with more than delta leaves loses its centre, one deletion, and
    # a smaller star none: bdd counts those stars.  The walk takes each
    # leaf in closed form, so it is checked here on stars of up to 20,000
    # leaves, which the exhaustive search above cannot reach
    @pytest.mark.parametrize(
        "counts",
        [
            [a_sequence(i) for i in range(1, 61)],
            [20000, 19999, 19998, 19998, 0, 0, 3],
            [0],
            [5, 0, 1],
        ],
        ids=["F60", "S20000-19999-19998-19998-0-0-3", "S0", "S5-0-1"],
    )
    def test_counts_the_stars_above_delta(self, counts):
        skel = counting_skeleton(build_star_union(counts))
        for delta in sorted({0, 1, 2, 3, 7, *counts, max(counts) + 1}):
            expected = sum(count > delta for count in counts)
            assert _min_deletions(skel, delta) == expected, delta


class TestKBound:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_never_above_the_fewest_deletions_on_every_small_forest(self, n):
        # n minus the largest order with k vertices at exactly delta and
        # maximum degree delta, over all 2^n subsets, at every delta where
        # some subset has them
        for forest in all_forests(n):
            ascending = sorted(map(len, forest.adj))
            for k in range(2, 6):
                for delta, (order, _) in subforest_sweep(forest, k)[1].items():
                    low = bisect_left(ascending, delta)
                    assert low <= n - k  # the k vertices have degree >= delta
                    bound = _k_deletions(ascending, low, k, delta)
                    assert bound <= n - order, (forest.edges(), k, delta)

    @pytest.mark.parametrize("t, passes", [(30, 65), (60, 241)])
    def test_skips_passes_on_extremal_forests(self, monkeypatch, t, passes):
        # the walk without the k bound ran 212 passes on F_30 and 872 on F_60
        deltas = []
        counting_pass = forest_dp._best_score

        def spy(skeleton, n, k, delta):
            deltas.append(delta)
            return counting_pass(skeleton, n, k, delta)

        monkeypatch.setattr(forest_dp, "_best_score", spy)
        value, _ = compute_fk_forest(build_extremal_forest(t), 3)
        assert value == t
        assert len(deltas) == passes


# sha256 of every repr(compute_fk_forest(F, 3)) for F_40, F_60 and the star
# union [20000, 19999, 19997], one per line, as the walk gave them with a
# pass at every delta down to the bdd stop: 872 passes on F_60, and 19,998
# passes and about 46 s on the stars, where the k bound leaves 3
K_SKIP_DIGEST = "87f69978df0fc3c3ce105b7f58ad9c4bf84630644a4fae2dd4f8eb28e00d4903"


def test_k_skip_certificate_digest():
    digest = hashlib.sha256()
    for forest in (
        build_extremal_forest(40),
        build_extremal_forest(60),
        build_star_union([20000, 19999, 19997]),
    ):
        digest.update(repr(compute_fk_forest(forest, 3)).encode() + b"\n")
    assert digest.hexdigest() == K_SKIP_DIGEST


class TestPreWalkSearch:
    """The oracle's search, run before the walk under a budget of
    ``forest_dp._SEARCH_WORK`` units of work per vertex."""

    def test_one_search_serves_both_solvers(self):
        assert forest_dp._least_deletions is graph_module._least_deletions
        assert degeq.oracle._least_deletions is graph_module._least_deletions

    @pytest.mark.parametrize("k", [3, 4])
    def test_decides_a_large_random_forest_without_a_pass(self, monkeypatch, k):
        # f_3 = f_4 = 2 on 20,000 vertices; the walk ran one counting pass.
        # The search decides it, so the forest is never rooted either
        def refuse(*args):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(forest_dp, "_build_skeleton", refuse)
        monkeypatch.setattr(forest_dp, "_best_score", refuse)
        monkeypatch.setattr(forest_dp, "_min_deletions", refuse)
        value, cert = compute_fk_forest(gen_random_forest(20000, seed=11), k)
        # the walk's answer
        assert (value, cert.x, cert.witnesses) == (2, (6, 691), (8, 12, 79, 113, 178, 736))
        assert cert.method == "dp"

    @pytest.mark.parametrize(
        "forest",
        [build_extremal_forest(60), build_star_union([20000, 19999, 19997])],
        ids=["F60", "S20000-19999-19997"],
    )
    def test_gives_up_within_its_budget(self, forest):
        # f_3(F_60) = 60, and the stars' first last pick alone tries 20,001
        # candidates: the search runs out and charges no more than its budget
        budget = forest_dp._SEARCH_WORK * forest.n
        x, work = graph_module._least_deletions(forest, 3, budget)
        assert x is None
        assert 0 < work <= budget

    @pytest.mark.parametrize("work", [0, 1, 2, 3, 5, 8, 16])
    def test_any_budget_gives_the_walks_answer(self, monkeypatch, work):
        # a search stopped anywhere must leave the walk the degrees it was
        # given: every budget gives what the walk alone gives
        forests = [f for n in range(1, 9) for f in all_forests(n)]
        forests += [gen_random_forest(n, split_prob=0.3, seed=n) for n in range(10, 41)]
        forests += [shuffled_star_union(seed, 4, 6) for seed in range(20)]
        for forest in forests:
            for k in range(2, 6):
                monkeypatch.setattr(forest_dp, "_SEARCH_WORK", 0)
                walk = compute_fk_forest(forest, k)
                monkeypatch.setattr(forest_dp, "_SEARCH_WORK", work)
                assert compute_fk_forest(forest, k) == walk, (forest.edges(), k)


class TestDownwardWalk:
    @pytest.mark.parametrize("index", range(len(TIE_HEAVY_SHAPES)))
    def test_matches_full_scan_on_tie_heavy_shapes(self, index):
        forest = TIE_HEAVY_SHAPES[index]
        for k in range(2, 6):
            got = compute_fk_forest(forest, k)
            assert repr(got) == repr(reference_fk_forest(forest, k)), k

    @settings(max_examples=150, deadline=None)
    @given(labelled_forests(), st.integers(min_value=2, max_value=5))
    def test_matches_full_scan_on_any_small_forest(self, forest, k):
        got = compute_fk_forest(forest, k)
        assert repr(got) == repr(reference_fk_forest(forest, k))

    @pytest.mark.parametrize(
        "index", [i for i, f in enumerate(TIE_HEAVY_SHAPES) if f.n <= 18]
    )
    def test_tie_heavy_shapes_match_oracle(self, index):
        for k in range(2, 6):
            assert_oracle_answer(TIE_HEAVY_SHAPES[index], k)

    def test_star_union_runs_one_counting_pass(self, monkeypatch):
        # f_2 = 1: deleting a leaf of the larger star equalizes, and the
        # search's size-1 pick finds it with no counting pass and no bdd call
        (value, cert), events = TestBoundOnlyWhereItCanCut.walk(
            monkeypatch, build_star_union([201, 200]), 2
        )
        assert (value, cert.x) == (1, (1,))
        assert events == []

    def test_deadline_passing_mid_walk_raises(self, monkeypatch):
        # f_3(F_6) = 6 is large, so the walk runs 5 passes: the clock lets
        # the entry check and the first pass run and stops the walk before
        # the second.  The pre-walk search runs out of its 16n = 640 units
        # before its first tick
        calls = []

        def clock():
            calls.append(None)
            return 0.0 if len(calls) <= 2 else 2.0

        monkeypatch.setattr(forest_dp, "time", SimpleNamespace(monotonic=clock))
        with pytest.raises(DeadlineExceeded):
            compute_fk_forest(build_extremal_forest(6), 3, deadline=1.0)
        assert len(calls) == 3


class TestBoundOnlyWhereItCanCut:
    """Deleting every vertex of degree above delta brings the maximum degree
    to delta, so bdd(delta) is at most their number, ``above``; the walk
    asks for bdd only where n - above is below the best order so far."""

    @staticmethod
    def walk(monkeypatch, forest, k):
        """The solver's answer, and its bdd calls and counting passes in order."""
        events = []

        def bound(skel, delta):
            events.append(("bdd", delta))
            return _min_deletions(skel, delta)

        def counting_pass(skel, n, k, delta):
            score = _best_score(skel, n, k, delta)
            events.append(("pass", decode_score(score, n)))
            return score

        monkeypatch.setattr(forest_dp, "_min_deletions", bound)
        monkeypatch.setattr(forest_dp, "_best_score", counting_pass)
        return compute_fk_forest(forest, k), events

    def test_extremal_forest_asks_once(self, monkeypatch):
        # f_3(F_6) = 6 keeps at most 34 of 40 vertices; 35 are leaves, so
        # n - above >= 35 down to delta = 1, and 0 at delta = 0.  Of the 8
        # deltas from d_3 = 7 down, the k bound skips 6, 5 and 4: the three
        # least degrees >= delta, 7, 7 and 13, delete at least 7, 10 and 13
        (value, _), events = self.walk(monkeypatch, build_extremal_forest(6), 3)
        assert value == 6
        assert [d for tag, d in events if tag == "bdd"] == [0]
        assert sum(tag == "pass" for tag, _ in events) == 5

    def test_star_union_asks_only_below_its_first_pass(self, monkeypatch, walk_only):
        # two adjacent claw centres and an edge, at k = 3 (f_3 = 2): at
        # delta = 1 two vertices are above, so n - above = 6 needs no bdd, and
        # the pass keeps 6 of 8 vertices with X = (0, 2); at delta = 0 all 8
        # are above, and bdd(0) = 3 stops the walk
        forest = Graph.from_edges(8, [(0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (6, 7)])
        (value, _), events = self.walk(monkeypatch, forest, 3)
        assert value == 2
        assert events == [("pass", (6, (0, 2))), ("bdd", 0)]
        assert _min_deletions(counting_skeleton(forest), 0) == 3

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_small_forest(self, monkeypatch, walk_only, n):
        for forest in all_forests(n):
            deltas = degree_profile(forest).deltas
            for k in range(2, 6):
                (value, cert), events = self.walk(monkeypatch, forest, k)
                bf_value, bf_cert = brute_force_fk(forest, k)
                assert (value, cert.x) == (bf_value, bf_cert.x), k
                # f_k = 1 is answered before any pass or bdd call, and a
                # larger f_k runs at least one pass
                if bf_value == 1:
                    assert events == [], k
                elif bf_value >= 2:
                    assert any(tag == "pass" for tag, _ in events), k
                best = k - 1
                for tag, got in events:
                    if tag == "pass" and got is not None:
                        best = max(best, got[0])
                    elif tag == "bdd":
                        assert n - sum(d > got for d in deltas) < best


def test_one_deletion_candidates_never_rebuild_residual_degrees(monkeypatch):
    # f_2 = 2 on the star union [30, 28]: the last pick tries the centre's
    # closed neighbourhood in a degree histogram, and no candidate calls
    # either function
    calls = []

    def spy(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)

        return counted

    for module in (graph_module, certificates_module, forest_dp):
        for name in ("residual_degrees", "check_fk_condition"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    star_union = build_star_union([30, 28])
    deg = list(star_union.degrees())
    hist = [deg.count(d) for d in range(max(deg) + 1)]
    assert graph_module._last_pick(star_union.adj, deg, hist, 2) is None
    assert calls == []
    value, cert = compute_fk_forest(build_star_union([30, 29]), 2)
    assert (value, cert.x) == (1, (1,))
    assert calls == ["residual_degrees"]  # the one certificate build


class TestCertificateRooting:
    @pytest.mark.parametrize(
        "forest, k, value, builds",
        [
            (build_star_union([4, 2, 2]), 3, 2, 1),  # disconnected
            (spider((1, 2, 3, 3)), 2, 1, 1),  # connected, the optimum keeps 0
            (double_star(4, 3), 2, 1, 1),  # connected, at degree delta
        ],
    )
    def test_counting_skeleton_reused_where_rooting_agrees(
        self, monkeypatch, forest, k, value, builds
    ):
        # the certificate comes from the counting passes' own skeleton.  The
        # search answers f_k = 1 at any budget, so it is turned off here and
        # every row walks; the walk's certificate is the search's
        searched = compute_fk_forest(forest, k)
        calls = []

        def counted(*args):
            calls.append(args)
            return _build_skeleton(*args)

        monkeypatch.setattr(forest_dp, "_build_skeleton", counted)
        monkeypatch.setattr(forest_dp, "_least_deletions", lambda *args: (None, 0))
        walked = compute_fk_forest(forest, k)
        assert walked == searched
        assert walked[0] == value
        assert len(calls) == builds

    def test_one_search_roots_and_checks_the_forest(self, monkeypatch):
        # is_forest's 2-core peel is the one forest check, and the pre-walk
        # search decides f_3 = 2, so the forest is never rooted
        calls = []
        build = forest_dp._build_skeleton
        two_core = graph_module._two_core

        def counted_build(*args):
            calls.append("skeleton")
            return build(*args)

        def counted_two_core(graph):
            calls.append("two-core")
            return two_core(graph)

        monkeypatch.setattr(forest_dp, "_build_skeleton", counted_build)
        monkeypatch.setattr(graph_module, "_two_core", counted_two_core)
        value, _ = compute_fk_forest(build_star_union([4, 2, 2]), 3)
        assert value == 2
        assert calls == ["two-core"]


def test_one_pass_star_union_fits_in_512_mb():
    # split keeps one mask of leaf bits per vertex with children, not a
    # prefix sum of n bits per leaf (about n**2 / 16 bytes, 400 MB here).
    # The child caps its own address space; at delta = 19,998 one pass
    # keeps 79,997 of the 79,999 vertices
    code = (
        "import json, resource\n"
        "cap = 512 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from degeq import build_star_union, compute_fk_forest\n"
        "forest = build_star_union([20000, 19999, 19998, 19998])\n"
        "value, cert = compute_fk_forest(forest, 3)\n"
        "print(json.dumps([forest.n, value, cert.x]))\n"
    )
    start = time.monotonic()
    result = run_python(code)
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert json.loads(result.stdout) == [79999, 2, [0, 20002]]
    assert elapsed < 2
