"""Tests of the rooted-tree program: the recursion kernel at one vertex
(including the +1 for the vertex itself, validated against the exhaustive
oracle before anything else), the full solver, its certificates, and its
invariances."""

import hashlib
import importlib
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degeq
from conftest import all_forests
from degeq import (
    NEG_INF,
    Graph,
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
from degeq import forest_dp
from degeq.certificates import make_certificate
from degeq.forest_dp import (
    DeadlineExceeded,
    _best_special_set,
    _build_skeleton,
    _combine,
    _min_deletions,
    _pair_key,
    _reconstruct,
)
from degeq.graph import components, degree_profile, parse_graph, remove_vertices
from degeq.prng import SplitMix64, instance_seed
from reference import (
    brute_force_subforest,
    brute_force_subforest_all,
    max_subforest_order,
    root_forest,
    run_pair,
)


def ordered(nonspecials):
    """Non-special children in the kernel's order: non-increasing n3 - n1."""
    return sorted(nonspecials, key=_pair_key, reverse=True)


class TestLeafBase:
    @pytest.mark.parametrize(
        "special, delta, expected",
        [
            (False, 0, (0, 1, NEG_INF)),
            (False, 1, (0, NEG_INF, 1)),
            (False, 5, (0, NEG_INF, 1)),
            (True, 0, (NEG_INF, 1, NEG_INF)),
            (True, 1, (NEG_INF, NEG_INF, 1)),
            (True, 2, (NEG_INF, NEG_INF, NEG_INF)),
            (True, 3, (NEG_INF, NEG_INF, NEG_INF)),
        ],
    )
    def test_base_cases(self, special, delta, expected):
        assert _combine(special, (), (), delta)[0] == expected

    @pytest.mark.parametrize("special", [False, True])
    @pytest.mark.parametrize("delta", [0, 1, 2, 4])
    def test_combine_with_no_children_reproduces_base(self, special, delta):
        # the pass shares one leaf entry per flag; each leaf must still get
        # the kernel's childless triple and cuts
        star = build_star(5)
        _, values, plans = run_pair(star, (1, 2), delta)
        triple, cut2, cut3 = _combine(special, (), (), delta)
        for leaf in (1, 2) if special else (3, 4):
            assert values[leaf] == triple
            assert plans[leaf] == ((), (), cut2, cut3)


class TestCombine:
    def test_single_special_child(self):
        triple, _, _ = _combine(False, [(NEG_INF, NEG_INF, 1)], [], 1)
        assert triple == (NEG_INF, 2, NEG_INF)

    def test_two_nonspecial_leaves_delta0(self):
        leaf, _, _ = _combine(False, (), (), 0)
        triple, _, _ = _combine(False, [], [leaf, leaf], 0)
        assert triple[0] == 2
        # confirmed against the exhaustive oracle on the 3-vertex star
        assert brute_force_subforest(build_star(3), (), 0) == 2

    def test_partition_orders_by_pair_key(self):
        children = ordered([(5, 1, 2), (0, 1, 4), (3, NEG_INF, NEG_INF)])
        assert children[0] == (0, 1, 4)
        assert children[-1] == (3, NEG_INF, NEG_INF)
        # with room for every child, the n3 state keeps those with n3 >= n1
        assert _combine(False, (), children, len(children) + 1)[2] == 1

    def test_must_keep_child_sorts_first(self):
        must_keep = (NEG_INF, NEG_INF, 3)  # infeasible to drop
        other = (1, NEG_INF, 9)
        children = ordered([other, must_keep])
        assert children[0] == must_keep
        assert _combine(False, (), children, len(children) + 1)[2] == 2

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_permuting_children_never_changes_values(self, data):
        # the pass sorts ties by vertex id; the values must not depend on it
        triples = st.tuples(
            st.one_of(st.just(NEG_INF), st.integers(0, 6)),
            st.one_of(st.just(NEG_INF), st.integers(1, 6)),
            st.one_of(st.just(NEG_INF), st.integers(1, 6)),
        )
        specials = data.draw(st.lists(triples, max_size=3))
        nonspecials = data.draw(st.lists(triples, max_size=4))
        delta = data.draw(st.integers(0, 6))
        special = data.draw(st.booleans())
        base = _combine(special, specials, ordered(nonspecials), delta)[0]
        sp = data.draw(st.permutations(specials))
        ns = data.draw(st.permutations(nonspecials))
        assert _combine(special, sp, ordered(ns), delta)[0] == base


class TestEngineAgainstPlans:
    def test_every_node_matches_its_plan(self):
        # every recorded plan must split the vertex's children by flag, order
        # the non-special ones for the kernel, give the vertex the degree its
        # state needs, and add up to the value the pass stored
        for seed in range(10):
            forest = gen_random_forest(9, split_prob=0.3, seed=seed)
            for s in ((0, 1), (2, 5, 7)):
                for delta in range(forest.max_degree() + 1):
                    skel, values, plans = run_pair(forest, s, delta)
                    for u in skel.order:
                        sp, ns, cut2, cut3 = plans[u]
                        assert sorted([*sp, *ns]) == list(skel.children[u])
                        assert all(v in s for v in sp)
                        assert not any(v in s for v in ns)
                        keys = [_pair_key(values[v]) for v in ns]
                        assert keys == sorted(keys, reverse=True)
                        n1 = NEG_INF if u in s else (
                            sum(values[v][1] for v in sp)
                            + sum(max(values[v]) for v in ns)
                        )
                        kept = [NEG_INF, NEG_INF]
                        for state, cut in enumerate((cut2, cut3)):
                            if cut is None:
                                continue
                            degree = len(sp) + cut
                            if state == 0 or u in s:
                                assert degree == delta - state
                            else:
                                assert degree <= delta - 1
                            kept[state] = 1 + sum(values[v][2] for v in sp) + sum(
                                values[v][2] if i < cut else values[v][0]
                                for i, v in enumerate(ns)
                            )
                        assert values[u] == (n1, *kept)


class TestMaxSubforestOrder:
    def test_star_two_leaf_specials(self):
        assert max_subforest_order(build_star(4), (1, 2), 0) == 3

    def test_path_three_specials_always_infeasible(self, path4):
        for s in combinations(range(4), 3):
            for delta in range(3):
                assert max_subforest_order(path4, s, delta) == NEG_INF

    def test_star_union_mixed(self):
        forest = build_star_union([1, 3])
        assert max_subforest_order(forest, (0, 1, 3), 1) == 4

    def test_requires_order_above_special_count(self, path4):
        with pytest.raises(ValueError):
            max_subforest_order(path4, (0, 1, 2, 3), 1)

    def test_delta_above_max_degree_is_infeasible(self, path4):
        assert max_subforest_order(path4, (0, 1), 7) == NEG_INF

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=4, max_value=9),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_matches_oracle_on_every_pair(self, n, seed):
        forest = gen_random_forest(n, split_prob=0.3, seed=seed)
        for k in (2, 3):
            table = brute_force_subforest_all(forest, k)
            for s in combinations(range(n), k):
                for delta in range(forest.max_degree() + 1):
                    expected = table.get((s, delta), NEG_INF)
                    assert max_subforest_order(forest, s, delta) == expected

    def test_root_invariance_on_connected_trees(self):
        # the virtual root may hang from any vertex, special or not
        for seed in range(12):
            tree = gen_random_forest(7, seed=seed, m=6)
            for size in (1, 2, 3):
                for s in combinations(range(7), size):
                    for delta in range(tree.max_degree() + 1):
                        values = {
                            max_subforest_order(tree, s, delta, attachments=(r,))
                            for r in range(7)
                        }
                        assert values == {max_subforest_order(tree, s, delta)}

    def test_attachment_invariance_on_disconnected_forests(self):
        from itertools import product

        from degeq.graph import components

        forest = build_star_union([2, 1, 2])
        comps = components(forest)
        for s in ((0, 3), (1, 4, 5)):
            for delta in range(forest.max_degree() + 1):
                values = {
                    max_subforest_order(forest, s, delta, attachments=attach)
                    for attach in product(*comps)
                }
                assert len(values) == 1

    def test_attachments_must_cover_each_component_once(self):
        # two attachments in one component would cut the edge between them
        forest = build_star_union([2, 1])  # components {0, 1, 2} and {3, 4}
        for attach in ((0, 1, 3), (0, 0, 3), (0,)):
            with pytest.raises(ValueError):
                max_subforest_order(forest, (0, 3), 1, attachments=attach)

    def test_realizability_of_reconstruction(self):
        # the kept vertex set must induce what the value promises
        for seed in range(30):
            forest = gen_random_forest(8, split_prob=0.3, seed=seed)
            for k in (2, 3):
                table = brute_force_subforest_all(forest, k)
                for (s, delta), value in table.items():
                    kept = _reconstruct(*run_pair(forest, s, delta))
                    assert len(kept) == value
                    assert set(s) <= kept
                    induced, old_to_new = remove_vertices(
                        forest, set(range(forest.n)) - kept
                    )
                    assert induced.max_degree() <= delta
                    for v in s:
                        assert induced.degree(old_to_new[v]) == delta


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
        # the closed form is the tree solver's answer, and says so
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

    def test_tie_prefers_least_pair(self):
        # P_4 with k=2: several (S, delta) reach the same best order; the
        # certificate must come from the lexicographically least pair.
        forest = parse_graph("4 3\n0 1\n1 2\n2 3")
        value, cert = compute_fk_forest(forest, 2)
        assert value == 0
        assert cert.x == ()

    def test_winner_is_lexicographically_least_among_optima(self):
        # Re-derive the winning pair from scratch and make sure the driver's
        # certificate matches the least (S, delta) that attains the optimum.
        for seed in (3, 8, 21, 34):
            forest = gen_random_forest(9, split_prob=0.35, seed=seed)
            for k in (2, 3):
                value, cert = compute_fk_forest(forest, k)
                if value == forest.n - k + 1 or value == 0:
                    continue
                best = NEG_INF
                winner = None
                for s in combinations(range(forest.n), k):
                    for delta in range(forest.max_degree() + 1):
                        got = max_subforest_order(forest, s, delta)
                        if got == NEG_INF:
                            continue
                        if got > best or (got == best and (s, delta) < winner):
                            best, winner = got, (s, delta)
                assert forest.n - best == value
                s, delta = winner
                kept = set(range(forest.n)) - set(cert.x)
                induced, old_to_new = remove_vertices(forest, cert.x)
                assert set(s) <= kept
                assert induced.max_degree() == delta
                for v in s:
                    assert induced.degree(old_to_new[v]) == delta


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


def least_optimal_pair(forest, k):
    """Best per-pair order and the least (S, delta) reaching it, by
    enumerating every pair through the per-pair program."""
    best, winner = NEG_INF, None
    for s in combinations(range(forest.n), k):
        for delta in range(forest.max_degree() + 1):
            got = max_subforest_order(forest, s, delta)
            if got != NEG_INF and (got > best or (got == best and (s, delta) < winner)):
                best, winner = got, (s, delta)
    return best, winner


class TestCountingSolverDifferential:
    @settings(max_examples=120, deadline=None)
    @given(labelled_forests(), st.integers(min_value=2, max_value=5))
    def test_matches_oracle_and_least_pair(self, forest, k):
        value, cert = compute_fk_forest(forest, k)
        assert value == brute_force_fk(forest, k)[0]
        assert validate_certificate(forest, cert, k)
        n = forest.n
        if n <= k or value == 0:
            return
        best, winner = least_optimal_pair(forest, k)
        if best == NEG_INF or n - best > n - k + 1:
            assert value == n - k + 1
            assert cert.x == tuple(range(k - 1, n))
            return
        assert value == n - best
        # S is the k least degree-delta vertices of the kept forest: a lesser
        # one outside S would give a lesser optimal special set.
        s, delta = winner
        induced, old_to_new = remove_vertices(forest, cert.x)
        assert induced.max_degree() == delta
        at_delta = [
            v for v in sorted(old_to_new) if induced.degree(old_to_new[v]) == delta
        ]
        assert tuple(at_delta[:k]) == s

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

    def test_extremal_family_values_eight_to_twelve(self):
        for t in range(8, 13):
            assert compute_fk_forest(build_extremal_forest(t), 3)[0] == t


class TestRootedView:
    def test_special_attachment_is_valid(self, path4):
        skel, values, _ = run_pair(path4, (1, 2), 1, attachments=(1,))
        assert skel.children[path4.n] == (1,)
        assert values[path4.n][0] == brute_force_subforest(path4, (1, 2), 1) == 2

    def test_virtual_root_for_disconnected(self):
        forest = build_star_union([1, 1])
        skel = root_forest(forest, (0, 2))
        assert skel.order[-1] == forest.n
        assert skel.children[forest.n] == (0, 2)

    def test_default_attachments(self):
        # a connected forest hangs from its lowest non-special vertex, a
        # disconnected one from the lowest vertex of each component, special
        # or not; certificates depend on this choice among tied optima
        path = parse_graph("4 3\n0 1\n1 2\n2 3")
        assert root_forest(path, (0, 1)).children[4] == (2,)
        assert root_forest(path, (0, 1, 2, 3)).children[4] == (0,)
        forest = build_star_union([2, 1])  # components {0, 1, 2} and {3, 4}
        assert root_forest(forest, (0, 3)).children[5] == (0, 3)

    def test_view_evaluation_matches_public_value(self):
        forest = build_star_union([2, 2])
        _, values, _ = run_pair(forest, (0, 3), 1)
        assert values[forest.n][0] == max_subforest_order(forest, (0, 3), 1)
        assert values[forest.n][0] == brute_force_subforest(forest, (0, 3), 1)


def test_public_names_resolve():
    for name in degeq.__all__:
        # each name resolves, lazily, to the object its home module defines
        home = importlib.import_module(f"degeq.{degeq._HOME[name]}")
        assert getattr(degeq, name) is getattr(home, name), name
    namespace = {}
    exec("from degeq import *", namespace)
    assert set(degeq.__all__) <= set(namespace)
    # the exhaustive and per-pair references live in tests/reference.py
    for name in ("brute_force_subforest", "brute_force_subforest_all",
                 "root_forest", "max_subforest_order"):
        assert not hasattr(degeq, name), name


def counting_skeleton(forest):
    comps = components(forest)
    return _build_skeleton(forest, comps, [comp[0] for comp in comps])


def exhaustive_min_deletions(forest):
    """Least |X| such that G - X has maximum degree <= delta, for every
    delta from 0 to the maximum degree, over all 2^n vertex subsets."""
    n = forest.n
    nbrs = [sum(1 << w for w in forest.adj[v]) for v in range(n)]
    best = [n] * (forest.max_degree() + 1)
    for mask in range(1 << n):
        live = [v for v in range(n) if not mask >> v & 1]
        top = max(((nbrs[v] & ~mask).bit_count() for v in live), default=0)
        for delta in range(top, len(best)):
            best[delta] = min(best[delta], n - len(live))
    return best


def reference_fk_forest(forest, k):
    """The solver without the bound: every delta scored in ascending order."""
    n = forest.n
    deltas = degree_profile(forest).deltas
    if n < k or deltas[0] == deltas[k - 1]:
        return 0, make_certificate(forest, (), k, "dp")
    if n == k:
        return 1, make_certificate(forest, (0,), k, "dp")
    skel = counting_skeleton(forest)
    best_val, best_key = NEG_INF, None
    for delta in range(deltas[k - 1] + 1):
        found = _best_special_set(skel, n, k, delta)
        if found is None:
            continue
        val, special = found
        if val > best_val or (val == best_val and (special, delta) < best_key):
            best_val, best_key = val, (special, delta)
    if best_val == NEG_INF or n - best_val > n - (k - 1):
        removed = tuple(range(k - 1, n))
        return n - (k - 1), make_certificate(forest, removed, k, "dp")
    special, delta = best_key
    kept = _reconstruct(*run_pair(forest, special, delta))
    removed = tuple(sorted(set(range(n)) - kept))
    return n - best_val, make_certificate(forest, removed, k, "dp")


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
# skips a delta able to tie it changes the winning (S, delta)
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
    shuffled labels, so that vertex 0 is often special and the lowest
    non-special vertex varies."""
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
# k = 2..5, one per line.  It pins which tied optimum each certificate
# replays, so it pins the certificate pass's rooting rule.
GOLDEN_DIGEST = "d6c78bd6f601390801c49197b26683cc7aeaea5a96e8c6e03df5c00b7246ab64"


def test_golden_certificate_digest():
    digest = hashlib.sha256()
    for forest in golden_forests():
        for k in range(2, 6):
            digest.update(repr(compute_fk_forest(forest, k)).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_DIGEST


class TestDeletionBound:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_exhaustive_search_on_every_small_forest(self, n):
        for forest in all_forests(n):
            skel = counting_skeleton(forest)
            got = [_min_deletions(skel, d) for d in range(forest.max_degree() + 1)]
            assert got == exhaustive_min_deletions(forest), forest.edges()


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
        # the connected shapes often put 0 in S, so their certificates come
        # from the second rooting
        forest = TIE_HEAVY_SHAPES[index]
        for k in range(2, 6):
            value, cert = compute_fk_forest(forest, k)
            bf_value, bf_cert = brute_force_fk(forest, k)
            assert value == bf_value, k
            assert validate_certificate(forest, cert, k)
            assert validate_certificate(forest, bf_cert, k)

    def test_star_union_runs_one_counting_pass(self, monkeypatch):
        # f_2 = 1: the pass at delta = 200 keeps n - 1 vertices, and every
        # lower delta needs two deletions
        calls = []

        def counted(*args):
            calls.append(args[3])
            return _best_special_set(*args)

        monkeypatch.setattr(forest_dp, "_best_special_set", counted)
        value, cert = compute_fk_forest(build_star_union([201, 200]), 2)
        assert value == 1
        assert calls == [200]

    def test_deadline_passing_mid_walk_raises(self, monkeypatch):
        # f_3(F_6) = 6 is large, so the bound skips none of its 8 passes
        calls = []

        def clock():
            calls.append(None)
            return 0.0 if len(calls) == 1 else 2.0

        monkeypatch.setattr(forest_dp, "time", SimpleNamespace(monotonic=clock))
        with pytest.raises(DeadlineExceeded):
            compute_fk_forest(build_extremal_forest(6), 3, deadline=1.0)
        assert len(calls) == 2


class TestCertificateRooting:
    @pytest.mark.parametrize(
        "forest, k, value, builds",
        [
            (build_star_union([4, 2, 2]), 3, 2, 1),  # disconnected
            (spider((1, 2, 3, 3)), 2, 1, 1),  # connected, S excludes 0
            (double_star(4, 3), 2, 1, 2),  # connected, S holds 0
        ],
    )
    def test_counting_skeleton_reused_where_rooting_agrees(
        self, monkeypatch, forest, k, value, builds
    ):
        # the certificate pass builds its own skeleton only when its rooting
        # rule hangs the virtual root elsewhere than the counting passes do
        calls = []

        def counted(*args):
            calls.append(args)
            return _build_skeleton(*args)

        monkeypatch.setattr(forest_dp, "_build_skeleton", counted)
        got, _ = compute_fk_forest(forest, k)
        assert got == value
        assert len(calls) == builds
