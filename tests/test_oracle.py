import hashlib
import inspect
import json
import time
from itertools import chain, combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_forests, run_python
from degeq import (
    OrderLimitError,
    brute_force_fk,
    build_extremal_forest,
    build_star,
    build_star_union,
    check_fk_condition,
    forest_dp,
    gen_random_forest,
    gen_random_girth5,
    make_certificate,
    solve,
    validate_certificate,
)
from degeq.forest_dp import DeadlineExceeded
from degeq.graph import (
    Graph,
    _last_pick,
    _least_deletions,
    parse_graph,
    residual_degrees,
)
from degeq.prng import SplitMix64, instance_seed
from reference import brute_force_subforest, brute_force_subforest_all

NEG_INF = float("-inf")


def _reference_fk(graph, k):
    """The definition written out: the first deletion set, by size and then
    lexicographically, that leaves k vertices of maximum degree or fewer than
    k vertices."""
    for size in range(graph.n + 1):
        for subset in combinations(range(graph.n), size):
            if check_fk_condition(graph, subset, k):
                return size, make_certificate(graph, subset, k, "brute")
    raise AssertionError("unreachable: removing all vertices always succeeds")


def _gnp(n, seed):
    rng = SplitMix64(seed)
    p = 0.1 + 0.6 * rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [pair for pair in pairs if rng.random() < p])


def _hubbed_girth5(n, seed):
    """A random girth-5 graph plus 1-3 hubs joined to about 60% of it, with
    shuffled labels, so the high-degree vertices are not the lowest ids."""
    rng = SplitMix64(seed)
    hubs = min(1 + rng.randrange(3), n - 1)
    base = gen_random_girth5(n - hubs, seed=seed)
    edges = [(u + hubs, v + hubs) for u, v in base.edges()]
    edges += [(h, v) for h in range(hubs) for v in range(hubs, n) if rng.random() < 0.6]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _reversed_labels(graph):
    n = graph.n
    return Graph.from_edges(n, [(n - 1 - u, n - 1 - v) for u, v in graph.edges()])


FAMILIES = {
    "gnp": _gnp,
    "forest": lambda n, seed: gen_random_forest(n, split_prob=0.3, seed=seed),
    "girth5": lambda n, seed: gen_random_girth5(n, seed=seed),
    "hubbed-girth5": _hubbed_girth5,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_search_matches_reference(family):
    values = []
    for seed in range(100):
        graph = FAMILIES[family](2 + seed % 11, instance_seed(500, seed))
        for k in (2, 3, 4, 5):
            expected = _reference_fk(graph, k)
            assert brute_force_fk(graph, k) == expected, (family, seed, k)
            values.append(expected[0])
    # the corpus must reach deletion sets the prune can cut into
    assert max(values) >= 3


def _last_pick_states(source):
    """(graph, deleted, k) triples: every forest with n <= 9 and nothing
    deleted, or one family's graphs with one or two vertices deleted.  The
    forests also take the star unions [L, 2, 1] and [L, 2, 2] with L >= 4,
    as built and relabelled, with nothing or vertex 0 deleted: their one
    top vertex has no vertex one degree below it, so the last pick deletes
    it to find the next live degree."""
    if source == "forests":
        for n in range(3, 10):
            for forest in all_forests(n):
                yield from ((forest, (), k) for k in range(2, 6))
        for size in range(4, 9):
            for stars in ([size, 2, 1], [size, 2, 2]):
                built = build_star_union(stars)
                for graph in (built, _reversed_labels(built)):
                    for deleted in ((), (0,)):
                        yield from ((graph, deleted, k) for k in range(2, 5))
        return
    for seed in range(100):
        graph = FAMILIES[source](2 + seed % 11, instance_seed(2500, seed))
        ids = range(graph.n)
        for deleted in chain(combinations(ids, 1), combinations(ids, 2)):
            yield from ((graph, deleted, k) for k in range(2, 6))


@pytest.mark.parametrize("source", ["forests", *sorted(FAMILIES)])
def test_last_pick_matches_exhaustive_search(source):
    # at each state the search could reach with one pick left (fewer than k
    # live vertices at the top degree, at least k + 1 live), the last pick
    # is the least v >= start whose deletion succeeds, and it leaves its
    # arguments as it found them
    answers = []
    for graph, deleted, k in _last_pick_states(source):
        deg = residual_degrees(graph, deleted)
        live = [d for d in deg if d >= 0]
        if len(live) <= k or live.count(max(live)) >= k:
            continue
        hist = [0] * (max(graph.degrees()) + 1)
        for d in live:
            hist[d] += 1
        start = max(deleted, default=-1) + 1
        high = max(deg[:start], default=-1)  # as the search computes it
        before = (deg[:], hist[:])
        expected = next(
            (v for v in range(start, graph.n)
             if check_fk_condition(graph, deleted + (v,), k)),
            None,
        )
        got = _last_pick(graph.adj, deg, hist, k, start, high)
        assert got == expected, (graph.edges(), deleted, k)
        assert (deg, hist) == before, (graph.edges(), deleted, k)
        answers.append(got)
    # both outcomes occur, and the corpus is not trivial
    assert None in answers and len(set(answers)) > 2 and len(answers) > 200


def test_last_pick_past_empty_levels_scans_them_once():
    # on the star union [20000, 3, 3] the centre alone holds the top degree
    # and the next live degree below it is 3: deleting the centre is tested
    # with one scan of the histogram down the empty levels, where reading
    # each level from neighbour counts would take seconds.  k = 2 finds the
    # centre, and k = 3 nothing
    code = (
        "import json, time\n"
        "from degeq import build_star_union\n"
        "from degeq.graph import _last_pick\n"
        "graph = build_star_union([20000, 3, 3])\n"
        "deg = list(graph.degrees())\n"
        "hist = [0] * (max(deg) + 1)\n"
        "for d in deg:\n"
        "    hist[d] += 1\n"
        "start = time.perf_counter()\n"
        "picks = [_last_pick(graph.adj, deg, hist, k) for k in (2, 3)]\n"
        "print(json.dumps([picks, time.perf_counter() - start]))\n"
    )
    result = run_python(code, timeout=30)
    assert result.returncode == 0, result.stderr
    picks, seconds = json.loads(result.stdout)
    assert picks == [0, None]
    assert seconds < 1


def test_deadline_passing_mid_search_raises(monkeypatch):
    # F_6 with reversed labels keeps the prune weak: the k = 4 search tries
    # over 20,000 candidates with two or more picks left (its nodes), past
    # the first periodic check, at 4,096 units of search work.  The shared
    # deadline check in forest_dp reads the clock
    graph = _reversed_labels(build_extremal_forest(6))
    n = graph.n
    calls = []

    def clock():
        calls.append(None)
        return 0.0 if len(calls) == 1 else 2.0

    monkeypatch.setattr(forest_dp, "time", SimpleNamespace(monotonic=clock))
    with pytest.raises(DeadlineExceeded):
        brute_force_fk(graph, 4, limit=n, deadline=1.0)
    assert len(calls) == 2


# sha256 of repr((value, X, witnesses)) from brute_force_fk(g, k, limit=g.n),
# one per line: 99 hubbed girth-5 graphs with n = 14..24 at k = 2..4, then
# F_4 and F_5 with reversed labels at k = 3, 4.  These orders are past
# _reference_fk's reach; the digest pins the search's certificates there.
ORACLE_DIGEST = "cdbee1b8c1d3dd215a298b0f5d76b9a55330691cadc8749a9d8c580206168615"


def test_oracle_certificate_digest():
    graphs = [(_hubbed_girth5(14 + seed % 11, instance_seed(2300, seed)), (2, 3, 4))
              for seed in range(99)]
    graphs += [(_reversed_labels(build_extremal_forest(t)), (3, 4)) for t in (4, 5)]
    digest = hashlib.sha256()
    for graph, ks in graphs:
        for k in ks:
            value, cert = brute_force_fk(graph, k, limit=graph.n)
            digest.update(repr((value, cert.x, cert.witnesses)).encode() + b"\n")
    assert digest.hexdigest() == ORACLE_DIGEST


def _search_outcome_cases():
    """(graph, k, budget) triples: seeded G(n, p), girth-5 graphs with and
    without hubs and relabelling, random forests and F_1..F_7 as built and
    relabelled, at k = 2..5 and at budgets None (n <= 22), 0, 16n and one
    seeded random budget."""
    graphs = []
    for seed in range(12):
        graphs.append(_gnp(6 + seed, instance_seed(3100, seed)))
        girth5 = gen_random_girth5(10 + 2 * seed, seed=instance_seed(3200, seed))
        graphs += [girth5, _reversed_labels(girth5)]
        graphs.append(_hubbed_girth5(12 + seed, instance_seed(3300, seed)))
        graphs.append(gen_random_forest(10 + 3 * seed, split_prob=0.3,
                                        seed=instance_seed(3400, seed)))
    for t in range(1, 8):
        forest = build_extremal_forest(t)
        graphs += [forest, _reversed_labels(forest)]
    rng = SplitMix64(3500)
    for graph in graphs:
        n = graph.n
        budgets = [0, 16 * n, rng.randrange(512 * n + 1)]
        if n <= 22:
            budgets.insert(0, None)
        for k in range(2, 6):
            yield from ((graph, k, budget) for budget in budgets)


# sha256 of repr((x, work, ticks)) from graph._least_deletions, one per line,
# over _search_outcome_cases, with a tick that counts its calls.  The answer,
# the work charged and the ticks are the search's whole outcome: the forest
# solver's budget decides on the work which inputs walk, so a faster search
# must leave all three as they are.
SEARCH_OUTCOME_DIGEST = "83f069c01cdfb954779cd196cc860abfe72676553bb650025c749b875d4b041b"


def test_search_outcome_digest():
    digest = hashlib.sha256()
    outcomes = []
    for graph, k, budget in _search_outcome_cases():
        ticks = []
        x, work = _least_deletions(graph, k, budget, lambda: ticks.append(None))
        digest.update(repr((x, work, len(ticks))).encode() + b"\n")
        outcomes.append((x, len(ticks)))
    # some searches run out of budget, some tick, and some find 3 or more
    assert len(outcomes) > 1000
    assert any(x is None for x, _ in outcomes)
    assert any(ticks for _, ticks in outcomes)
    assert any(x is not None and len(x) >= 3 for x, _ in outcomes)
    assert digest.hexdigest() == SEARCH_OUTCOME_DIGEST


def test_star_union_fixture():
    value, cert = brute_force_fk(build_star_union([3, 1]), 3)
    assert value == 2
    assert cert.method == "brute"


def test_cycle_already_regular(cycle5):
    value, cert = brute_force_fk(cycle5, 2)
    assert value == 0
    assert cert.x == ()
    assert cert.witnesses == (0, 1, 2, 3, 4)


def test_path4_k3(path4):
    value, cert = brute_force_fk(path4, 3)
    assert value == 2
    assert cert.order_below_k or len(cert.witnesses) >= 3


def test_first_minimizer_is_lexicographic():
    # Both endpoints of the K_2 are symmetric; the certificate must pick
    # the lexicographically first minimum deletion set.
    g = build_star_union([3, 1])
    _, cert = brute_force_fk(g, 3)
    assert cert.x == (0, 4)


def test_order_limit_guard():
    # two stars, K_{1,16} and K_{1,14}: f_2 = 2 needs a search of size 2
    g = build_star_union([16, 14])
    with pytest.raises(OrderLimitError):
        brute_force_fk(g, 2)
    value, _ = brute_force_fk(g, 2, limit=g.n)
    assert value == 2


def test_order_limit_refuses_exactly_a_search_of_size_two_or_more():
    """Past the limit the oracle answers f_k <= 1, the same answer and
    certificate as with no limit, and refuses exactly when f_k >= 2."""
    graphs = [gen_random_girth5(n, seed=s) for n in range(19, 61) for s in range(3)]
    graphs += [gen_random_forest(n, seed=s) for n in range(19, 41) for s in range(4)]
    refused = answered = 0
    for graph in graphs:
        for k in (2, 3, 4):
            exact = brute_force_fk(graph, k, limit=graph.n)
            if exact[0] >= 2:
                with pytest.raises(OrderLimitError):
                    brute_force_fk(graph, k)
                refused += 1
            else:
                assert brute_force_fk(graph, k) == exact, (graph.n, k)
                answered += 1
    assert refused >= 100 and answered >= 100


def test_solve_takes_the_tree_program_on_a_forest_of_any_order():
    # F_12 has 206 vertices, far above the oracle's limit
    f12 = build_extremal_forest(12)
    value, cert = solve(f12, 3)
    assert (value, cert.method) == (12, "dp")
    assert validate_certificate(f12, cert, 3)


def test_solve_takes_the_oracle_on_a_small_graph_with_a_cycle():
    # K_2 + C_3 has fewer edges than vertices: the tree program's rooting
    # search, not its edge count, finds the cycle
    k2_c3 = Graph.from_edges(6, [(0, 1), (3, 4), (4, 5), (3, 5)])
    for graph, k in [(gen_random_girth5(n, seed=n), 3) for n in (10, 14, 18)] + [(k2_c3, 2)]:
        value, cert = solve(graph, k)
        assert cert.method == "brute"
        assert (value, cert) == brute_force_fk(graph, k)


def test_solve_refuses_a_graph_with_a_cycle_past_the_limit():
    # f_4 = 3 and f_3 = 2: each needs a search of size 2 or more
    big = gen_random_girth5(19, seed=5)
    with pytest.raises(OrderLimitError):
        solve(big, 4)
    with pytest.raises(OrderLimitError):
        brute_force_fk(_hubbed_girth5(12, seed=1), 3, limit=11)
    # a deadline bounds the search in place of the limit, in solve alone:
    # verify's oracle-equiv relies on brute_force_fk's instant refusal
    value, cert = solve(big, 4, deadline=time.monotonic() + 30)
    assert (value, cert.method) == (3, "brute")
    assert validate_certificate(big, cert, 4)
    with pytest.raises(OrderLimitError):
        brute_force_fk(big, 4, deadline=time.monotonic() + 30)
    assert list(inspect.signature(solve).parameters) == ["graph", "k", "deadline"]


def test_subforest_star_two_leaves():
    assert brute_force_subforest(build_star(4), (1, 2), 0) == 3


def test_subforest_path_three_specials(path4):
    for s in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        for delta in range(3):
            assert brute_force_subforest(path4, s, delta) == NEG_INF


def test_subforest_single_edge():
    k2 = parse_graph("2 1\n0 1")
    assert brute_force_subforest(k2, (0, 1), 1) == 2
    assert brute_force_subforest(k2, (0, 1), 0) == NEG_INF


def test_subforest_all_agrees_with_single_queries():
    from itertools import combinations

    forest = gen_random_forest(8, split_prob=0.3, seed=11)
    for k in (2, 3):
        table = brute_force_subforest_all(forest, k)
        for s in combinations(range(8), k):
            for delta in range(max(map(len, forest.adj), default=0) + 1):
                expected = table.get((s, delta), NEG_INF)
                assert brute_force_subforest(forest, s, delta) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**32))
def test_zero_iff_condition_already_holds(n, seed):
    g = gen_random_forest(n, split_prob=0.35, seed=seed)
    for k in (2, 3):
        value, cert = brute_force_fk(g, k)
        assert (value == 0) == check_fk_condition(g, set(), k)
        assert value <= g.n - k + 1
        assert validate_certificate(g, cert, k)
        assert len(cert.x) == value
