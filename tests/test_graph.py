import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degeq import (
    Graph,
    GraphFormatError,
    SplitMix64,
    check_fk_condition,
    compute_fk_forest,
    degree_profile,
    gen_random_forest,
    gen_random_girth5,
    girth,
    is_forest,
    make_certificate,
    parse_graph,
    to_edgelist,
    validate_certificate,
)
from degeq import graph as graph_module
from degeq.extremal import build_extremal_forest, build_star, build_star_union
from degeq.graph import residual_degrees

from conftest import PETERSEN_EDGES, girth_by_edge_removal, nx_components
from reference import bfs_girth, remove_vertices, tuple_key_profile


def random_graphs(max_n=9):
    """Hypothesis strategy for arbitrary simple graphs."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        return Graph.from_edges(n, chosen)

    return build()


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def hypercube(dim: int) -> Graph:
    n = 1 << dim
    edges = [(v, v | 1 << b) for v in range(n) for b in range(dim) if not v >> b & 1]
    return Graph.from_edges(n, edges)


def heawood() -> Graph:
    """The (3, 6)-cage: C_14 with chords i -- i + 5 from every even i."""
    ring = [(i, (i + 1) % 14) for i in range(14)]
    return Graph.from_edges(14, ring + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def grid(rows: int, cols: int) -> Graph:
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def relabel(graph: Graph) -> Graph:
    """The same graph with ids reversed, so another vertex is least."""
    top = graph.n - 1
    return Graph.from_edges(graph.n, [(top - u, top - v) for u, v in graph.edges()])


class TestParse:
    def test_single_edge(self):
        g = parse_graph("2 1\n0 1")
        assert (g.n, g.m) == (2, 1)
        assert g.adj == ((1,), (0,))

    def test_path(self, path4):
        assert path4.degrees() == (1, 2, 2, 1)

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header comment\n\n3 1\n# edge next\n0 2\n")
        assert g.m == 1 and 2 in g.adj[0]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("3 3\n0 0\n0 1\n1 2", "self-loop"),
            ("2 2\n0 1\n0 1", "duplicate edge"),
            ("2 1\n1 0", "increasing order"),
            ("2 1\n0 5", "out of range"),
            ("x y\n", "malformed header"),
            ("2 1\n0  1", "malformed edge"),
            ("2 1", "expected 1 edges"),
            ("2 0\n0 1", "unexpected content"),
            ("", "missing header"),
            ("1000001 0\n", "line 1: n=1000001 is over 1000000"),
            (f"# c\n{10**20} 1\n0 1\n", f"line 2: n={10**20} is over 1000000"),
        ],
    )
    def test_rejections(self, text, fragment):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
        assert fragment in str(err.value)

    def test_rejects_non_ascii_digits(self):
        # int() accepts Arabic-Indic digits; the format takes ASCII digits only
        with pytest.raises(GraphFormatError):
            parse_graph("\u0663 \u0661\n\u0660 \u0661")

    def test_header_order_limit_is_a_million(self):
        # a header n of 10**6 is parsed and built; one more is refused unparsed
        assert graph_module.MAX_ORDER == 10**6
        g = parse_graph("1000000 0\n")
        assert (g.n, g.m) == (10**6, 0)
        with pytest.raises(GraphFormatError) as err:
            parse_graph("1000001 0\n0 1\n")
        assert err.value.line == 1

    def test_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("# c\n3 3\n0 1\n1 1\n")
        assert err.value.line == 4

    @settings(max_examples=60)
    @given(random_graphs())
    def test_roundtrip(self, g):
        assert parse_graph(to_edgelist(g)) == g


class TestDegreeProfile:
    def test_star(self):
        prof = degree_profile(build_star(4))
        assert prof.deltas == (3, 1, 1, 1)
        assert prof.witnesses[0] == 0

    def test_extremal_three_star_union(self):
        # ten vertices: two centers of degree 3, eight vertices of degree 1
        prof = degree_profile(build_star_union([1, 3, 3]))
        assert prof.deltas == (3, 3) + (1,) * 8
        assert sum(prof.deltas) == 2 * 7

    def test_edgeless(self):
        prof = degree_profile(Graph.from_edges(4, []))
        assert prof.deltas == (0, 0, 0, 0)
        assert prof.witnesses == (0, 1, 2, 3)

    def test_tie_break_ascending_id(self, path4):
        prof = degree_profile(path4)
        assert prof.witnesses == (1, 2, 0, 3)

    @pytest.mark.parametrize(
        "graph",
        [
            build_star_union([3, 1, 3, 0, 2, 3]),
            build_star_union([2] * 7),
            build_star_union([5, 0, 0, 5, 1, 1]),
            *(build_extremal_forest(t) for t in (1, 2, 3, 5, 8)),
            Graph.from_edges(10, PETERSEN_EDGES),
            *(cycle(n) for n in (3, 8, 13)),
            hypercube(3),
            heawood(),
            grid(4, 5),
            Graph.from_edges(7, []),
        ],
    )
    def test_tie_order_matches_tuple_key(self, graph):
        # star unions, F_t, regular graphs: mostly ties, broken by ascending id
        assert degree_profile(graph) == tuple_key_profile(graph)

    @settings(max_examples=60)
    @given(random_graphs())
    def test_deltas_sum_to_twice_m(self, g):
        prof = degree_profile(g)
        assert sum(prof.deltas) == 2 * g.m
        assert sorted(prof.witnesses) == list(range(g.n))
        assert all(g.degree(w) == d for w, d in zip(prof.witnesses, prof.deltas))


class TestGirth:
    def test_cycle5(self, cycle5):
        assert girth(cycle5) == 5

    def test_forest_is_infinite(self, path4):
        assert girth(path4) == math.inf

    def test_petersen(self, petersen):
        assert girth(petersen) == 5
        assert girth_by_edge_removal(petersen) == 5

    def test_triangle_with_tail(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert girth(g) == 3

    @settings(max_examples=120)
    @given(random_graphs())
    def test_against_edge_removal_oracle(self, g):
        assert girth(g) == girth_by_edge_removal(g)

    def test_against_both_references(self):
        # seeded random graphs on up to 40 vertices with average degree 1 to
        # 3, generator graphs of girth 5..11, and forests
        graphs = []
        for seed in range(100):
            rng = SplitMix64(seed)
            n = 1 + rng.randrange(40)
            tenths = (10, 12, 15, 20, 30)[seed % 5]
            graphs.append(Graph.from_edges(n, [
                (u, v) for u in range(n) for v in range(u + 1, n)
                if rng.randrange(10 * (n - 1)) < tenths
            ]))
        for min_girth in range(5, 12):
            for seed in range(3):
                graphs.append(gen_random_girth5(24 + 12 * seed, None, seed, min_girth))
        for seed in range(10):
            graphs.append(gen_random_forest(1 + 4 * seed, split_prob=0.2, seed=seed))
        for g in graphs:
            got = girth(g)
            assert got == bfs_girth(g) == girth_by_edge_removal(g), g.edges()
            assert type(got) is type(bfs_girth(g))

    @pytest.mark.parametrize(
        "graph, expected",
        [
            (cycle(4), 4),
            (cycle(6), 6),
            (cycle(8), 8),
            (Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]), 4),
            (hypercube(3), 4),
            (heawood(), 6),
            (grid(4, 5), 4),
            (relabel(heawood()), 6),
            (relabel(grid(4, 5)), 4),
            # from 0, the level that closes a 4-cycle (1, 2 meet at 5) holds
            # the edge 3-4 of a triangle later in the scan
            (Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5), (3, 4)]), 3),
            # the same one level down: a 6-cycle through 9, then a 5-cycle 7-8
            (Graph.from_edges(10, [
                (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8),
                (5, 9), (6, 9), (7, 8),
            ]), 5),
        ],
    )
    def test_even_closures(self, graph, expected):
        got = girth(graph)
        assert got == bfs_girth(graph) == girth_by_edge_removal(graph) == expected
        assert type(got) is int

    @pytest.mark.parametrize("min_girth", [6, 8])
    @pytest.mark.parametrize("n", [60, 90, 120])
    def test_generator_graphs_of_girth_six_and_eight(self, n, min_girth):
        for seed in range(2):
            g = gen_random_girth5(n, None, seed, min_girth)
            got = girth(g)
            assert got >= min_girth
            assert got == bfs_girth(g) == girth_by_edge_removal(g), (seed, got)

    def test_large_forest_is_infinite(self):
        assert girth(gen_random_forest(20_000, split_prob=0.05, seed=1)) == math.inf

    def test_short_cycle_under_many_pendants(self):
        # C_5 with 20,000 leaves hung round-robin on its vertices
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i % 5, i) for i in range(5, 20_005)]
        assert girth(Graph.from_edges(20_005, edges)) == 5


class TestComponentsForest:
    def test_path_connected(self, path4):
        assert nx_components(path4) == [[0, 1, 2, 3]]
        assert is_forest(path4)

    def test_cycle_not_forest(self, cycle5):
        assert not is_forest(cycle5)

    def test_star_plus_edge(self):
        g = build_star_union([3, 1])
        assert len(nx_components(g)) == 2
        assert is_forest(g)

    @settings(max_examples=60)
    @given(random_graphs())
    def test_forest_iff_infinite_girth(self, g):
        assert is_forest(g) == (girth(g) == math.inf)
        assert g.m == g.n - len(nx_components(g)) or not is_forest(g)

    @settings(max_examples=60)
    @given(st.one_of(
        random_graphs(),
        st.builds(gen_random_forest, st.integers(min_value=1, max_value=30),
                  split_prob=st.floats(min_value=0, max_value=1),
                  seed=st.integers(min_value=0, max_value=2**32)),
        st.sampled_from([Graph.from_edges(0, []), Graph.from_edges(1, [])]),
    ))
    def test_forest_iff_edges_match_components(self, g):
        assert is_forest(g) == (g.m == g.n - len(nx_components(g)))

    def test_n_or_more_edges_answer_without_components(self, cycle5, monkeypatch):
        def unexpected(graph):
            raise AssertionError("the 2-core peel ran")

        monkeypatch.setattr(graph_module, "_two_core", unexpected)
        assert not is_forest(cycle5)
        assert not is_forest(heawood())


class TestRemoveVertices:
    def test_star_center(self):
        h, mapping = remove_vertices(build_star(4), {0})
        assert (h.n, h.m) == (3, 0)
        assert mapping == {1: 0, 2: 1, 3: 2}

    def test_identity(self, path4):
        h, mapping = remove_vertices(path4, set())
        assert h == path4
        assert mapping == {v: v for v in range(4)}

    def test_inner_path_vertex(self, path4):
        h, _ = remove_vertices(path4, {1})
        assert sorted(h.degrees()) == [0, 1, 1]

    def test_unknown_vertex(self, path4):
        with pytest.raises(ValueError):
            remove_vertices(path4, {9})

    @settings(max_examples=60)
    @given(random_graphs(), st.data())
    def test_girth_never_decreases(self, g, data):
        removed = data.draw(
            st.sets(st.integers(min_value=0, max_value=g.n - 1))
            if g.n
            else st.just(set())
        )
        h, _ = remove_vertices(g, removed)
        assert girth(h) >= girth(g)


class TestCondition:
    def test_star_center_removed(self):
        assert check_fk_condition(build_star(4), {0}, 3)

    def test_path_two_inner(self, path4):
        assert check_fk_condition(path4, set(), 2)

    def test_star_unique_max(self):
        assert not check_fk_condition(build_star(4), set(), 2)

    def test_keeping_k_minus_one_vertices(self):
        for n in (2, 4, 7):
            g = gen_random_forest(n, seed=n)
            for k in (2, 3):
                if n >= k - 1:
                    assert check_fk_condition(g, set(range(k - 1, n)), k)

    @settings(max_examples=60)
    @given(random_graphs(), st.data())
    def test_matches_remove_vertices_path(self, g, data):
        removed = data.draw(
            st.sets(st.integers(min_value=0, max_value=g.n - 1))
            if g.n
            else st.just(set())
        )
        deg = residual_degrees(g, removed)
        live = [d for d in deg if d >= 0]
        h, old_to_new = remove_vertices(g, removed)
        h_max = max(map(len, h.adj), default=0)
        tops = [v for v in range(h.n) if h.degree(v) == h_max]
        assert len(live) == h.n
        if h.n:
            assert max(live) == h_max
            assert live.count(max(live)) == len(tops)
        for v in range(g.n):
            assert deg[v] == (h.degree(old_to_new[v]) if v in old_to_new else -1)
        new_to_old = {new: old for old, new in old_to_new.items()}
        for k in (2, 3):
            assert check_fk_condition(g, removed, k) == (h.n < k or len(tops) >= k)
            if h.n >= k and check_fk_condition(g, removed, k):
                cert = make_certificate(g, removed, k, "brute")
                assert cert.residual_max_degree == h_max
                assert cert.witnesses == tuple(sorted(new_to_old[v] for v in tops))


class TestCertificates:
    @pytest.fixture
    def solved(self):
        # f_3 = 3: the least X deletes the three star centres, leaving
        # isolated vertices only
        forest = build_star_union([5, 4, 3])
        value, cert = compute_fk_forest(forest, 3)
        assert (value, cert.x, cert.residual_max_degree) == (3, (0, 6, 11), 0)
        return forest, cert

    def test_rejects_tampered_copies(self, solved):
        forest, cert = solved
        assert validate_certificate(forest, cert, 3)
        w = cert.witnesses
        tampered = [
            replace(cert, residual_max_degree=cert.residual_max_degree + 1),
            replace(cert, witnesses=w[:2]),
            replace(cert, witnesses=(cert.x[0],) + w[1:]),
            replace(cert, witnesses=w[:2] + (forest.n,)),
            replace(cert, witnesses=w[:2] + (w[2] - forest.n,)),
            replace(cert, order_below_k=True),
        ]
        below = make_certificate(forest, range(2, forest.n), 3, "dp")
        assert below.order_below_k and validate_certificate(forest, below, 3)
        tampered.append(replace(below, order_below_k=False))
        tampered += [
            replace(cert, x=cert.x[:i] + cert.x[i + 1 :]) for i in range(len(cert.x))
        ]
        # a repeated or out-of-order id: len(X) would overstate the deletions
        tampered += [
            replace(cert, x=cert.x + (cert.x[0],)),
            replace(cert, x=cert.x[1:] + cert.x[:1]),
            replace(cert, witnesses=w + (w[-1],)),
            replace(cert, witnesses=w[::-1]),
            replace(below, x=below.x + (below.x[-1],)),
        ]
        for bad in tampered:
            assert validate_certificate(forest, bad, 3) is False, bad
        for unknown in (forest.n, -1):
            with pytest.raises(ValueError):
                validate_certificate(forest, replace(cert, x=cert.x + (unknown,)), 3)
        with pytest.raises(ValueError):
            make_certificate(forest, range(forest.n), 0, "dp")

    def test_no_graph_is_built(self, solved, monkeypatch):
        forest, cert = solved

        def refuse(*args, **kwargs):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
        monkeypatch.setattr(Graph, "__post_init__", refuse)
        assert check_fk_condition(forest, cert.x, 3)
        assert make_certificate(forest, cert.x, 3, "dp") == cert
        assert validate_certificate(forest, cert, 3)
