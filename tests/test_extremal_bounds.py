import time
from fractions import Fraction
from math import comb

import pytest

from degeq import (
    a_sequence,
    asymptotic_report,
    bound_corollary2,
    bound_theorem1,
    bound_theorem2,
    bound_theorem3,
    build_extremal_forest,
    build_path,
    build_star,
    build_star_union,
    c_k,
    compute_fk_forest,
    corollary1_check,
    degree_profile,
    equalize3_forest,
    extremal_size,
    girth,
    moore_edge_bound_ok,
    validate_certificate,
)
from degeq.bounds import (
    corollary1_threshold_iii,
    corollary2_t,
    lemma3_surplus,
    minimal_t,
    profile_value,
    theorem1_hypothesis,
    theorem1_t,
    theorem2_t,
    theorem3_t,
    weighted_degrees,
)
from degeq import extremal
from degeq.graph import MAX_ORDER
from conftest import all_forests
from reference import a_closed_form


class TestASequence:
    @pytest.mark.parametrize("i, expected", [(1, 1), (2, 3), (3, 3), (4, 7), (7, 13)])
    def test_values(self, i, expected):
        assert a_sequence(i) == expected

    def test_recursion_equals_closed_form(self):
        for i in range(1, 201):
            assert a_sequence(i) == a_closed_form(i)

    def test_closed_form_pairs(self):
        for i in range(1, 101):
            assert a_sequence(2 * i) == a_sequence(2 * i + 1) == i * i + i + 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            a_sequence(0)


class TestExtremalForest:
    def test_t1_is_single_edge(self):
        g = build_extremal_forest(1)
        assert (g.n, g.m) == (2, 1)

    def test_t3_shape(self):
        g = build_extremal_forest(3)
        assert g.m == 7
        assert degree_profile(g).deltas[:2] == (3, 3)

    @pytest.mark.parametrize("t, expected_m", [(2, 4), (3, 7), (4, 14), (7, 47)])
    def test_sizes(self, t, expected_m):
        assert extremal_size(t) == expected_m
        assert build_extremal_forest(t).m == expected_m

    def test_order_past_the_limit_is_refused_unbuilt(self):
        # F_227 is the largest F_t within the limit
        assert extremal_size(227) + 227 == 988_074 <= MAX_ORDER
        assert build_extremal_forest(18).n == extremal_size(18) + 18
        with pytest.raises(ValueError, match="^F_228 has 1001186 vertices"):
            build_extremal_forest(228)

    @pytest.mark.parametrize(
        "build, admitted, refused",
        [(build_star, 10**6, [10**6 + 1, 10**20]),
         (build_path, 10**6, [10**6 + 1, 10**20]),
         (build_star_union, [10**6 - 2, 0], [[10**6 - 1, 0], [1, 10**20]])],
        ids=["star", "path", "star-union"],
    )
    def test_builders_refuse_orders_past_the_limit_unbuilt(
        self, monkeypatch, build, admitted, refused
    ):
        # a member of 10**6 vertices reaches the graph constructor (stubbed
        # here, so the bound times the builders alone) and one of 10**6 + 1
        # or 10**20 is refused before its adjacency is listed
        monkeypatch.setattr(extremal, "Graph", lambda n, adj, m: n)
        assert MAX_ORDER == 10**6
        start = time.perf_counter()
        assert build(admitted) == MAX_ORDER
        for too_many in refused:
            with pytest.raises(ValueError, match=r"vertices, over 1000000$"):
                build(too_many)
        assert time.perf_counter() - start < 1.0

    def test_size_formula_matches_sum_up_to_50(self):
        for t in range(1, 51):
            assert extremal_size(t) == sum(a_sequence(i) for i in range(1, t + 1))

    def test_builders(self):
        assert build_star(5).degrees() == (4, 1, 1, 1, 1)
        assert build_path(4).degrees() == (1, 2, 2, 1)
        union = build_star_union([2, 0])
        assert union.n == 4 and union.m == 2


class TestBoundEvaluators:
    def test_theorem1_small_values(self):
        assert bound_theorem1(1) == 6
        assert bound_theorem1(2) == 13
        assert bound_theorem1(3) == 24

    def test_theorem1_integrality(self):
        for t in range(1, 200):
            value = t**3 + 6 * t**2 + 17 * t + 12
            assert value % 6 == 0

    def test_theorem2(self):
        assert bound_theorem2(2) == 8
        assert bound_theorem2(3) == comb(5, 2) + 2

    def test_corollary2(self):
        assert bound_corollary2(2) == 4
        assert bound_corollary2(3) == Fraction(27, 18) + 3 + Fraction(33, 18) + 1

    def test_c_k(self):
        assert c_k(2) == -2
        assert c_k(3) == -13
        # defining identity: C((k-1)^2 + 2, 2) + c_k = k - 1
        for k in range(2, 8):
            assert comb((k - 1) ** 2 + 2, 2) + c_k(k) == k - 1

    def test_theorem3(self):
        assert bound_theorem3(2, 1) == comb(3, 2) - 2
        assert bound_theorem3(3, 4) == comb(6, 2) - 13
        with pytest.raises(ValueError):
            bound_theorem3(3, 3)

    def test_minimal_t_monotone_search(self):
        g = build_star_union([2, 1])
        t = minimal_t(lambda s: theorem1_hypothesis(g, s), 1)
        assert theorem1_hypothesis(g, t)
        assert t == 1 or not theorem1_hypothesis(g, t - 1)


def theorem1_star_union(t):
    """S_t: stars with C(i + 1, 2) + 1 leaves for i = t down to 1."""
    return build_star_union([comb(i + 1, 2) + 1 for i in range(t, 0, -1)])


@pytest.mark.parametrize("t", range(1, 13))
def test_theorem1_is_tight_on_star_unions(t):
    # S_t sits on the threshold for t - 1 deletions and needs t: Theorem 1
    # is best possible.  For t = 1 the threshold polynomial at 0 is 12 / 6,
    # below bound_theorem1's domain.
    forest = theorem1_star_union(t)
    assert forest.m == (bound_theorem1(t - 1) if t > 1 else 2)
    assert theorem1_t(forest) == t
    value, cert = compute_fk_forest(forest, 2)
    assert value == t
    assert validate_certificate(forest, cert, 2)


class TestProfileSums:
    def test_sums_match_plain_formulas(self):
        for forest in all_forests(7):
            profile = degree_profile(forest)
            for k in range(2, 12):
                values = [profile_value(profile, i) for i in range(1, k + 1)]
                assert weighted_degrees(profile, k) == sum(
                    i * d for i, d in enumerate(values[:-1], 1)
                )
                assert lemma3_surplus(profile, k) == sum(values[:-1]) - (k - 1) * values[-1]

    def test_huge_k_sums_stop_at_the_profile(self, petersen):
        profile = degree_profile(petersen)
        k = 10**20
        assert weighted_degrees(profile, k) == weighted_degrees(profile, 11) == 3 * 55
        assert lemma3_surplus(profile, k) == 30
        assert theorem3_t(profile, k) == (k - 1) ** 2


class TestCorollary1:
    def test_extremal_t3_tight(self):
        forest = build_extremal_forest(3)
        prof = degree_profile(forest)
        fk, _ = compute_fk_forest(forest, 3)
        assert fk == 3
        entry = corollary1_check(prof, 2, fk=fk)
        assert entry.status == "pass"
        # clause (ii) is tight at i=2: 3 + 2*3 = C(4,2) + 3 = 9
        i, lhs, rhs = entry.conclusion["ii_values"][0]
        assert (i, lhs, rhs) == (2, 9, 9)

    def test_threshold_iii_value(self):
        assert corollary1_threshold_iii(2) == 5

    def test_low_degree_profile_fails_clause_i(self):
        forest = build_star_union([4, 1, 1])  # second-largest degree is 1
        prof = degree_profile(forest)
        entry = corollary1_check(prof, 2)
        assert entry.conclusion["i"] is False
        # contrapositive: three maximum degrees must then cost at most t
        fk, _ = compute_fk_forest(forest, 3)
        assert fk <= 2

    def test_profile_too_short(self):
        with pytest.raises(ValueError):
            corollary1_check(degree_profile(build_path(3)), 3)

    def test_report_only_without_fk(self):
        entry = corollary1_check(degree_profile(build_extremal_forest(3)), 2)
        assert entry.status == "report"


class TestAsymptotics:
    def test_moore_inequality_petersen(self, petersen):
        assert moore_edge_bound_ok(petersen.n, petersen.m, 2)
        assert 15**2 <= 4 * 10**3

    def test_moore_matches_plain_formula(self):
        for n in range(31):
            for m in range(comb(n, 2) + 1):
                for p in range(1, 41):
                    assert moore_edge_bound_ok(n, m, p) == (m**p <= 2**p * n ** (p + 1))

    def test_moore_past_the_crossover(self):
        # m up to 4 n^2 and p past (2n + 1) * n.bit_length(), where the check
        # stops computing powers
        for n in range(9):
            for m in range(4 * n * n + 1):
                for p in range(1, (2 * n + 1) * n.bit_length() + 4):
                    assert moore_edge_bound_ok(n, m, p) == (m**p <= 2**p * n ** (p + 1))

    def test_moore_at_huge_p(self):
        # m**p at p = 10**20 could not be computed at all
        assert moore_edge_bound_ok(10, 20, 10**20)
        assert not moore_edge_bound_ok(10, 21, 10**20)
        assert not moore_edge_bound_ok(10**6, 3 * 10**6, 10**20)

    def test_report_entries(self, petersen):
        entries = asymptotic_report(petersen, 3, 2, girth(petersen))
        by_claim = {e.claim: e for e in entries}
        moore = by_claim["moore"]
        assert moore.hypothesis_holds is True  # girth 5 > 4
        assert moore.status == "pass"
        assert by_claim["cor3"].status == "report"
        assert by_claim["cor3"].conclusion["leading_divisor"] == 18
        assert by_claim["cor5"].hypothesis_holds is False

    def test_forest_constant(self):
        forest = build_path(8)
        entries = asymptotic_report(forest, 2, 2, float("inf"))
        cor5 = next(e for e in entries if e.claim == "cor5")
        assert cor5.hypothesis_holds is True
        assert cor5.conclusion["constant"] == pytest.approx(6 ** (1 / 3))


# Largest (f_2, f_3, f_4, f_5) over the forests of each order n
CENSUS_MAXIMA = {
    1: (0, 0, 0, 0), 2: (0, 0, 0, 0), 3: (1, 1, 0, 0), 4: (1, 2, 1, 0),
    5: (1, 2, 2, 1), 6: (1, 2, 2, 2), 7: (2, 2, 2, 3),
    **dict.fromkeys(range(8, 12), (2, 3, 3, 4)),
}


def test_forest_census():
    """Every forest of order <= 11, one per isomorphism class: the largest
    f_k for k = 2..5 by order, Theorems 1 and 2 and Corollary 2 as bounds on
    f_2 and f_3, and Theorem 2's procedure within its least budget."""
    maxima, count = {}, 0
    for n in CENSUS_MAXIMA:
        top = [0] * 4
        for forest in all_forests(n):
            count += 1
            fk = [compute_fk_forest(forest, k)[0] for k in range(2, 6)]
            top = [max(a, b) for a, b in zip(top, fk)]
            t = theorem2_t(degree_profile(forest))
            assert fk[0] <= theorem1_t(forest), forest.edges()
            assert fk[1] <= min(t, corollary2_t(forest)), forest.edges()
            cert = equalize3_forest(forest, t)
            assert validate_certificate(forest, cert, 3), forest.edges()
            assert len(cert.x) <= t, forest.edges()
        maxima[n] = tuple(top)
    assert maxima == CENSUS_MAXIMA
    assert count == 1347  # OEIS A005195 summed over orders 1..11
