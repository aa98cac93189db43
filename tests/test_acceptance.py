"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Corpora are fixed seed
lists, so every run checks the identical instances.
"""

from __future__ import annotations

import time

from degeq import (
    brute_force_fk,
    build_extremal_forest,
    build_star_union,
    bound_theorem1,
    bound_theorem2,
    a_sequence,
    c_k,
    compute_fk_forest,
    corollary1_check,
    degree_profile,
    equalize3_forest,
    extremal_size,
    gen_random_forest,
    gen_random_girth5,
    girth,
    girth5_equalize,
    moore_edge_bound_ok,
    validate_certificate,
)
from degeq.bench import run_suite
from degeq.forest_dp import _best_score, _build_skeleton
from degeq.bounds import (
    corollary2_hypothesis,
    minimal_t,
    theorem1_hypothesis,
    theorem2_hypothesis,
    theorem3_hypothesis,
)
from degeq.prng import instance_seed

from conftest import all_forests
from reference import decode_score, lemma3_hypothesis, subforest_sweep


def _report(criterion: str, failures: list[str]) -> None:
    count = len(failures)
    status = "PASS" if not failures else (
        f"FAIL ({count} problem{'s' if count != 1 else ''})"
    )
    print(f"\nACCEPTANCE {criterion}: {status}")
    for failure in failures[:20]:
        print(f"    {failure}")
    assert not failures, f"{criterion}: {failures[:20]}"


def _seeded_forests(count: int, n_lo: int, n_hi: int, base_seed: int):
    """The fixed corpus: instance i has order cycling n_lo..n_hi and seed
    derived from (base_seed, i)."""
    span = n_hi - n_lo + 1
    for i in range(count):
        n = n_lo + i % span
        yield i, gen_random_forest(n, split_prob=0.3, seed=instance_seed(base_seed, i))


def test_criterion_1_oracle_equivalence(walk_only):
    # the tree program's walk against the oracle: with the pre-walk search
    # on, both sides would share that search on most of these forests
    failures = []
    start = time.monotonic()
    checked = 0
    corpus = [
        (f"forest n={n} #{idx}", forest)
        for n in range(1, 10)
        for idx, forest in enumerate(all_forests(n))
    ]
    corpus += [
        (f"random #{i} n={forest.n}", forest)
        for i, forest in _seeded_forests(500, 10, 16, base_seed=101)
    ]
    for label, forest in corpus:
        for k in (2, 3):
            dp_value, dp_cert = compute_fk_forest(forest, k)
            bf_value, bf_cert = brute_force_fk(forest, k)
            checked += 1
            if dp_value != bf_value:
                failures.append(f"{label} k={k}: dp={dp_value} brute={bf_value}")
            elif dp_cert.x != bf_cert.x:
                failures.append(f"{label} k={k}: X={dp_cert.x} brute={bf_cert.x}")
            elif not validate_certificate(forest, dp_cert, k):
                failures.append(f"{label} k={k}: invalid certificate")
    elapsed = time.monotonic() - start
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.0f}s exceeds 10 minutes")
    print(f"\n    [criterion 1: {checked} comparisons in {elapsed:.1f}s]")
    _report("criterion 1 (oracle equivalence, exhaustive n<=9 + 500 random)", failures)


def test_criterion_2_dp_recursion_validation():
    failures = []
    passes_checked = 0
    for i, forest in _seeded_forests(200, 4, 12, base_seed=202):
        n = forest.n
        skeleton = _build_skeleton(forest)
        for k in (2, 3):
            table, least = subforest_sweep(forest, k)
            for delta in range(max(map(len, forest.adj), default=0) + 1):
                # the best order over every S, and the least X of that order
                orders = [order for (_, d), order in table.items() if d == delta]
                expected = (max(orders), least[delta][1]) if orders else None
                actual = decode_score(_best_score(skeleton, n, k, delta), n)
                passes_checked += 1
                if actual != expected:
                    failures.append(
                        f"forest #{i} n={n} k={k} delta={delta}: "
                        f"dp={actual} oracle={expected}"
                    )
    print(f"\n    [criterion 2: {passes_checked} counting passes validated]")
    _report("criterion 2 (counting pass vs exhaustive oracle)", failures)


def test_criterion_3_paper_fixtures():
    failures = []
    value, _ = compute_fk_forest(build_star_union([3, 1]), 3)
    if value != 2:
        failures.append(f"f_3(K_1,3 + K_2) = {value}, stated 2")
    value, _ = compute_fk_forest(build_star_union([5, 2, 2]), 3)
    if value != 3:
        failures.append(f"f_3(K_1,5 + P_3 + P_3) = {value}, stated 3")
    # F_1 is a single edge: its order 2 is already less than k = 3, so the
    # definition's "or order less than k" clause holds with no deletion.
    value, _ = compute_fk_forest(build_extremal_forest(1), 3)
    if value != 0:
        failures.append(f"f_3(F_1) = {value}, expected 0 (order 2 < k = 3)")
    for t in range(2, 8):
        value, _ = compute_fk_forest(build_extremal_forest(t), 3)
        if value != t:
            failures.append(f"f_3(F_{t}) = {value}, stated {t}")
    for t in range(1, 51):
        if build_extremal_forest(t).m != extremal_size(t):
            failures.append(f"m(F_{t}) != closed form")
    for i in range(1, 101):
        if not (a_sequence(2 * i) == a_sequence(2 * i + 1) == i * i + i + 1):
            failures.append(f"a-sequence closed form fails at i={i}")
    if bound_theorem1(1) != 6:
        failures.append(f"n(1) = {bound_theorem1(1)}, stated 6")
    _report("criterion 3 (paper fixtures, exact)", failures)


def test_criterion_4_theorem1_empirical():
    failures = []
    applicable = {t: 0 for t in range(1, 6)}
    for i, forest in _seeded_forests(1000, 2, 30, base_seed=404):
        f2 = None
        for t in range(1, 6):
            if not theorem1_hypothesis(forest, t):
                continue
            applicable[t] += 1
            if f2 is None:
                f2, _ = compute_fk_forest(forest, 2)
            if f2 > t:
                failures.append(
                    f"forest #{i} n={forest.n} m={forest.m}: f_2={f2} > t={t}"
                )
    if min(applicable.values()) == 0:
        failures.append(f"hypothesis never applicable for some t: {applicable}")
    print(f"\n    [criterion 4: applicable counts per t: {applicable}]")
    _report("criterion 4 (size bound for two maximum degrees, 1000 forests)", failures)


def test_criterion_5_theorem2_and_certificates():
    failures = []
    applicable = {t: 0 for t in range(2, 7)}
    for i, forest in _seeded_forests(1000, 3, 20, base_seed=505):
        profile = degree_profile(forest)
        f3 = None
        for t in range(2, 7):
            if not theorem2_hypothesis(profile, t):
                continue
            applicable[t] += 1
            cert = equalize3_forest(forest, t)
            if not validate_certificate(forest, cert, 3) or len(cert.x) > t:
                failures.append(f"forest #{i} t={t}: bad certificate {cert.to_dict()}")
            if f3 is None:
                f3, _ = compute_fk_forest(forest, 3)
            if f3 > t:
                failures.append(f"forest #{i} t={t}: f_3={f3} exceeds budget")
    if min(applicable.values()) == 0:
        failures.append(f"hypothesis never applicable for some t: {applicable}")
    # tightness: the heavy star union misses the budget-2 hypothesis (9 > 8)
    heavy = degree_profile(build_star_union([5, 2, 2]))
    if theorem2_hypothesis(heavy, 2):
        failures.append("tightness witness unexpectedly satisfies the t=2 bound")
    if heavy.deltas[0] + 2 * heavy.deltas[1] != 9 or bound_theorem2(2) != 8:
        failures.append("tightness arithmetic drifted")
    print(f"\n    [criterion 5: applicable counts per t: {applicable}]")
    _report("criterion 5 (three-degree budget + constructive certificates)", failures)


def test_criterion_6_corollaries_1_and_2():
    failures = []
    corpus = [build_extremal_forest(t) for t in range(2, 7)]
    corpus += [build_star_union(sizes) for sizes in ([4, 4, 2], [6, 5, 3, 1], [2] * 6)]
    corpus += [
        forest for _, forest in _seeded_forests(300, 4, 18, base_seed=606)
    ]
    checked_cor1 = 0
    for idx, forest in enumerate(corpus):
        f3, _ = compute_fk_forest(forest, 3)
        profile = degree_profile(forest)
        for t in range(2, 6):
            if f3 > t:
                entry = corollary1_check(profile, t, fk=f3)
                checked_cor1 += 1
                if entry.status != "pass":
                    failures.append(
                        f"corpus #{idx} t={t}: degree bounds violated "
                        f"{entry.conclusion}"
                    )
            if corollary2_hypothesis(forest, t) and f3 > t:
                failures.append(f"corpus #{idx} t={t}: size bound violated f_3={f3}")
    if checked_cor1 == 0:
        failures.append("no corpus instance ever had f_3 > t")
    # tight case: the t=3 extremal forest at t=2, i=2 gives equality 9 = 9
    entry = corollary1_check(degree_profile(build_extremal_forest(3)), 2, fk=3)
    tight = [v for v in entry.conclusion["ii_values"] if v[0] == 2]
    if not tight or tight[0][1] != 9 or tight[0][2] != 9:
        failures.append(f"expected tight 9 = 9 case, got {entry.conclusion}")
    print(f"\n    [criterion 6: {checked_cor1} corollary-1 checks]")
    _report("criterion 6 (degree-sum corollaries)", failures)


def _girth5_corpus(count: int, base_seed: int):
    for i in range(count):
        n = 5 + i % 12  # 5..16
        m = None if i % 2 else min(n + i % 5, (n * 3) // 2)
        try:
            yield i, gen_random_girth5(n, m, seed=instance_seed(base_seed, i))
        except ValueError:
            yield i, gen_random_girth5(n, None, seed=instance_seed(base_seed, i))


def test_criterion_7_girth5_procedures():
    failures = []
    cert_checks = 0
    bound_checks = 0
    for i, graph in _girth5_corpus(300, base_seed=707):
        g = girth(graph)
        if g < 5:
            failures.append(f"instance #{i}: generator girth violation")
            continue
        profile = degree_profile(graph)
        for k in (2, 3):
            fk, _ = brute_force_fk(graph, k)
            if graph.n >= k:
                surplus = sum(profile.deltas[: k - 1]) - (k - 1) * profile.deltas[k - 1]
                t = max((k - 1) ** 2, surplus)
                if lemma3_hypothesis(profile, k, t):
                    cert = girth5_equalize(graph, k, t, g)
                    cert_checks += 1
                    if not validate_certificate(graph, cert, k) or len(cert.x) > t:
                        failures.append(
                            f"instance #{i} k={k} t={t}: bad certificate"
                        )
                    if fk > t:
                        failures.append(f"instance #{i} k={k}: f_k={fk} > t={t}")
            t3 = minimal_t(
                lambda s, k=k: theorem3_hypothesis(profile, k, s), (k - 1) ** 2
            )
            bound_checks += 1
            if fk > t3:
                failures.append(f"instance #{i} k={k}: f_k={fk} > weighted-bound t={t3}")
    if c_k(2) != -2 or c_k(3) != -13:
        failures.append(f"constants drifted: c_2={c_k(2)} c_3={c_k(3)}")
    print(f"\n    [criterion 7: {cert_checks} certificates, {bound_checks} bounds]")
    _report("criterion 7 (girth-5 procedures and weighted bound)", failures)


def test_criterion_8_moore_sanity():
    failures = []
    count = {2: 0, 3: 0}
    for i, graph in _girth5_corpus(150, base_seed=808):
        if girth(graph) > 4:
            count[2] += 1
            if not moore_edge_bound_ok(graph.n, graph.m, 2):
                failures.append(f"girth5 #{i}: edge bound fails at p=2")
    for i in range(150):
        n = 6 + i % 14
        graph = gen_random_girth5(n, None, seed=instance_seed(909, i), min_girth=7)
        if girth(graph) <= 6:
            failures.append(f"girth7 #{i}: generator girth violation")
            continue
        count[3] += 1
        if not moore_edge_bound_ok(graph.n, graph.m, 3):
            failures.append(f"girth7 #{i}: edge bound fails at p=3")
    if count[2] == 0 or count[3] == 0:
        failures.append(f"no instances checked: {count}")
    print(f"\n    [criterion 8: instances checked per p: {count}]")
    _report("criterion 8 (Moore edge bound on high-girth corpora)", failures)


def test_criterion_9_performance_and_parallel_determinism():
    failures = []
    # seeds whose forests need deletions: f_2 = 1 on the first n = 100
    # forest and f_2 = f_3 = 2 on the other two.  The pre-walk search
    # decides all three, the first at its size-1 pick, with no counting pass
    forest100 = gen_random_forest(100, split_prob=0.2, seed=instance_seed(900, 1))
    start = time.monotonic()
    value_a, cert_a = compute_fk_forest(forest100, 2)
    t_k2 = time.monotonic() - start
    if t_k2 >= 60:
        failures.append(f"k=2 n=100 took {t_k2:.1f}s")

    second100 = gen_random_forest(100, split_prob=0.2, seed=instance_seed(900, 13))
    start = time.monotonic()
    value_c, cert_c = compute_fk_forest(second100, 2)
    t_second = time.monotonic() - start
    if t_second >= 60:
        failures.append(f"k=2 n=100 (f_2 = 2) took {t_second:.1f}s")

    forest60 = gen_random_forest(60, split_prob=0.2, seed=instance_seed(900, 0))
    start = time.monotonic()
    value_b, cert_b = compute_fk_forest(forest60, 3)
    t_k3 = time.monotonic() - start
    if t_k3 >= 60:
        failures.append(f"k=3 n=60 took {t_k3:.1f}s")

    for forest, k, least, (value, cert) in (
        (forest100, 2, 1, (value_a, cert_a)),
        (second100, 2, 2, (value_c, cert_c)),
        (forest60, 3, 2, (value_b, cert_b)),
    ):
        if not validate_certificate(forest, cert, k) or len(cert.x) != value:
            failures.append(f"performance run k={k}: invalid certificate")
        if value < least:
            failures.append(f"performance run k={k}: f_k = {value} < {least}")
    print(
        f"\n    [criterion 9: k=2 n=100 in {t_k2:.2f}s and {t_second:.2f}s, "
        f"k=3 n=60 in {t_k3:.2f}s]"
    )
    _report("criterion 9 (performance and certificates)", failures)


def test_bench_oracle_suite_is_nontrivial():
    # a row with f_k <= 1 times an early exit or a one-vertex scan, not a search
    rows = run_suite("oracle")
    assert rows
    assert all(row.value >= 2 for row in rows), [(r.name, r.value) for r in rows]
    assert all(row.method == "brute" for row in rows), [(r.name, r.method) for r in rows]


def test_bench_small_suite_is_nontrivial():
    # a row with f_k <= 1 times the already-equalized exit or the size-1
    # pick, which the search runs at any budget, not a search of size 2 or
    # more or a counting pass
    rows = run_suite("small")
    assert "forest-n12" in {row.name for row in rows}
    assert all(row.value >= 2 for row in rows), [(r.name, r.k, r.value) for r in rows]


def test_bench_forest_dp_suite_is_nontrivial():
    # a row with f_k <= 1 times the already-equalized exit or the size-1
    # pick, which the search runs at any budget, not a search of size 2 or
    # more or a counting pass
    rows = run_suite("forest-dp")
    assert rows
    assert all(row.value >= 2 for row in rows), [(r.name, r.k, r.value) for r in rows]
