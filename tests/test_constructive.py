import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degeq
from degeq import (
    Graph,
    PreconditionError,
    SplitMix64,
    build_extremal_forest,
    build_star,
    build_star_union,
    compute_fk_forest,
    degree_profile,
    equalize3_forest,
    gen_random_forest,
    gen_random_girth5,
    girth,
    girth5_equalize,
    instance_seed,
    peel_removal,
    validate_certificate,
)
from degeq.bounds import theorem2_hypothesis
from degeq.graph import parse_graph

from reference import remove_vertices


class TestPeel:
    def test_path4_within_budget(self, path4):
        cert = peel_removal(path4, 3)
        assert validate_certificate(path4, cert, 3)
        assert len(cert.x) <= 4  # (k-1)^2 since the 3rd degree is below k-1

    def test_edgeless_noop(self):
        cert = peel_removal(Graph.from_edges(5, []), 3)
        assert cert.x == ()
        assert cert.method == "peel"

    def test_star_union(self):
        g = build_star_union([3, 1])
        cert = peel_removal(g, 3)
        assert validate_certificate(g, cert, 3)
        assert len(cert.x) <= 4

    def test_budget_under_case_hypothesis(self):
        for seed in range(60):
            n = 4 + seed % 9
            g = gen_random_forest(n, split_prob=0.35, seed=seed)
            for k in (2, 3):
                cert = peel_removal(g, k)
                assert validate_certificate(g, cert, k)
                prof = degree_profile(g)
                if g.n >= k and prof.deltas[k - 1] < k - 1:
                    assert len(cert.x) <= (k - 1) ** 2


class TestGirth5:
    def test_star_trim(self):
        cert = girth5_equalize(build_star(5), 2, 3, girth(build_star(5)))
        assert cert.x == (2, 3, 4)
        assert cert.residual_max_degree == 1
        assert cert.witnesses == (0, 1)

    def test_cycle_noop(self, cycle5):
        cert = girth5_equalize(cycle5, 2, 1, girth(cycle5))
        assert cert.x == ()

    def test_petersen_regular_noop(self, petersen):
        cert = girth5_equalize(petersen, 3, 4, girth(petersen))
        assert cert.x == ()

    def test_girth_precondition(self):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(PreconditionError) as err:
            girth5_equalize(triangle, 2, 5, girth(triangle))
        assert err.value.what == "girth"

    def test_budget_precondition(self, petersen):
        with pytest.raises(PreconditionError) as err:
            girth5_equalize(petersen, 3, 3, girth(petersen))
        assert err.value.what == "t"

    def test_hypothesis_precondition(self):
        star = build_star(9)  # surplus 8 - 1 = 7 > t = 4
        with pytest.raises(PreconditionError) as err:
            girth5_equalize(star, 2, 4, girth(star))
        assert err.value.what == "hypothesis"

    def test_all_top_witnesses_land_on_kth_degree(self):
        for seed in range(80):
            n = 6 + seed % 9
            g = gen_random_girth5(n, None, seed=seed)
            prof = degree_profile(g)
            for k in (2, 3):
                if g.n < k or prof.deltas[k - 1] < k - 1:
                    continue
                surplus = sum(prof.deltas[: k - 1]) - (k - 1) * prof.deltas[k - 1]
                t = max((k - 1) ** 2, surplus)
                cert = girth5_equalize(g, k, t, girth(g))
                assert validate_certificate(g, cert, k)
                assert len(cert.x) <= t
                residual, old_to_new = remove_vertices(g, cert.x)
                for i in range(k):
                    witness = prof.witnesses[i]
                    assert residual.degree(old_to_new[witness]) == prof.deltas[k - 1]

    def test_delegates_to_peel_below_degree_threshold(self):
        g = build_star_union([1, 1, 1])  # third degree 1 < k - 1 = 2
        cert = girth5_equalize(g, 3, 4, girth(g))
        assert cert.method == "peel"
        assert validate_certificate(g, cert, 3)
        assert len(cert.x) <= 4


class TestEqualize3Forest:
    def test_fixture_heavy_star(self):
        forest = build_star_union([5, 2, 2])
        cert = equalize3_forest(forest, 3)
        assert validate_certificate(forest, cert, 3)
        assert len(cert.x) == 3  # matches the exact value

    def test_fixture_extremal_t2(self):
        forest = build_extremal_forest(2)
        cert = equalize3_forest(forest, 2)
        assert validate_certificate(forest, cert, 3)
        assert len(cert.x) == 2

    def test_edgeless_noop(self):
        cert = equalize3_forest(Graph.from_edges(5, []), 2)
        assert cert.x == ()

    def test_not_a_forest(self, cycle5):
        with pytest.raises(PreconditionError):
            equalize3_forest(cycle5, 3)

    def test_budget_too_small(self):
        with pytest.raises(PreconditionError):
            equalize3_forest(build_star(4), 1)

    def test_hypothesis_violation(self):
        forest = build_star_union([5, 2, 2])  # 5 + 2*2 = 9 > 8
        with pytest.raises(PreconditionError) as err:
            equalize3_forest(forest, 2)
        assert err.value.what == "hypothesis"

    @pytest.mark.parametrize(
        "leaf_counts, t",
        [
            ([2], 2),  # short path
            ([2, 2], 2),  # two short paths, non-adjacent degree-2 pair
            ([4], 2),  # star needing center removal
            ([3, 1, 1], 2),  # star plus two matching edges
            ([3, 1], 2),  # star plus one matching edge
            ([4, 2, 1], 3),
            ([6, 3, 3], 4),
        ],
    )
    def test_explicit_shapes(self, leaf_counts, t):
        forest = build_star_union(leaf_counts)
        if not theorem2_hypothesis(degree_profile(forest), t):
            pytest.skip("hypothesis not applicable to this shape")
        cert = equalize3_forest(forest, t)
        assert validate_certificate(forest, cert, 3)
        assert len(cert.x) <= t

    def test_adjacent_degree2_pair_with_matching_edge(self):
        # one path on four vertices plus one matching edge
        forest = parse_graph("6 4\n0 1\n1 2\n2 3\n4 5")
        cert = equalize3_forest(forest, 2)
        assert validate_certificate(forest, cert, 3)
        assert len(cert.x) <= 2

    def test_adjacent_degree2_pair_without_matching_edge(self):
        forest = parse_graph("4 3\n0 1\n1 2\n2 3")
        cert = equalize3_forest(forest, 2)
        assert validate_certificate(forest, cert, 3)
        assert len(cert.x) <= 2

    def test_never_beats_exact_and_respects_budget(self):
        for seed in range(250):
            n = 3 + seed % 14
            forest = gen_random_forest(n, split_prob=0.3, seed=seed)
            prof = degree_profile(forest)
            exact, _ = compute_fk_forest(forest, 3)
            for t in range(2, 8):
                if not theorem2_hypothesis(prof, t):
                    continue
                cert = equalize3_forest(forest, t)
                assert validate_certificate(forest, cert, 3)
                assert exact <= len(cert.x) <= t

    def test_recursion_path(self):
        # Large dominant star forces the removal-and-recurse branch.
        forest = build_star_union([6, 3, 1])
        prof = degree_profile(forest)
        t = 3
        assert theorem2_hypothesis(prof, t)
        assert prof.deltas[0] + prof.deltas[1] - 2 * prof.deltas[2] > t
        cert = equalize3_forest(forest, t)
        assert validate_certificate(forest, cert, 3)
        assert len(cert.x) <= t

    def test_shape_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the base case must still refuse
        # a shape it has no branch for (here residual degrees d1 = 1 below
        # d2 = 2).
        src = str(Path(degeq.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "from degeq import Graph; "
            "from degeq.constructive import _equalize3_base; "
            "_equalize3_base(Graph.from_edges(3, [(0, 1)]), [1, 2, 0], 0, 1, 2)"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode != 0
        assert "AssertionError" in result.stderr


def constructive_inputs() -> list[Graph]:
    """240 seeded forests with shuffled labels, 60 random graphs of girth at
    least 3..6, 80 seeded star unions and F_1..F_10."""
    graphs = []
    for i in range(240):
        n = 2 + i % 24
        split = (0.0, 0.15, 0.35)[i % 3]
        base = gen_random_forest(n, split_prob=split, seed=instance_seed(1601, i))
        label = list(range(n))
        SplitMix64(instance_seed(1602, i)).shuffle(label)
        edges = [(label[u], label[v]) for u, v in base.edges()]
        graphs.append(Graph.from_edges(n, edges))
    for i in range(60):
        n, min_girth = 4 + i % 17, 3 + i % 4
        m = n if min_girth == 3 else None  # saturation at girth 3 is K_n
        graphs.append(gen_random_girth5(n, m, instance_seed(1603, i), min_girth))
    rng = SplitMix64(1604)
    for i in range(80):
        graphs.append(build_star_union([rng.next_u64() % 8 for _ in range(1 + i % 4)]))
    graphs.extend(build_extremal_forest(t) for t in range(1, 11))
    return graphs


def _outcome(procedure, *args) -> str:
    try:
        cert = procedure(*args)
    except PreconditionError as err:
        return f"refused {err}"
    return repr((cert.x, cert.method))


# sha256 of (X, method), or the PreconditionError text, of equalize3_forest at
# t = 2..8, then per k = 2..5 of peel_removal and of girth5_equalize at
# t = (k-1)^2, (k-1)^2 + 3 and 40, for each input above, one line per call
CONSTRUCTIVE_DIGEST = "5c1fc5e74f8d0c60820d29cd45ed38b1aaceea07e22767da64cd17289252e511"


def test_constructive_digest():
    digest = hashlib.sha256()
    for g in constructive_inputs():
        g_girth = girth(g)
        lines = [_outcome(equalize3_forest, g, t) for t in range(2, 9)]
        for k in range(2, 6):
            lines.append(_outcome(peel_removal, g, k))
            for t in ((k - 1) ** 2, (k - 1) ** 2 + 3, 40):
                lines.append(_outcome(girth5_equalize, g, k, t, g_girth))
        digest.update(("\n".join(lines) + "\n").encode())
    assert digest.hexdigest() == CONSTRUCTIVE_DIGEST
