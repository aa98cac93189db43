"""Pins on what verify reports for every claim, and on its agreement with
`degeq bounds` about each theorem's threshold t."""

import hashlib
import json
from collections import Counter

import pytest
from click.testing import CliRunner

from degeq import (
    GeneratorConfig,
    GirthSaturationError,
    Graph,
    PreconditionError,
    constructive,
    run_verification,
    to_edgelist,
    verify,
)
from degeq import bounds
from degeq.cli import main
from degeq.generators import expand_corpus, realize
from degeq.graph import degree_profile, is_forest
from degeq.verify import CLAIM_TAGS

from reference import linear_minimal_t

# A saturated girth-5 graph above the oracle limit (the oracle answers f_2 = 1
# there, and thm3 has no exact solver for f_3 and f_4 >= 2), a small one the
# oracle solves, and F_4.
PINNED = [
    (
        GeneratorConfig("random-girth5", n=30, seed=3),
        [
            ("oracle-equiv", {"k": 2}, "inapplicable", ""),
            ("oracle-equiv", {"k": 3}, "inapplicable", ""),
            ("oracle-equiv", {"k": 4}, "inapplicable", ""),
            ("thm1", {"k": 2}, "inapplicable", ""),
            ("thm2", {"k": 3}, "inapplicable", ""),
            ("cor1", {"k": 3}, "inapplicable", ""),
            ("cor2", {"k": 3}, "inapplicable", ""),
            ("thm3", {"k": 2, "t": 3}, "pass", ""),
            ("thm3", {"k": 3, "t": 7}, "skip", "skip: no exact solver for f_3"),
            ("thm3", {"k": 4, "t": 12}, "skip", "skip: no exact solver for f_4"),
            ("lemma2", {}, "inapplicable", ""),
            ("lemma3-cert", {"k": 2, "t": 2}, "pass", ""),
            ("lemma3-cert", {"k": 3, "t": 4}, "pass", ""),
            ("lemma3-cert", {"k": 4, "t": 9}, "pass", ""),
            ("thm2-cert", {"k": 3}, "inapplicable", ""),
            ("moore", {"p": 2}, "pass", ""),
            ("moore", {"p": 3}, "inapplicable", ""),
        ],
    ),
    (
        GeneratorConfig("random-girth5", n=12, seed=5),
        [
            ("oracle-equiv", {"k": 2}, "inapplicable", ""),
            ("oracle-equiv", {"k": 3}, "inapplicable", ""),
            ("oracle-equiv", {"k": 4}, "inapplicable", ""),
            ("thm1", {"k": 2}, "inapplicable", ""),
            ("thm2", {"k": 3}, "inapplicable", ""),
            ("cor1", {"k": 3}, "inapplicable", ""),
            ("cor2", {"k": 3}, "inapplicable", ""),
            ("thm3", {"k": 2, "t": 2}, "pass", ""),
            ("thm3", {"k": 3, "t": 6}, "pass", ""),
            ("thm3", {"k": 4, "t": 11}, "pass", ""),
            ("lemma2", {}, "inapplicable", ""),
            ("lemma3-cert", {"k": 2, "t": 1}, "pass", ""),
            ("lemma3-cert", {"k": 3, "t": 4}, "pass", ""),
            ("lemma3-cert", {"k": 4, "t": 9}, "pass", ""),
            ("thm2-cert", {"k": 3}, "inapplicable", ""),
            ("moore", {"p": 2}, "pass", ""),
            ("moore", {"p": 3}, "inapplicable", ""),
        ],
    ),
    (
        GeneratorConfig("extremal-Ft", t=4),
        [
            ("oracle-equiv", {"k": 2}, "pass", ""),
            ("oracle-equiv", {"k": 3}, "pass", ""),
            ("oracle-equiv", {"k": 4}, "pass", ""),
            ("thm1", {"k": 2, "t": 3}, "pass", ""),
            ("thm2", {"k": 3, "t": 4}, "pass", ""),
            ("cor1", {"t": 2}, "pass", ""),
            ("cor1", {"t": 3}, "pass", ""),
            ("cor2", {"k": 3, "t": 5}, "pass", ""),
            ("thm3", {"k": 2, "t": 3}, "pass", ""),
            ("thm3", {"k": 3, "t": 6}, "pass", ""),
            ("thm3", {"k": 4, "t": 11}, "pass", ""),
            ("lemma2", {"k": 3, "t": 4}, "pass", ""),
            ("lemma3-cert", {"k": 2, "t": 4}, "pass", ""),
            ("lemma3-cert", {"k": 3, "t": 4}, "pass", ""),
            ("lemma3-cert", {"k": 4, "t": 10}, "pass", ""),
            ("thm2-cert", {"k": 3, "t": 4}, "pass", ""),
            ("moore", {"p": 2}, "pass", ""),
            ("moore", {"p": 3}, "pass", ""),
        ],
    ),
]


@pytest.mark.parametrize("config, rows", PINNED, ids=["girth5-n30", "girth5-n12", "F_4"])
def test_claim_rows_are_pinned(config, rows):
    report = run_verification([config], list(CLAIM_TAGS), k_range=(2, 3, 4))
    (result,) = report.results
    got = [(e.claim, e.params, e.status, e.note) for e in result.entries]
    assert got == rows


def test_claims_stated_at_one_k_ignore_the_k_range():
    # thm1 is stated at k = 2 and thm2, cor1, cor2, lemma2, thm2-cert at
    # k = 3, so a run over k = 4, 5 still checks them there; the per-k claims
    # follow the run
    report = run_verification(
        [GeneratorConfig("extremal-Ft", t=4)], list(CLAIM_TAGS), k_range=(4, 5)
    )
    got = [(e.claim, e.params, e.status) for e in report.results[0].entries]
    assert got == [
        ("oracle-equiv", {"k": 4}, "pass"),
        ("oracle-equiv", {"k": 5}, "pass"),
        ("thm1", {"k": 2, "t": 3}, "pass"),
        ("thm2", {"k": 3, "t": 4}, "pass"),
        ("cor1", {"t": 2}, "pass"),
        ("cor1", {"t": 3}, "pass"),
        ("cor2", {"k": 3, "t": 5}, "pass"),
        ("thm3", {"k": 4, "t": 11}, "pass"),
        ("thm3", {"k": 5, "t": 18}, "pass"),
        ("lemma2", {"k": 3, "t": 4}, "pass"),
        ("lemma3-cert", {"k": 4, "t": 10}, "pass"),
        ("lemma3-cert", {"k": 5, "t": 16}, "pass"),
        ("thm2-cert", {"k": 3, "t": 4}, "pass"),
        ("moore", {"p": 2}, "pass"),
        ("moore", {"p": 3}, "pass"),
    ]


def test_non_forest_rows_ignore_the_k_range():
    # the same rule outside the forest class: a non-forest gets thm1's
    # inapplicable row at k = 2 alone and thm2's, thm2-cert's, cor1's and
    # cor2's at k = 3 alone; oracle-equiv's follow the run
    claims = ["oracle-equiv", "thm1", "thm2", "thm2-cert", "cor1", "cor2"]
    outside = ("inapplicable", {"forest": False})
    for k_range in ((2, 3), (4, 5), (2, 3, 4, 5)):
        report = run_verification(
            [GeneratorConfig("random-girth5", n=12, seed=5)], claims, k_range=k_range
        )
        got = [(e.claim, e.params, e.status, e.hypothesis) for e in report.results[0].entries]
        assert got == [("oracle-equiv", {"k": k}, *outside) for k in k_range] + [
            ("thm1", {"k": 2}, *outside),
            ("thm2", {"k": 3}, *outside),
            ("thm2-cert", {"k": 3}, *outside),
            ("cor1", {"k": 3}, *outside),
            ("cor2", {"k": 3}, *outside),
        ], k_range


@pytest.mark.parametrize(
    "config",
    [GeneratorConfig("extremal-Ft", t=5), GeneratorConfig("random-girth5", n=12, seed=5)],
    ids=["F_5", "girth5"],
)
def test_bounds_thresholds_match_verify(tmp_path, config):
    k_range = (2, 3, 4)
    report = run_verification([config], ["thm1", "thm2", "cor2", "thm3"], k_range=k_range)
    verify_t = {
        (e.claim, e.params.get("k")): e.params.get("t") for e in report.results[0].entries
    }
    path = tmp_path / "g.txt"
    path.write_text(to_edgelist(realize(expand_corpus([config])[0])))
    runner = CliRunner()
    for k in k_range:
        result = runner.invoke(
            main, ["bounds", "--input", str(path), "--k", str(k), "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        report_k = json.loads(result.output)
        assert report_k["girth5_threshold"]["t"] == verify_t[("thm3", k)]
        forest = report_k.get("forest_thresholds")
        if forest is None:
            assert verify_t[("thm1", 2)] is None  # inapplicable: not a forest
            continue
        assert forest["two-max-degrees"]["t"] == verify_t[("thm1", 2)]
        assert forest["three-max-degrees-profile"]["t"] == verify_t[("thm2", 3)]
        assert forest["three-max-degrees-size"]["t"] == verify_t[("cor2", 3)]


C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
TRIANGLES = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])


@pytest.mark.parametrize("graph, g", [(C4, 4), (TRIANGLES, 3)], ids=["C_4", "triangles"])
def test_girth_below_5_gate(monkeypatch, graph, g):
    # no generator kind yields girth 3 or 4, so feed the graph in directly
    monkeypatch.setattr(verify, "realize", lambda spec: graph)
    k_range = (2, 3, 4)
    report = run_verification(
        [GeneratorConfig("path", n=1)], ["thm3", "lemma3-cert"], k_range=k_range
    )
    (result,) = report.results
    got = [(e.claim, e.params, e.status, e.hypothesis) for e in result.entries]
    hypothesis = {"girth": g, "needs": ">= 5"}
    assert got == [
        (claim, {"k": k}, "inapplicable", hypothesis)
        for claim in ("thm3", "lemma3-cert")
        for k in k_range
    ]


def test_girth_is_computed_once_per_instance(monkeypatch):
    # constructive must take the girth verify already has, not compute it per k
    calls = []
    girth = verify.girth

    def counted(graph):
        calls.append(graph.n)
        return girth(graph)

    monkeypatch.setattr(verify, "girth", counted)
    monkeypatch.setattr(constructive, "girth", counted, raising=False)
    configs = [
        GeneratorConfig("random-forest", n=12, seed=1, count=2),
        GeneratorConfig("random-girth5", n=12, seed=5, count=2),
        GeneratorConfig("extremal-Ft", t=3),
        GeneratorConfig("star", n=6),
    ]
    report = run_verification(configs, list(CLAIM_TAGS), k_range=(2, 3, 4, 5))
    assert not any(r.error for r in report.results)
    assert len(calls) == len(report.results) == 6


def test_certificate_claims_report_precondition_skips(monkeypatch):
    def refuse(*args):
        raise PreconditionError("hypothesis", "refused")

    monkeypatch.setattr(verify, "equalize3_forest", refuse)
    monkeypatch.setattr(verify, "girth5_equalize", refuse)
    report = run_verification(
        [GeneratorConfig("extremal-Ft", t=4)], ["thm2-cert", "lemma3-cert"], k_range=(2, 3, 4)
    )
    note = "skip: precondition: hypothesis: refused"
    got = [(e.claim, e.params, e.status, e.note) for e in report.results[0].entries]
    assert got == [
        ("thm2-cert", {"t": 4}, "skip", note),
        ("lemma3-cert", {"k": 2, "t": 4}, "skip", note),
        ("lemma3-cert", {"k": 3, "t": 4}, "skip", note),
        ("lemma3-cert", {"k": 4, "t": 10}, "skip", note),
    ]


# Every generator kind, one generator error, oracle-limit skips (each graph
# past the limit with f_k >= 2) and one violation (lemma2 on F_1).
GOLDEN_CORPUS = [
    GeneratorConfig("random-forest", n=12, seed=1, count=12, split=0.0),
    GeneratorConfig("random-forest", n=16, m=11, seed=2, count=8, split=0.5),
    GeneratorConfig("random-forest", n=24, seed=3, count=8, split=0.15),
    GeneratorConfig("random-forest", n=40, seed=4, count=4, split=1.0),
    GeneratorConfig("random-girth5", n=12, seed=5, count=10),
    GeneratorConfig("random-girth5", n=16, m=20, seed=6, count=6),
    GeneratorConfig("random-girth5", n=18, seed=7, count=4),
    GeneratorConfig("random-girth5", n=30, seed=8, count=2),
    GeneratorConfig("random-girth5", n=5, m=10),
    GeneratorConfig("extremal-Ft", t=1, count=8),
    GeneratorConfig("star-union", sizes=(3, 3, 1)),
    GeneratorConfig("star-union", sizes=(5, 4, 4, 2)),
    GeneratorConfig("star-union", sizes=(21, 20)),
    GeneratorConfig("path", n=1),
    GeneratorConfig("path", n=7),
    GeneratorConfig("star", n=1),
    GeneratorConfig("star", n=6),
]
# sha256 of the verify CSV for all claims at k (2, 3), then at k 2..5
GOLDEN_VERIFY_DIGEST = "16fc1b912a9a8d40ddb1746845acb0ab2e4bb54c96a6027c2decd9af2573ea68"


def test_golden_verify_digest():
    digest = hashlib.sha256()
    for k_range in ((2, 3), (2, 3, 4, 5)):
        report = run_verification(GOLDEN_CORPUS, list(CLAIM_TAGS), k_range=k_range)
        digest.update(report.to_csv().encode())
    assert digest.hexdigest() == GOLDEN_VERIFY_DIGEST


def test_a_timeout_lifts_the_order_limit_for_f_k_but_not_for_oracle_equiv():
    # saturated girth-5 graphs of 19 and 30 vertices: with no timeout the
    # oracle refuses f_3 or f_4 >= 2 past its limit, under one it decides them
    corpus = [
        GeneratorConfig("random-girth5", n=19, seed=5, count=12),
        GeneratorConfig("random-girth5", n=30, seed=1, count=12),
    ]

    def statuses(configs, claim, k_range, timeout):
        report = run_verification(configs, [claim], k_range=k_range, timeout=timeout)
        return Counter((e.status, e.note) for r in report.results for e in r.entries)

    assert statuses(corpus, "thm3", (2, 3, 4), None) == {
        ("pass", ""): 56,
        ("skip", "skip: no exact solver for f_3"): 6,
        ("skip", "skip: no exact solver for f_4"): 10,
    }
    assert statuses(corpus, "thm3", (2, 3, 4), 30) == {("pass", ""): 72}
    # the cross-check calls the oracle itself and keeps its instant refusal
    f6 = [GeneratorConfig("extremal-Ft", t=6)]
    assert statuses(f6, "oracle-equiv", (3,), 30) == {("skip", "skip: above oracle limit"): 1}


# A skip means only that no solver or procedure decided the entry.
SKIP_REASONS = tuple(
    f"skip: {reason}"
    for reason in ("no exact solver", "above oracle limit", "timeout", "precondition")
)
FOREST_CLAIMS = ("oracle-equiv", "thm1", "thm2", "thm2-cert", "cor1", "cor2")


@pytest.mark.parametrize("k_range", [(2, 3), (2, 3, 4, 5)])
def test_skips_are_refusals_and_non_forests_are_inapplicable(k_range):
    report = run_verification(GOLDEN_CORPUS, list(CLAIM_TAGS), k_range=k_range)
    skips = [e.note for r in report.results for e in r.entries if e.status == "skip"]
    assert skips and all(note.startswith(SKIP_REASONS) for note in skips), skips
    non_forests = [r for r in report.results if not r.error and not is_forest(realize(r.spec))]
    assert non_forests
    for result in non_forests:
        outside = {
            (e.claim, e.params["k"])
            for e in result.entries
            if e.status == "inapplicable" and e.hypothesis == {"forest": False}
        }
        assert outside == {
            (claim, k) for claim in FOREST_CLAIMS for k in verify._CLAIMS[claim][2] or k_range
        }


def test_minimal_t_matches_linear_scan_on_golden_corpus():
    # every *_t threshold, by doubling and bisection, against stepping t by one
    checked = 0
    for spec in expand_corpus(GOLDEN_CORPUS):
        try:
            graph = realize(spec)
        except GirthSaturationError:
            continue
        profile = degree_profile(graph)
        pairs = [
            (bounds.theorem1_t(graph),
             linear_minimal_t(lambda t: bounds.theorem1_hypothesis(graph, t), 1)),
            (bounds.theorem2_t(profile),
             linear_minimal_t(lambda t: bounds.theorem2_hypothesis(profile, t), 2)),
            (bounds.corollary2_t(graph),
             linear_minimal_t(lambda t: bounds.corollary2_hypothesis(graph, t), 2)),
        ]
        for k in range(2, 7):
            pairs.append((
                bounds.theorem3_t(profile, k),
                linear_minimal_t(
                    lambda t: bounds.theorem3_hypothesis(profile, k, t), (k - 1) ** 2
                ),
            ))
        assert all(got == want for got, want in pairs), (spec.label(), pairs)
        checked += 1
    assert checked == len(expand_corpus(GOLDEN_CORPUS)) - 1
