"""Pins on what verify reports for every claim, and on its agreement with
`degeq bounds` about each theorem's threshold t."""

import json

import pytest
from click.testing import CliRunner

from degeq import GeneratorConfig, run_verification, to_edgelist
from degeq.cli import main
from degeq.verify import CLAIM_TAGS, expand_corpus, realize

NOT_A_FOREST = "skip: not a forest"

# A saturated girth-5 graph above the oracle limit (thm3 has no exact
# solver), a small one the oracle solves, and F_4.
PINNED = [
    (
        GeneratorConfig("random-girth5", n=30, seed=3),
        [
            ("oracle-equiv", {"k": 2}, "skip", NOT_A_FOREST),
            ("oracle-equiv", {"k": 3}, "skip", NOT_A_FOREST),
            ("oracle-equiv", {"k": 4}, "skip", NOT_A_FOREST),
            ("thm1", {}, "skip", NOT_A_FOREST),
            ("thm2", {}, "skip", NOT_A_FOREST),
            ("cor1", {}, "skip", NOT_A_FOREST),
            ("cor2", {}, "skip", NOT_A_FOREST),
            ("thm3", {"k": 2, "t": 3}, "skip", "skip: no exact solver for f_2"),
            ("thm3", {"k": 3, "t": 7}, "skip", "skip: no exact solver for f_3"),
            ("thm3", {"k": 4, "t": 12}, "skip", "skip: no exact solver for f_4"),
            ("lemma2", {}, "inapplicable", ""),
            ("lemma3-cert", {"k": 2, "t": 2}, "pass", ""),
            ("lemma3-cert", {"k": 3, "t": 4}, "pass", ""),
            ("lemma3-cert", {"k": 4, "t": 9}, "pass", ""),
            ("thm2-cert", {}, "skip", NOT_A_FOREST),
            ("moore", {"p": 2}, "pass", ""),
            ("moore", {"p": 3}, "inapplicable", ""),
        ],
    ),
    (
        GeneratorConfig("random-girth5", n=12, seed=5),
        [
            ("oracle-equiv", {"k": 2}, "skip", NOT_A_FOREST),
            ("oracle-equiv", {"k": 3}, "skip", NOT_A_FOREST),
            ("oracle-equiv", {"k": 4}, "skip", NOT_A_FOREST),
            ("thm1", {}, "skip", NOT_A_FOREST),
            ("thm2", {}, "skip", NOT_A_FOREST),
            ("cor1", {}, "skip", NOT_A_FOREST),
            ("cor2", {}, "skip", NOT_A_FOREST),
            ("thm3", {"k": 2, "t": 2}, "pass", ""),
            ("thm3", {"k": 3, "t": 6}, "pass", ""),
            ("thm3", {"k": 4, "t": 11}, "pass", ""),
            ("lemma2", {}, "inapplicable", ""),
            ("lemma3-cert", {"k": 2, "t": 1}, "pass", ""),
            ("lemma3-cert", {"k": 3, "t": 4}, "pass", ""),
            ("lemma3-cert", {"k": 4, "t": 9}, "pass", ""),
            ("thm2-cert", {}, "skip", NOT_A_FOREST),
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
            assert verify_t[("thm1", None)] is None  # the "not a forest" skip
            continue
        assert forest["two-max-degrees"]["t"] == verify_t[("thm1", 2)]
        assert forest["three-max-degrees-profile"]["t"] == verify_t[("thm2", 3)]
        assert forest["three-max-degrees-size"]["t"] == verify_t[("cor2", 3)]
