import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import degeq
from degeq import (
    GeneratorConfig,
    Graph,
    build_extremal_forest,
    parse_graph,
    run_verification,
    to_edgelist,
    validate_certificate,
)
from degeq.certificates import RemovalCertificate
from degeq.cli import main
from degeq.generators import CORPUS_KINDS, expand_corpus, realize
from degeq.verify import CLAIM_TAGS


def forest_config(**overrides):
    base = {"kind": "random-forest", "n": 9, "seed": 11, "count": 6}
    base.update(overrides)
    return GeneratorConfig.from_dict(base)


class TestRunVerification:
    def test_oracle_equiv_clean(self):
        report = run_verification([forest_config()], ["oracle-equiv"])
        assert report.ok
        assert report.summary["pass"] == 12  # 6 instances x k in {2, 3}
        # both solvers return the least minimum deletion set
        assert all(e.conclusion["same_x"] for r in report.results for e in r.entries)

    def test_empty_corpus(self):
        report = run_verification([], ["thm1"])
        assert report.ok
        assert report.results == []
        assert report.summary["instances"] == 0

    def test_extremal_claim(self):
        config = GeneratorConfig.from_dict(
            {"kind": "extremal-Ft", "t": 2, "count": 5}
        )
        report = run_verification([config], ["lemma2"])
        assert report.ok
        entries = [e for r in report.results for e in r.entries]
        assert [e.params["t"] for e in entries] == [2, 3, 4, 5, 6]
        assert all(e.status == "pass" for e in entries)

    def test_extremal_claim_reports_smallest_member_honestly(self):
        # The two-vertex family member needs zero deletions (order below 3),
        # so the t-deletions claim is genuinely violated there and the
        # checker must say so rather than special-case it.
        config = GeneratorConfig.from_dict({"kind": "extremal-Ft", "t": 1})
        report = run_verification([config], ["lemma2"])
        assert not report.ok
        entry = report.results[0].entries[0]
        assert entry.status == "violated"
        assert entry.fk == 0

    def test_summary_counts_match_entries(self):
        report = run_verification(
            [forest_config(count=4)], ["thm1", "thm2", "moore"]
        )
        total = sum(len(r.entries) for r in report.results)
        s = report.summary
        assert total == s["pass"] + s["violated"] + s["inapplicable"] + s["skip"] + s["report"]

    def test_generator_failure_does_not_abort(self):
        bad = GeneratorConfig.from_dict(
            {"kind": "random-girth5", "n": 5, "m": 10, "seed": 0}
        )
        report = run_verification([bad, forest_config(count=1)], ["moore"])
        assert report.results[0].error is not None
        assert report.results[1].error is None
        assert report.ok  # errors are reported, not violations
        assert report.to_csv().splitlines()[1] == (
            '"0:random-girth5(m=10,n=5,seed=0)",random-girth5,,,generator,,,,,,error,,'
            "GirthSaturationError: requested 10 edges but only 4 are insertable"
        )

    def test_csv_byte_identical_across_runs_and_jobs(self):
        configs = [forest_config(count=5)]
        claims = ["oracle-equiv", "thm2", "moore"]
        a = run_verification(configs, claims, jobs=1).to_csv()
        b = run_verification(configs, claims, jobs=1).to_csv()
        c = run_verification(configs, claims, jobs=2).to_csv()
        assert a == b == c

    def test_certificates_survive_serialization_roundtrip(self):
        configs = [forest_config(count=4)]
        report = run_verification(configs, ["oracle-equiv"])
        specs = expand_corpus(configs)
        for result, spec in zip(report.results, specs):
            reloaded = parse_graph(to_edgelist(realize(spec)))
            for k_str, info in result.computed.items():
                cert_dict = info["certificate"]
                cert = RemovalCertificate(
                    tuple(cert_dict["X"]),
                    cert_dict["residual_max_degree"],
                    tuple(cert_dict["witnesses"]),
                    cert_dict["order_below_k"],
                    cert_dict["method"],
                )
                assert validate_certificate(reloaded, cert, int(k_str))

    def test_unknown_claim_rejected(self):
        with pytest.raises(ValueError):
            run_verification([forest_config()], ["not-a-claim"])

    def test_timeout_yields_skip(self):
        config = forest_config(n=16, count=1)
        report = run_verification([config], ["oracle-equiv"], timeout=0.0)
        statuses = {e.status for r in report.results for e in r.entries}
        assert statuses == {"skip"}
        assert report.ok


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def write_graph(self, tmp_path, text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_import_loads_no_process_pool(self, tmp_path):
        # the pool is imported only where verify --jobs > 1 starts one; the
        # package namespace is lazy, and the CLI runs the bound checkers, the
        # verifier, the procedures and the bench only in their commands.  It
        # still registers them in sys.modules, unexecuted: a LazyLoader
        # module's type is not ModuleType until its first attribute access.
        # construct and gen expand their corpus line in generators, so they
        # run none of them either.
        src = str(Path(degeq.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, json, types, degeq; "
            "bare = sorted(m for m in sys.modules if m.startswith('degeq.')); "
            "listed = set(degeq.__all__) <= set(dir(degeq)); "
            "import degeq.cli; "
            "deferred = ('degeq.verify', 'degeq.bounds', 'degeq.constructive', "
            "'degeq.bench'); "
            "registered = all(m in sys.modules for m in deferred); "
            "ran = lambda *prefixes: sorted(m for m, mod in sys.modules.items() "
            "if type(mod) is types.ModuleType and m.startswith(prefixes)); "
            "on_import = ran('concurrent', 'multiprocessing', 'fractions', 'csv', "
            "*deferred); "
            f"out = {str(tmp_path)!r}; "
            "degeq.cli.main(['construct', '--family', 'extremal-ft', '--t', '3', "
            "'--out', out + '/f3.txt'], standalone_mode=False); "
            "degeq.cli.main(['gen', '--kind', 'random-forest', '--n', '8', "
            "'--out', out], standalone_mode=False); "
            "on_write = ran('degeq.verify', 'degeq.bounds', 'degeq.constructive', "
            "'fractions', 'csv'); "
            "tags = len(degeq.verify.CLAIM_TAGS); "
            "print(json.dumps([bare, listed, registered, on_import, on_write, tags]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        # gen prints the path it wrote before the summary line
        *_, summary = result.stdout.splitlines()
        assert json.loads(summary) == [[], True, True, [], [], len(CLAIM_TAGS)]
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == ["f3.txt", "random-forest-n8-s0-i0000.txt"]

    def test_compute_json_schema(self, tmp_path):
        path = self.write_graph(tmp_path, "6 4\n0 1\n0 2\n0 3\n4 5\n")
        result = self.runner.invoke(
            main, ["compute", "--input", path, "--k", "3", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert set(payload) == {
            "n", "m", "k", "f_k", "method", "X", "residual_max_degree",
            "witnesses", "order_below_k", "elapsed_ms",
        }
        assert payload["f_k"] == 2
        assert payload["method"] == "dp"

    def test_compute_csv_header_follows_json_keys(self, tmp_path):
        path = self.write_graph(tmp_path, "6 4\n0 1\n0 2\n0 3\n4 5\n")
        args = ["compute", "--input", path, "--k", "3", "--format"]
        as_json = self.runner.invoke(main, [*args, "json"])
        as_csv = self.runner.invoke(main, [*args, "csv"])
        assert as_json.exit_code == as_csv.exit_code == 0
        header = as_csv.output.splitlines()[0]
        assert header.split(",") == list(json.loads(as_json.output))

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_brute_matches_compute_method_brute(self, tmp_path, fmt):
        path = self.write_graph(tmp_path, to_edgelist(degeq.gen_random_girth5(12, None, 3)))
        outputs = []
        for command in (["brute"], ["compute", "--method", "brute"]):
            result = self.runner.invoke(
                main, [*command, "--input", path, "--k", "3", "--format", fmt]
            )
            assert result.exit_code == 0, result.output
            outputs.append(re.sub(r"[0-9]+\.[0-9]+", "<elapsed>", result.output))
        assert outputs[0] == outputs[1]
        assert "brute" in outputs[0]

    def test_compute_auto_picks_brute_for_cycles(self, tmp_path):
        path = self.write_graph(tmp_path, "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        result = self.runner.invoke(
            main, ["compute", "--input", path, "--k", "2", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["method"] == "brute"

    def test_compute_dp_rejects_cycles(self, tmp_path):
        path = self.write_graph(tmp_path, "3 3\n0 1\n0 2\n1 2\n")
        result = self.runner.invoke(
            main, ["compute", "--input", path, "--k", "2", "--method", "dp"]
        )
        assert result.exit_code == 3

    def test_input_error_exit_code(self, tmp_path):
        path = self.write_graph(tmp_path, "3 1\n0 0\n")
        result = self.runner.invoke(main, ["compute", "--input", path, "--k", "2"])
        assert result.exit_code == 3

    def test_usage_error_exit_code(self, tmp_path):
        path = self.write_graph(tmp_path, "2 1\n0 1\n")
        result = self.runner.invoke(main, ["compute", "--input", path, "--k", "1"])
        assert result.exit_code == 2
        result = self.runner.invoke(main, ["compute", "--input", path])
        assert result.exit_code == 2  # click missing-option error

    def test_compute_timeout_refuses(self, tmp_path):
        # F_18 with k = 3 takes about 0.1 s over 74 passes; the deadline is
        # checked before each pass, so 0.01 s still stops it between passes
        path = self.write_graph(tmp_path, to_edgelist(degeq.build_extremal_forest(18)))
        result = self.runner.invoke(
            main, ["compute", "--input", path, "--k", "3", "--timeout", "0.01"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert "deadline exceeded" in result.stderr

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_compute_refuses_nan_or_negative_timeout(self, tmp_path, monkeypatch, value):
        # a NaN deadline never passed (time.monotonic() > nan is false), so
        # the solve ran unbounded; both are refused before any solve
        def refuse(*args, **kwargs):
            raise AssertionError("compute solved with a refused --timeout")

        monkeypatch.setattr(degeq.cli, "compute_fk_forest", refuse)
        path = self.write_graph(tmp_path, to_edgelist(degeq.build_extremal_forest(18)))
        result = self.runner.invoke(
            main, ["compute", "--input", path, "--k", "3", "--timeout", value]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"usage error: --timeout must be >= 0 seconds, not {float(value)}\n"
        )

    def test_compute_keeps_zero_and_infinite_timeout(self, tmp_path):
        path = self.write_graph(tmp_path, to_edgelist(degeq.build_extremal_forest(6)))
        args = ["compute", "--input", path, "--k", "3", "--timeout"]
        result = self.runner.invoke(main, [*args, "inf"])
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith("f_3 = 6 ")
        result = self.runner.invoke(main, [*args, "0"])
        assert result.exit_code == 2
        assert result.stderr.startswith("refused: forest solver deadline exceeded")

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_verify_refuses_nan_or_negative_timeout(self, tmp_path, monkeypatch, value):
        # -1 turned every exact claim into a timeout skip and still printed
        # RESULT: ok with exit 0; NaN ran with no deadline at all
        import degeq.verify

        def refuse(*args, **kwargs):
            raise AssertionError("verify ran with a refused --timeout")

        monkeypatch.setattr(degeq.verify, "run_verification", refuse)
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([{"kind": "random-forest", "n": 9, "seed": 1}]))
        result = self.runner.invoke(main, [
            "verify", "--claims", "oracle-equiv", "--corpus", str(corpus),
            "--timeout", value,
        ])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"usage error: --timeout must be >= 0 seconds, not {float(value)}\n"
        )

    @pytest.mark.parametrize("value, status", [("0", "skip"), ("inf", "pass")])
    def test_verify_keeps_zero_and_infinite_timeout(self, tmp_path, value, status):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([{"kind": "random-forest", "n": 9, "seed": 1}]))
        result = self.runner.invoke(main, [
            "verify", "--claims", "oracle-equiv", "--corpus", str(corpus),
            "--timeout", value, "--format", "json",
        ])
        assert result.exit_code == 0, result.output
        entries = json.loads(result.stdout)["results"][0]["entries"]
        assert {entry["status"] for entry in entries} == {status}

    def test_dp_has_no_order_limit(self, tmp_path):
        # forests of any order go to the tree program; F_12 has 206 vertices
        forest = degeq.build_extremal_forest(12)
        path = self.write_graph(tmp_path, to_edgelist(forest))
        result = self.runner.invoke(
            main, ["compute", "--input", path, "--k", "3", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert (payload["n"], payload["f_k"], payload["method"]) == (206, 12, "dp")
        cert = RemovalCertificate(
            tuple(payload["X"]),
            payload["residual_max_degree"],
            tuple(payload["witnesses"]),
            payload["order_below_k"],
            payload["method"],
        )
        assert validate_certificate(forest, cert, 3)

    def test_brute_limit_guard(self, tmp_path):
        edges = "\n".join(f"{i} {i + 1}" for i in range(19))
        path = self.write_graph(tmp_path, f"20 19\n{edges}\n")
        result = self.runner.invoke(main, ["brute", "--input", path, "--k", "2"])
        assert result.exit_code == 2
        result = self.runner.invoke(
            main, ["brute", "--input", path, "--k", "2", "--limit", "20"]
        )
        assert result.exit_code == 0

    def test_construct_families(self, tmp_path):
        out = tmp_path / "f3.txt"
        result = self.runner.invoke(
            main, ["construct", "--family", "extremal-ft", "--t", "3", "--out", str(out)]
        )
        assert result.exit_code == 0
        graph = parse_graph(out.read_text())
        assert graph.m == 7
        result = self.runner.invoke(main, ["construct", "--family", "path", "--n", "4"])
        assert result.output == "4 3\n0 1\n1 2\n2 3\n"
        result = self.runner.invoke(
            main, ["construct", "--family", "star-union", "--sizes", "3,1"]
        )
        assert parse_graph(result.output).m == 4

    def test_gen_refuses_negative_edge_target(self, tmp_path):
        out = tmp_path / "corpus"
        result = self.runner.invoke(
            main,
            ["gen", "--kind", "random-girth5", "--n", "6", "--m", "-1", "--out", str(out)],
        )
        assert result.exit_code == 3
        assert result.stderr.startswith("input error: ")
        assert list(out.glob("*.txt")) == []
        with pytest.raises(ValueError, match="non-negative"):
            GeneratorConfig.from_dict({"kind": "random-girth5", "n": 6, "m": -1})

    def test_gen_writes_deterministic_files(self, tmp_path):
        args = [
            "gen", "--kind", "random-forest", "--n", "8", "--seed", "5",
            "--count", "3", "--out", str(tmp_path / "corpus"),
        ]
        first = self.runner.invoke(main, args)
        assert first.exit_code == 0
        files = sorted((tmp_path / "corpus").glob("*.txt"))
        assert len(files) == 3
        contents = [f.read_text() for f in files]
        second = self.runner.invoke(main, args)
        assert second.exit_code == 0
        assert [f.read_text() for f in files] == contents

    @pytest.mark.parametrize("kind", ["random-forest", "random-girth5"])
    @pytest.mark.parametrize("m", [None, 6])
    def test_gen_writes_the_verify_instances(self, tmp_path, kind, m):
        args = ["gen", "--kind", kind, "--n", "9", "--seed", "4", "--count", "3"]
        if m is not None:
            args += ["--m", str(m)]
        result = self.runner.invoke(main, [*args, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        paths = [Path(line) for line in result.output.splitlines()]
        assert [p.name for p in paths] == [f"{kind}-n9-s4-i{i:04d}.txt" for i in range(3)]
        config = GeneratorConfig(kind, n=9, m=m, seed=4, count=3)
        expected = [to_edgelist(realize(spec)) for spec in expand_corpus([config])]
        assert [p.read_text() for p in paths] == expected

    @pytest.mark.parametrize(
        "args",
        [
            ["--kind", "random-forest", "--n", "0"],
            ["--kind", "random-girth5", "--n", "-3"],
            ["--kind", "random-forest", "--n", "5", "--count", "0"],
            ["--kind", "random-girth5", "--n", "5", "--count", "-2"],
        ],
    )
    def test_gen_refuses_values_below_one(self, tmp_path, args):
        out = tmp_path / "corpus"
        result = self.runner.invoke(main, ["gen", *args, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "is not in the range x>=1" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_verify_refuses_jobs_below_one(self, tmp_path, jobs):
        corpus = tmp_path / "corpus.json"
        corpus.write_text('[{"kind": "star", "n": 4}]')
        result = self.runner.invoke(
            main, ["verify", "--claims", "moore", "--corpus", str(corpus), "--jobs", jobs]
        )
        assert result.exit_code == 2, result.output
        assert "is not in the range x>=1" in result.output

    def test_kind_choices_follow_the_table(self):
        def choices(command, option):
            (param,) = [p for p in main.commands[command].params if p.name == option]
            return list(param.type.choices)

        random = [kind for kind, spec in CORPUS_KINDS.items() if spec.random]
        families = [kind for kind, spec in CORPUS_KINDS.items() if not spec.random]
        assert choices("gen", "kind") == random
        assert choices("construct", "family") == [kind.lower() for kind in families]
        for family, kind in zip(choices("construct", "family"), families):
            args = ["--family", family, "--t", "3", "--n", "4", "--sizes", "2,1"]
            result = self.runner.invoke(main, ["construct", *args])
            assert result.exit_code == 0, result.output
            config = GeneratorConfig(kind, n=4, t=3, sizes=(2, 1))
            assert result.output == to_edgelist(realize(expand_corpus([config])[0]))

    def test_theorem3_threshold_for_k_above_100(self, tmp_path):
        # the threshold scan starts at t = (k - 1)^2 = 10,000 for k = 101
        path = self.write_graph(tmp_path, "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
        result = self.runner.invoke(
            main, ["bounds", "--input", path, "--k", "101", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        threshold = json.loads(result.output)["girth5_threshold"]
        assert threshold == {"k": 101, "t": 10000, "bound": 100}
        corpus = tmp_path / "corpus.json"
        corpus.write_text('[{"kind": "random-girth5", "n": 8, "seed": 1}]')
        result = self.runner.invoke(
            main,
            [
                "verify", "--claims", "thm3", "--corpus", str(corpus),
                "--k-range", "2,101", "--format", "json",
            ],
        )
        assert result.exit_code == 0, result.output
        entries = json.loads(result.output)["results"][0]["entries"]
        assert [e["params"]["k"] for e in entries] == [2, 101]
        assert entries[1]["params"]["t"] >= 10000
        assert entries[1]["status"] == "pass"

    @pytest.mark.parametrize(
        "args",
        [
            ["compute", "--k", "1"],
            ["brute", "--k", "1"],
            ["equalize", "--k", "1", "--t", "3"],
            ["bounds", "--k", "1"],
            ["bounds", "--k", "0"],
            ["bounds", "--t", "1"],
            ["bounds", "--p", "-1"],
            ["bounds", "--p", "0"],
        ],
    )
    def test_out_of_range_integer_options_are_usage_errors(self, tmp_path, args):
        path = self.write_graph(tmp_path, "4 3\n0 1\n0 2\n0 3\n")
        result = self.runner.invoke(main, [args[0], "--input", path, *args[1:]])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)

    def test_json_output_is_strict_for_forests(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        path = self.write_graph(tmp_path, "4 3\n0 1\n0 2\n0 3\n")
        result = self.runner.invoke(main, ["bounds", "--input", path, "--format", "json"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output, parse_constant=reject)
        assert report["girth"] == "inf"
        assert {e["hypothesis"]["girth"] for e in report["asymptotics"]} == {"inf"}
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([{"kind": "star", "n": 5}]))
        result = self.runner.invoke(
            main, ["verify", "--claims", "moore", "--corpus", str(corpus), "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output, parse_constant=reject)
        entries = payload["results"][0]["entries"]
        assert [e["hypothesis"]["girth"] for e in entries] == ["inf", "inf"]

    def test_bounds_text(self, tmp_path):
        path = self.write_graph(tmp_path, "4 3\n0 1\n0 2\n0 3\n")
        result = self.runner.invoke(main, ["bounds", "--input", path, "--k", "3"])
        assert result.exit_code == 0
        assert "forest_thresholds" in result.output

    @pytest.mark.parametrize(
        "text", ["5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n", "4 3\n0 1\n0 2\n0 3\n"]
    )
    def test_bounds_huge_k_and_p(self, tmp_path, text):
        # both used to run on for minutes: a sum over range(1, k) and m**p
        path = self.write_graph(tmp_path, text)
        for args in (["--k", str(10**20)], ["--k", "2", "--p", str(10**20)]):
            result = self.runner.invoke(main, ["bounds", "--input", path, *args])
            assert result.exit_code == 0, result.output
        result = self.runner.invoke(main, ["bounds", "--input", path, "--k", str(10**400)])
        assert result.exit_code == 2
        assert result.stderr == "usage error: --k is too large for a float C(k, 2)\n"

    def test_verify_huge_k(self, tmp_path):
        # the thm3 and lemma3 sums used to loop over range(1, k)
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([
            {"kind": "random-girth5", "n": 12, "seed": 1},
            {"kind": "random-forest", "n": 10, "seed": 2},
        ]))
        result = self.runner.invoke(main, [
            "verify", "--claims", ",".join(CLAIM_TAGS), "--corpus", str(corpus),
            "--k-range", f"2,{10**20}",
        ])
        assert result.exit_code == 0, result.output
        assert result.output.endswith("RESULT: ok\n")

    def test_verify_cli_roundtrip(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps(
                [{"kind": "random-forest", "n": 8, "seed": 3, "count": 3}]
            )
        )
        result = self.runner.invoke(
            main,
            [
                "verify", "--claims", "oracle-equiv,thm2", "--corpus", str(corpus),
                "--format", "csv",
            ],
        )
        assert result.exit_code == 0, result.output
        header = result.output.splitlines()[0]
        assert header.startswith("instance,kind,n,m,claim")

    def test_verify_text_report(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps(
                [{"kind": "extremal-Ft", "t": 1}, {"kind": "random-girth5", "n": 5, "m": 10}]
            )
        )
        claims = ",".join(CLAIM_TAGS)
        result = self.runner.invoke(main, ["verify", "--claims", claims, "--corpus", str(corpus)])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[0] == "0:extremal-Ft(t=1) n=2 m=1: inapplicable=2 pass=11 violated=1"
        assert lines[1].startswith("  VIOLATED lemma2 params={'k': 3, 't': 1} ")
        assert lines[2].startswith("1:random-girth5(m=10,n=5,seed=0): ERROR ")
        assert lines[3:] == [
            "summary: errors=1 inapplicable=2 instances=2 pass=11 report=0 skip=0 violated=1",
            "RESULT: VIOLATIONS FOUND",
        ]

    def test_verify_unknown_claim(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text("[]")
        result = self.runner.invoke(
            main, ["verify", "--claims", "bogus", "--corpus", str(corpus)]
        )
        assert result.exit_code == 2

    def test_verify_bad_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text('[{"kind": "unknown-kind"}]')
        result = self.runner.invoke(
            main, ["verify", "--claims", "moore", "--corpus", str(corpus)]
        )
        assert result.exit_code == 3

    @pytest.mark.parametrize("field", ["count", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "2"])
    def test_verify_non_integer_count_or_seed(self, tmp_path, field, value):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([{"kind": "random-forest", "n": 4, field: value}]))
        result = self.runner.invoke(
            main, ["verify", "--claims", "moore", "--corpus", str(corpus)]
        )
        assert result.exit_code == 3
        assert result.stderr.startswith("input error: bad corpus spec: ")

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "random-forest", "n": 4.5},
            {"kind": "random-forest", "n": 10, "split": "x"},
            {"kind": "extremal-Ft", "t": True},
            {"kind": "random-girth5", "n": 10, "m": 2.0},
        ],
    )
    def test_verify_non_integer_fields(self, tmp_path, config):
        # each used to run, record per-instance errors or the wrong instance,
        # and print RESULT: ok
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([config]))
        result = self.runner.invoke(
            main, ["verify", "--claims", "moore,thm1", "--k-range", "2", "--corpus", str(corpus)]
        )
        assert result.exit_code == 3
        assert result.stderr.startswith("input error: bad corpus spec: ")

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "star-union", "sizes": [-1]},
            {"kind": "star-union", "sizes": [-3, 2]},
            {"kind": "random-girth5", "n": 10, "m": -1},
            {"kind": "random-forest", "n": 10, "m": -1},
        ],
    )
    def test_verify_negative_fields(self, tmp_path, config):
        # each used to record a per-instance ValueError and print RESULT: ok
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([config]))
        result = self.runner.invoke(
            main, ["verify", "--claims", "moore,thm1", "--k-range", "2", "--corpus", str(corpus)]
        )
        assert result.exit_code == 3
        assert result.stderr == (
            "input error: bad corpus spec: n, m, t and sizes entries must be non-negative\n"
        )

    @pytest.mark.parametrize("split", [1.5, -0.1, float("nan")])
    def test_verify_split_outside_unit_interval(self, tmp_path, split):
        # each used to record a per-instance ValueError and print RESULT: ok
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps([{"kind": "random-forest", "n": 10, "split": split}]))
        result = self.runner.invoke(
            main, ["verify", "--claims", "moore,thm1", "--k-range", "2", "--corpus", str(corpus)]
        )
        assert result.exit_code == 3
        assert result.stderr.startswith("input error: bad corpus spec: split must be in [0, 1]")

    @pytest.mark.parametrize("k_range", ["2,2", "3,2,3", "1,3"])
    def test_verify_bad_k_range(self, tmp_path, k_range):
        corpus = tmp_path / "corpus.json"
        corpus.write_text('[{"kind": "star", "n": 3}]')
        result = self.runner.invoke(
            main,
            ["verify", "--claims", "moore", "--corpus", str(corpus), "--k-range", k_range],
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("usage error: bad --k-range: ")

    def test_bench_small(self):
        result = self.runner.invoke(main, ["bench", "--suite", "small"])
        assert result.exit_code == 0
        assert "forest-n12" in result.output

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bench_oracle_json_and_csv(self, fmt):
        result = self.runner.invoke(main, ["bench", "--suite", "oracle", "--format", fmt])
        assert result.exit_code == 0, result.output
        keys = ["name", "n", "m", "k", "method", "value", "elapsed_ms"]
        if fmt == "json":
            rows = json.loads(result.output)
            assert [list(row) for row in rows] == [keys] * 3
        else:
            header, *lines = result.output.splitlines()
            assert header == "name,n,m,k,method,value,elapsed_ms"
            rows = [dict(zip(keys, line.split(","))) for line in lines]
        # f_3(F_t) = t
        assert [(row["name"], row["method"], int(row["value"])) for row in rows] == [
            (f"extremal-F{t}", "brute", t) for t in (2, 3, 4)
        ]

    def test_bounds_json_at_t(self, tmp_path):
        path = self.write_graph(tmp_path, to_edgelist(build_extremal_forest(3)))
        result = self.runner.invoke(
            main, ["bounds", "--input", path, "--t", "2", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        entry = json.loads(result.output)["degree_lower_bounds_at_t"]
        assert {"i", "ii", "iii"} <= set(entry["conclusion"])
        assert entry["hypothesis_holds"] is None

    def test_equalize_girth5(self, tmp_path):
        path = self.write_graph(tmp_path, "5 4\n0 1\n0 2\n0 3\n0 4\n")
        result = self.runner.invoke(
            main, ["equalize", "--input", path, "--k", "2", "--t", "3"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["X"] == [2, 3, 4]
        assert payload["valid"] is True

    @pytest.mark.parametrize(
        "extra, message",
        [
            ([], "usage error: --procedure girth5 requires --t"),
            (["--procedure", "peel", "--t", "-5"], "usage error: --procedure peel takes no --t"),
        ],
        ids=["girth5-without-t", "peel-with-t"],
    )
    def test_equalize_t_only_with_girth5(self, tmp_path, extra, message):
        path = self.write_graph(tmp_path, "5 4\n0 1\n0 2\n0 3\n0 4\n")
        result = self.runner.invoke(main, ["equalize", "--input", path, "--k", "2", *extra])
        assert result.exit_code == 2
        assert result.output.strip() == message

    def test_equalize_peel_without_t(self, tmp_path):
        path = self.write_graph(tmp_path, "5 4\n0 1\n0 2\n0 3\n0 4\n")
        result = self.runner.invoke(
            main, ["equalize", "--input", path, "--k", "2", "--procedure", "peel"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["valid"] is True


# Corpus fields for the boundary fuzz.  A line is either in range, so that
# the run does real work, or has each field drawn from the odd values every
# field may meet: negatives, bool, float, NaN, str, list and null.  The
# integers stay small (n <= 12, t <= 6, at most 4 sizes of at most 8 leaves,
# count <= 3), so no draw builds a graph in proportion to a huge value.
ODD_VALUES = st.one_of(
    st.booleans(),
    st.floats(min_value=-3, max_value=12),
    st.just(float("nan")),
    st.text(max_size=3),
    st.lists(st.integers(min_value=-2, max_value=3), max_size=2),
    st.none(),
)
KINDS = st.sampled_from(sorted(CORPUS_KINDS))
SEEDS = st.integers(min_value=-(2**70), max_value=2**70)


def small_or_odd(low, high):
    return st.one_of(st.integers(min_value=low, max_value=high), ODD_VALUES)


def corpus_line(kind, n, m, t, sizes, seed, count, split, required=()):
    """A one-line corpus; the fields not ``required`` may be missing."""
    fields = {"n": n, "m": m, "t": t, "sizes": sizes, "seed": seed, "count": count,
              "split": split}
    fixed = {"kind": kind, **{key: fields.pop(key) for key in required}}
    return st.lists(st.fixed_dictionaries(fixed, optional=fields), min_size=1, max_size=1)


IN_RANGE_CORPUS = corpus_line(
    KINDS,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=4),
    SEEDS,
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0, max_value=1),
    required=("n", "t", "sizes"),
)
ODD_CORPUS = corpus_line(
    st.one_of(KINDS, ODD_VALUES),
    small_or_odd(-2, 12),
    small_or_odd(-2, 30),
    small_or_odd(-2, 6),
    st.one_of(st.lists(small_or_odd(-2, 8), max_size=4), ODD_VALUES),
    st.one_of(SEEDS, ODD_VALUES),
    small_or_odd(-1, 3),
    st.one_of(st.floats(min_value=-0.5, max_value=1.5), ODD_VALUES),
)
K_RANGES = st.one_of(
    st.sampled_from(["2", "2,3", "3,2", "4", "2,99999999999999999999"]),
    st.sampled_from(["1,3", "2,2", "0", "", "x", "2,,3", "2.5"]),
    st.text(alphabet="0123456789,-. ", max_size=6),
)
TIMEOUTS = st.one_of(
    st.none(),
    st.sampled_from(["0", "inf", "1e999", "30"]),
    st.sampled_from(["-inf", "nan", "-1", "abc", ""]),
    st.floats(allow_nan=True).map(repr),
)


@settings(max_examples=60, deadline=None)
@given(
    corpus=st.one_of(
        IN_RANGE_CORPUS,
        IN_RANGE_CORPUS.map(lambda lines: {"configs": lines}),
        ODD_CORPUS,
        ODD_VALUES,
    ),
    claims=st.lists(st.sampled_from(CLAIM_TAGS), min_size=1, max_size=4, unique=True),
    k_range=K_RANGES,
    timeout=TIMEOUTS,
)
def test_verify_boundary_fuzz(tmp_path_factory, corpus, claims, k_range, timeout):
    # every drawn input ends in a result or a typed refusal, quickly
    path = tmp_path_factory.mktemp("fuzz") / "corpus.json"
    path.write_text(json.dumps(corpus), encoding="utf-8")
    args = ["verify", "--claims", ",".join(claims), "--corpus", str(path)]
    args += ["--k-range", k_range]
    if timeout is not None:
        args += ["--timeout", timeout]
    invoke_to_typed_end(args, corpus)


def invoke_to_typed_end(args, given_input):
    """Run one command in process: it ends in a result or a typed refusal,
    with no traceback, within a second."""
    start = time.perf_counter()
    result = CliRunner().invoke(main, args)
    elapsed = time.perf_counter() - start
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, given_input, result.exception,
    )
    assert result.exit_code in (0, 1, 2, 3), (args, given_input, result.output)
    assert "Traceback" not in result.output
    assert elapsed < 1.0, (args, given_input, elapsed)
    return result


# Graph files for the compute/brute fuzz: valid edge lists (n <= 14), fixed
# malformed ones, and drawn ones with a header n <= 20 and a few edge lines
# of small or odd tokens.  No header n is drawn larger: parse_graph allocates
# in proportion to it.
@st.composite
def valid_graph_text(draw):
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return to_edgelist(Graph.from_edges(n, chosen))


TOKENS = st.one_of(
    st.integers(min_value=-1, max_value=22).map(str),
    st.sampled_from(["", "x", "1.0", "+1", "٣", "１", "2 ", " 2", "0x1", "99999999999999999999"]),
)
DRAWN_LINES = st.lists(
    st.tuples(TOKENS, TOKENS).map(" ".join) | st.sampled_from(["# note", "", "0 1 2"]),
    max_size=8,
)
DRAWN_GRAPH_TEXT = st.builds(
    lambda n, m, lines: "\n".join([f"{n} {m}", *lines]) + "\n",
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=8),
    DRAWN_LINES,
)
MALFORMED_GRAPH_TEXT = st.sampled_from([
    "",                        # empty file
    "\n# only a comment\n",
    "3\n",                     # bad header
    "3 1 1\n0 1\n",
    "-3 0\n",
    "n m\n",
    "3 1\n3 4\n",              # u >= n
    "3 1\n0 3\n",              # v >= n
    "3 1\n2 1\n",              # u > v
    "3 2\n0 1\n0 1\n",         # duplicate edge
    "3 1\n1 1\n",              # self-loop
    "3 1\n0 1\n1 2\n",         # extra lines
    "3 1\n٠ ١\n",              # non-ASCII digits
    "٣ ٠\n",
    "3 2\n0 1\n",              # too few edges
    "3 1\r\n0 1\r\n",
])
GRAPH_FILES = st.one_of(
    valid_graph_text().map(str.encode),
    DRAWN_GRAPH_TEXT.map(str.encode),
    MALFORMED_GRAPH_TEXT.map(str.encode),
    st.just(b"\xff\xfe3 0\n"),      # not UTF-8
)
K_VALUES = st.sampled_from(["2", "3", "4", str(10**20), "1", "-1", "x"])


@settings(max_examples=80, deadline=None)
@given(
    data=GRAPH_FILES,
    k=K_VALUES,
    command=st.one_of(
        st.tuples(st.just("compute"), st.sampled_from(["dp", "brute", "auto"]), TIMEOUTS),
        st.tuples(st.just("brute"), st.sampled_from([None, "0", "-1", str(10**20)])),
    ),
)
def test_compute_and_brute_boundary_fuzz(tmp_path_factory, data, k, command):
    # every drawn graph file and option ends in a result or a typed refusal
    path = tmp_path_factory.mktemp("fuzz") / "graph.txt"
    path.write_bytes(data)
    args = [command[0], "--input", str(path), "--k", k]
    if command[0] == "compute":
        _, method, timeout = command
        args += ["--method", method]
        if timeout is not None:
            args += ["--timeout", timeout]
    elif command[1] is not None:
        args += ["--limit", command[1]]
    invoke_to_typed_end(args, data)


# --k, --t and --p for the equalize/bounds fuzz: the small values, and 10**20,
# which no option may turn into work in proportion to its size
BIG = str(10**20)


@settings(max_examples=80, deadline=None)
@given(
    data=GRAPH_FILES,
    k=st.sampled_from(["2", BIG]),
    t=st.sampled_from([None, "-5", "0", "2", BIG]),
    command=st.one_of(
        st.tuples(st.just("equalize"), st.sampled_from(["girth5", "peel"])),
        st.tuples(st.just("bounds"), st.sampled_from(["1", BIG])),
    ),
)
def test_equalize_and_bounds_boundary_fuzz(tmp_path_factory, data, k, t, command):
    # every drawn graph file and option ends in a result or a typed refusal
    path = tmp_path_factory.mktemp("fuzz") / "graph.txt"
    path.write_bytes(data)
    args = [command[0], "--input", str(path), "--k", k]
    if t is not None:
        args += ["--t", t]
    if command[0] == "equalize":
        args += ["--procedure", command[1]]
    else:
        args += ["--p", command[1]]
    invoke_to_typed_end(args, data)


# construct and gen options for their boundary fuzz: every family and kind,
# --t at -5, 0, 1..8 or not an int, --n up to 40 or -1, at most 4 sizes of at
# most 8, --m and --seed at -1, in range or 10**20, and --count up to 3.  No
# larger construct --t or --n, or gen --count, is drawn: each builds or loops
# in proportion to its value.
NOT_INTS = st.sampled_from(["x", "1.5", "", "nan", "٣", BIG + ".0"])
ORDERS = st.integers(min_value=-1, max_value=40).map(str)


def maybe(name, values):
    """No option, or ``name`` with a drawn value."""
    return st.one_of(st.just([]), values.map(lambda value: [name, value]))


CONSTRUCT_ARGS = st.tuples(
    st.sampled_from(sorted(k.lower() for k, e in CORPUS_KINDS.items() if not e.random)),
    maybe("--t", st.one_of(st.sampled_from(["-5", "0"]),
                           st.integers(min_value=1, max_value=8).map(str), NOT_INTS)),
    maybe("--n", ORDERS),
    maybe("--sizes", st.lists(
        st.one_of(st.integers(min_value=-2, max_value=8).map(str),
                  st.sampled_from(["", "x", "1.5", " 3", "٣"])),
        max_size=4,
    ).map(",".join)),
).map(lambda parts: ["construct", "--family", parts[0], *parts[1], *parts[2], *parts[3]])
GEN_ARGS = st.tuples(
    st.sampled_from(sorted(k for k, e in CORPUS_KINDS.items() if e.random)),
    ORDERS,
    maybe("--m", st.one_of(st.sampled_from(["-1", BIG]),
                           st.integers(min_value=0, max_value=60).map(str))),
    maybe("--seed", st.one_of(st.sampled_from(["-1", BIG]),
                              st.integers(min_value=0, max_value=2**64).map(str))),
    maybe("--count", st.integers(min_value=-1, max_value=3).map(str)),
).map(lambda parts: ["gen", "--kind", parts[0], "--n", parts[1], *parts[2], *parts[3],
                     *parts[4]])


# bench options: every suite and format, no --suite, and names that are not
# a suite or a format.  All three suites together run in well under 0.1 s.
BENCH_ARGS = st.tuples(
    maybe("--suite", st.sampled_from(["small", "forest-dp", "oracle", "", "Small", "forest_dp"])),
    maybe("--format", st.sampled_from(["text", "json", "csv", "", "JSON", "yaml"])),
).map(lambda parts: ["bench", *parts[0], *parts[1]])


@settings(max_examples=80, deadline=None)
@given(args=st.one_of(CONSTRUCT_ARGS, GEN_ARGS, BENCH_ARGS))
def test_construct_and_gen_boundary_fuzz(tmp_path_factory, args):
    # every drawn family, kind, suite and option ends in a result or a typed
    # refusal; bench has nothing to refuse but its usage
    if args[0] == "gen":
        args = [*args, "--out", str(tmp_path_factory.mktemp("fuzz"))]
    result = invoke_to_typed_end(args, None)
    if args[0] == "bench":
        assert result.exit_code in (0, 2), (args, result.output)


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so no invariant of the package
    # may be one; a broken invariant raises an exception explicitly
    package = Path(degeq.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
