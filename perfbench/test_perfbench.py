"""The benchmark's own tests: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from degeq import (  # noqa: E402
    Graph,
    brute_force_fk,
    check_fk_condition,
    gen_random_forest,
    gen_random_girth5,
    is_forest,
)
import calibrate  # noqa: E402
from instances import (  # noqa: E402
    candidate_pairs,
    equalizes,
    load_pool,
    select,
    subsets_tried,
)
from tracing import Recorder, summarize  # noqa: E402
from workloads import VERIFY_CELLS, WORKLOADS, verify_configs  # noqa: E402

POOL = load_pool()
POOL_WORKLOADS = ("forest-exact", "oracle-general", "cli-compute")


def pool_graphs():
    for cell in POOL["cells"]:
        for item in cell["instances"]:
            flat = item["edges"]
            graph = Graph.from_edges(item["n"], zip(flat[0::2], flat[1::2]))
            yield cell, item, graph


def test_every_pool_instance_is_nontrivial():
    for cell, item, graph in pool_graphs():
        assert item["fk"] >= 1, cell["name"]
        assert not check_fk_condition(graph, (), cell["k"]), cell["name"]


def test_small_forests_match_the_oracle():
    checked = 0
    for cell, item, graph in pool_graphs():
        if graph.n <= 16 and is_forest(graph):
            assert brute_force_fk(graph, cell["k"])[0] == item["fk"], cell["name"]
            checked += 1
    assert checked >= 10


def test_extremal_forests_are_pinned_to_t():
    extremal = [(cell, item) for cell, item, _ in pool_graphs() if cell["family"] == "extremal"]
    assert [item["source"] for _, item in extremal] == ["F_5", "F_6"]
    for cell, item in extremal:
        assert cell["k"] == 3 and item["fk"] == int(item["source"][2:])


def test_oracle_cells_hold_their_target_and_reach_past_18_vertices():
    for cell, item, graph in pool_graphs():
        if cell["workload"] == "oracle-general":
            assert not is_forest(graph)
            assert 18 <= graph.n <= 28
            assert item["fk"] == int(cell["name"].rsplit("-f", 1)[1])


@pytest.mark.parametrize("workload", POOL_WORKLOADS)
def test_selection_is_a_function_of_the_seed(workload):
    first = [inst.label for inst in select(POOL, workload, 7)]
    assert first == [inst.label for inst in select(POOL, workload, 7)]
    assert first != [inst.label for inst in select(POOL, workload, 8)]
    expected = sum(c["pick"] for c in POOL["cells"] if c["workload"] == workload)
    assert len(first) == len(set(first)) == expected


def test_verify_configs_follow_the_cells():
    configs = verify_configs(3)
    assert len(configs) == sum(pick for *_, pick in VERIFY_CELLS)
    assert configs == verify_configs(3)
    assert configs != verify_configs(4)


def test_equalizes_agrees_with_the_package():
    for seed in range(30):
        graph = gen_random_girth5(9, seed=seed) if seed % 2 else gen_random_forest(9, seed=seed)
        adj = [list(a) for a in graph.adj]
        for k in (2, 3):
            for size in range(3):
                for removed in combinations(range(graph.n), size):
                    assert equalizes(adj, removed, k) == check_fk_condition(graph, removed, k)


def test_subsets_tried_counts_the_oracle_enumeration():
    for seed in range(20):
        graph = gen_random_girth5(10, seed=seed)
        adj = [list(a) for a in graph.adj]
        for k in (2, 3):
            value, cert = brute_force_fk(graph, k)
            tried = 0
            for size in range(graph.n + 1):
                found = False
                for subset in combinations(range(graph.n), size):
                    tried += 1
                    if equalizes(adj, subset, k):
                        found = True
                        break
                if found:
                    break
            assert subset == cert.x and size == value
            assert subsets_tried(graph.n, cert.x) == tried


def test_candidate_pairs_formula():
    star = [[1, 2, 3], [0], [0], [0]]
    # d_2 = 1: delta 0 -> C(4, 2), delta 1 -> C(4, 2).
    assert candidate_pairs(star, 2) == 2 * comb(4, 2)


def test_self_times_add_up_to_the_root():
    recorder = Recorder()

    def leaf():
        return sum(range(1000))

    wrapped = recorder.wrap("graph.leaf", leaf)
    for _ in range(3):
        with recorder.span("bench.op"):
            wrapped()
            wrapped()
    totals = summarize(recorder.spans)
    roots = sum(s[3] - s[2] for s in recorder.spans if s[1] < 0)
    assert totals["all.self"] == roots
    assert totals["graph.leaf.count"] == 6


def test_clock_scales_by_the_kernel_times_around_the_operation(monkeypatch):
    monkeypatch.setattr(calibrate, "kernel_ms", iter([2.0, 4.0, 1.0]).__next__)
    monkeypatch.setattr(calibrate.Clock, "WARMUP_RUNS", 0)
    clock = calibrate.Clock()
    ref = calibrate.KERNEL_REF_MS
    # The kernel took 3 ms on average around the first operation, 2.5 ms
    # around the second.
    assert clock.scale(30.0) == pytest.approx(30.0 * ref / 3.0)
    assert clock.scale(5.0) == pytest.approx(5.0 * ref / 2.5)
    assert clock.kernel_samples == [4.0, 1.0]


def test_kernel_does_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170, check=False,
    )


def test_result_line_has_the_contract_keys():
    proc = run_benchmark("--workload", "verify-corpus", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
