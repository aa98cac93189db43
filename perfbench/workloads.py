"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, exposes one
pass of operations as ``items``, times ``run(item)`` as one operation, and
checks the result outside the timed region with ``check``, against the pinned
f_k and with the benchmark's own residual-degree test.  ``run`` calls the
package through module attributes looked up at call time, so the tracing
wrappers see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from degeq import (
    certificates,
    forest_dp,
    generators,
    graph as dgraph,
    oracle,
    verify,
)
from instances import (
    Instance,
    adjacency,
    equalizes,
    load_pool,
    seeded_int,
    seeded_key,
    select,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

# Forests this small are re-solved by the subset oracle during set-up.
CROSS_CHECK_ORDER = 16
WARMUP_OPS = 3
CHILD_TIMEOUT_S = 120
VERIFY_K_RANGE = (2, 3)


class SetupError(RuntimeError):
    """An input failed a set-up check; the run must not be timed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str]) -> tuple[int, str, str]:
    """Run a child to completion and return (exit code, stdout, stderr).

    The wait is a blocking ``waitpid``: ``subprocess.run(timeout=...)`` polls
    with sleeps of up to 50 ms, which would round the measured times.  A
    watchdog timer kills a child that outlives ``CHILD_TIMEOUT_S``."""
    with subprocess.Popen(
        cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    return proc.returncode, out, err


@dataclass
class Item:
    """One operation's input, with what the check needs."""

    inst: Instance
    graph: object
    adj: list
    path: Path | None = None


def _pool_items(workload: str, seed: int) -> list[Item]:
    items = []
    for inst in select(load_pool(), workload, seed):
        graph = dgraph.Graph.from_edges(inst.n, inst.edges)
        if dgraph.check_fk_condition(graph, (), inst.k):
            raise SetupError(f"{inst.label}: trivial instance, f_{inst.k} = 0")
        items.append(Item(inst, graph, adjacency(inst.n, inst.edges)))
    return items


def _cross_check(items: list[Item]) -> None:
    """Re-derive pinned values that an independent method can reach."""
    for item in items:
        inst = item.inst
        if inst.family == "extremal" and inst.fk != int(inst.source[2:]):
            raise SetupError(f"{inst.label}: pinned f_3 {inst.fk} != t")
        if inst.n <= CROSS_CHECK_ORDER and dgraph.is_forest(item.graph):
            value = oracle.brute_force_fk(item.graph, inst.k)[0]
            if value != inst.fk:
                raise SetupError(f"{inst.label}: oracle gives {value}, pinned {inst.fk}")


class Workload:
    """A workload: ``items`` is one pass, ``run`` one timed operation."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.items: list = []

    def checked(self, result) -> tuple[int, int]:
        """(results checked exactly, results) of one operation."""
        return 1, 1

    def counts(self, result) -> Counter:
        """Per-operation counts the traced run reports."""
        return Counter()


class _SolverWorkload(Workload):
    """Shared shape of the two in-process solver workloads."""

    def setup(self) -> None:
        self.items = _pool_items(self.name, self.seed)
        _cross_check(self.items)
        for item in sorted(self.items, key=lambda it: it.inst.n)[:WARMUP_OPS]:
            if not self.check(item, self.run(item)):
                raise SetupError(f"{item.inst.label}: warm-up result is wrong")

    def check(self, item: Item, result) -> bool:
        value, cert, valid = result
        fk = item.inst.fk
        return (
            valid is True
            and value == fk
            and len(cert.x) == fk
            and equalizes(item.adj, cert.x, item.inst.k)
        )


class ForestExact(_SolverWorkload):
    name = "forest-exact"

    def run(self, item: Item):
        value, cert = forest_dp.compute_fk_forest(item.graph, item.inst.k)
        return value, cert, certificates.validate_certificate(item.graph, cert, item.inst.k)


class OracleGeneral(_SolverWorkload):
    name = "oracle-general"

    def run(self, item: Item):
        graph, k = item.graph, item.inst.k
        value, cert = oracle.brute_force_fk(graph, k, limit=graph.n)
        return value, cert, certificates.validate_certificate(graph, cert, k)


# ---------------------------------------------------------------------------


SKIP_REASONS = {
    "not a forest": "not-a-forest",
    "above oracle limit": "above-oracle-limit",
    "no exact solver": "no-exact-solver",
    "precondition": "precondition",
    "timeout": "timeout",
}
ENTRY_STATUSES = ("pass", "violated", "inapplicable", "skip", "report")

# (kind, size, pool, pick): small random forests, girth-5 graphs within and
# beyond the oracle's reach, and F_2..F_6.  Each cell's pool is a fixed list
# of config seeds; a run takes ``pick`` of them, chosen by its seed.  The
# large girth-5 graphs cost nearly the same on every seed, and the counts put
# the median operation among those with n=50 and the 90th percentile among
# those with n=60, so the two quantiles stay in one cell from seed to seed.
VERIFY_CELLS = (
    [("random-forest", 10, 12, 10), ("random-forest", 12, 12, 8),
     ("random-forest", 14, 12, 2), ("random-forest", 16, 12, 1)]
    + [("random-girth5", n, 12, 6) for n in (12, 15, 18)]
    + [("random-girth5", 40, 12, 10), ("random-girth5", 50, 20, 16),
       ("random-girth5", 55, 20, 16), ("random-girth5", 60, 20, 14)]
    + [("extremal-Ft", t, 1, 1) for t in range(2, 7)]
)
VERIFY_POOL_SEED = 20170524


def verify_configs(seed: int) -> list:
    configs = []
    for kind, size, pool, pick in VERIFY_CELLS:
        if kind == "extremal-Ft":
            configs.append(generators.GeneratorConfig(kind, t=size))
            continue
        ranked = sorted(range(pool), key=lambda i: seeded_key(seed, kind, size, i))
        configs.extend(
            generators.GeneratorConfig(
                kind, n=size, seed=seeded_int(VERIFY_POOL_SEED, kind, size, i)
            )
            for i in ranked[:pick]
        )
    return configs


@dataclass
class VerifyItem:
    """One corpus config, its f_k pinned by the oracle (where it reaches),
    and its adjacency for the residual check."""

    config: object
    pinned: dict[int, int]
    adj: list


def skip_reason(note: str) -> str:
    text = note.removeprefix("skip: ")
    for prefix, slug in SKIP_REASONS.items():
        if text.startswith(prefix):
            return slug
    return "other"


class VerifyCorpus(Workload):
    name = "verify-corpus"

    def setup(self) -> None:
        items = []
        for config in verify_configs(self.seed):
            graph = verify.realize(verify.expand_corpus([config])[0])
            pinned = {}
            if graph.n <= oracle.DEFAULT_ORDER_LIMIT:
                for k in VERIFY_K_RANGE:
                    pinned[k] = oracle.brute_force_fk(graph, k)[0]
            if config.kind == "extremal-Ft":
                if pinned.get(3, config.t) != config.t:
                    raise SetupError(f"F_{config.t}: oracle gives f_3 = {pinned[3]}")
                pinned[3] = config.t
            items.append(VerifyItem(config, pinned, [list(a) for a in graph.adj]))
        items.sort(key=lambda it: seeded_key(self.seed, "order", repr(it.config)))
        self.items = items
        for item in sorted(items, key=lambda it: len(it.adj))[:WARMUP_OPS]:
            if not self.check(item, self.run(item)):
                raise SetupError(f"{item.config}: warm-up result is wrong")

    def run(self, item):
        return verify.run_verification(
            [item.config], list(verify.CLAIM_TAGS), k_range=VERIFY_K_RANGE
        )

    def check(self, item: VerifyItem, report) -> bool:
        pinned, adj = item.pinned, item.adj
        summary = report.summary
        if summary["violated"] or summary["errors"] or len(report.results) != 1:
            return False
        for key, computed in report.results[0].computed.items():
            k = int(key)
            if computed["certificate_valid"] is False:
                return False
            if k in pinned and computed["f_k"] != pinned[k]:
                return False
            cert = computed["certificate"]
            if cert is not None and not equalizes(adj, cert["X"], k):
                return False
        return True

    def checked(self, report) -> tuple[int, int]:
        """(claim entries not skipped, all claim entries) of one instance."""
        entries = report.results[0].entries
        return sum(1 for e in entries if e.status != "skip"), len(entries)

    def counts(self, report) -> Counter:
        entries = report.results[0].entries
        counts = Counter(f"entries.{e.status}" for e in entries)
        counts.update(f"skip.{skip_reason(e.note)}" for e in entries if e.status == "skip")
        return counts


# ---------------------------------------------------------------------------


class CliCompute(Workload):
    name = "cli-compute"

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.items = _pool_items(self.name, self.seed)
        _cross_check(self.items)
        for i, item in enumerate(self.items):
            item.path = self.workdir / f"input-{i:03d}.txt"
            item.path.write_text(dgraph.to_edgelist(item.graph), encoding="utf-8")
        for item in sorted(self.items, key=lambda it: it.inst.n)[:1]:
            if not self.check(item, self.run(item)):
                raise SetupError(f"{item.inst.label}: warm-up result is wrong")

    def command(self, item: Item, trace_out: Path | None) -> list[str]:
        args = ["compute", "--input", str(item.path), "--k", str(item.inst.k),
                "--format", "json"]
        if trace_out is None:
            return [sys.executable, "-m", "degeq.cli", *args]
        return [sys.executable, str(CLI_CHILD), str(trace_out), *args]

    def run(self, item: Item, trace_out: Path | None = None):
        return run_child(self.command(item, trace_out))

    def check(self, item: Item, result) -> bool:
        returncode, stdout, stderr = result
        if returncode != 0:
            sys.stderr.write(f"{item.inst.label}: exit {returncode}: {stderr}\n")
            return False
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        fk = item.inst.fk
        expected = "dp" if item.inst.family == "random-forest" else "brute"
        return (
            payload.get("f_k") == fk
            and len(payload.get("X", ())) == fk
            and payload.get("method") == expected
            and equalizes(item.adj, payload["X"], item.inst.k)
        )


WORKLOADS = {w.name: w for w in (ForestExact, OracleGeneral, VerifyCorpus, CliCompute)}
