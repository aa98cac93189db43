"""Benchmark entry point.

    python3 perfbench/run.py --workload forest-exact --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with a single client: whole passes over
the seeded inputs, one operation at a time, for about ``--seconds`` and at
least ``MIN_OPS`` operations.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics.  End-to-end times are in reference milliseconds (``calibrate.py``);
per-layer times are as measured.  The last line of stdout is the result
object.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100
MIN_PASSES = 5
SETUP_REPS = 7
STARTUP_REPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="run the set-up and exit; the benchmark times this to get setup_s",
    )
    return parser.parse_args(argv)


def workload_why(name: str) -> str:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in bench["workloads"] if w["name"] == name)


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (1..9) as ``statistics.quantiles(values, n=10)``."""
    return statistics.quantiles(values, n=10)[q - 1]


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ---------------------------------------------------------------------------
# Passes


class Tally:
    """Latencies, per input, of the operations of one or more passes: as
    measured, and in reference milliseconds when a clock scales them."""

    def __init__(self, inputs: int) -> None:
        self.samples_ms: list[list[float]] = [[] for _ in range(inputs)]
        self.scaled_ms: list[list[float]] = [[] for _ in range(inputs)]
        self.kernel_ms: list[float] = []
        self.failed = 0
        self.checked = 0
        self.entries = 0
        self.counts: Counter = Counter()

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples_ms)

    def latencies_ms(self) -> list[float]:
        return [v for s in self.samples_ms for v in s]

    def typical_ms(self) -> list[float]:
        """Each operation's scaled latency replaced by the median of the
        scaled repeats of its input."""
        return [statistics.median(s) for s in self.scaled_ms for _ in s]


def run_pass(wl, tally: Tally, recorder=None, trace_dir: Path | None = None,
             clock=None) -> float:
    """One pass over the workload's items; returns its wall time in seconds.
    Latency covers the operation only; the calibration kernel (with a
    ``clock``) and the check run after it."""
    start = time.perf_counter()
    for i, item in enumerate(wl.items):
        trace_out = None if trace_dir is None else trace_dir / f"op-{i:04d}.json"
        t0 = time.perf_counter_ns()
        try:
            if recorder is None:
                result = wl.run(item)
            else:
                with recorder.span("bench.op"):
                    op_span = recorder.current()
                    result = wl.run(item) if trace_out is None else wl.run(item, trace_out)
            t1 = time.perf_counter_ns()
            if trace_out is not None:
                recorder.adopt(json.loads(trace_out.read_text()), op_span)
            ok = wl.check(item, result)
        except Exception:
            t1 = time.perf_counter_ns()
            traceback.print_exc()
            ok = False
        measured_ms = (t1 - t0) / 1e6
        tally.samples_ms[i].append(measured_ms)
        if clock is not None:
            tally.scaled_ms[i].append(clock.scale(measured_ms))
        if not ok:
            tally.failed += 1
            continue
        checked, entries = wl.checked(result)
        tally.checked += checked
        tally.entries += entries
        tally.counts.update(wl.counts(result))
    return time.perf_counter() - start


def measure(wl, seconds: float) -> tuple[Tally, int]:
    """Whole passes only, so every run times the same mix of inputs: after
    the first pass, as many passes as fit ``seconds`` best, but at least
    ``MIN_PASSES`` and enough for ``MIN_OPS`` operations."""
    from calibrate import Clock

    clock = Clock()
    tally = Tally(len(wl.items))
    first = run_pass(wl, tally, clock=clock)
    passes = max(round(seconds / first), MIN_PASSES, -(-MIN_OPS // len(wl.items)))
    for _ in range(passes - 1):
        run_pass(wl, tally, clock=clock)
    tally.kernel_ms = clock.kernel_samples
    return tally, passes


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time, in reference seconds, of fresh processes that import
    the package, build the inputs, write the files and warm up, then exit."""
    from calibrate import Clock
    from workloads import run_child

    clock = Clock()
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        returncode, _out, err = run_child(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-only"]
        )
        times.append(clock.scale(time.perf_counter() - start))
        if returncode != 0:
            raise RuntimeError(f"set-up process failed: {err}")
    return statistics.median(times)


def end_to_end(wl, args) -> tuple[dict, Tally, int]:
    tally, passes = measure(wl, args.seconds)
    ok_share = (tally.attempted - tally.failed) / tally.attempted
    typical = tally.typical_ms()
    metrics = {
        "throughput_per_s": (ok_share * 1000.0 * len(typical) / sum(typical), "1/s"),
        "latency_p50_ms": (statistics.median(typical), "ms"),
        "latency_p90_ms": (quantile(typical, 9), "ms"),
        "ok_share": (ok_share, "share"),
        "checked_share": (tally.checked / tally.entries if tally.entries else 0.0, "share"),
        "peak_rss_mb": (peak_rss_mb(wl.name == "cli-compute"), "MB"),
    }
    metrics["setup_s"] = (setup_seconds(wl.name, args.seed), "s")
    return metrics, tally, passes


# ---------------------------------------------------------------------------
# Traced run


def cli_startup_ms() -> float:
    """Median wall time of a fresh interpreter that imports ``degeq.cli``."""
    from workloads import run_child

    times = []
    for _ in range(STARTUP_REPS):
        start = time.perf_counter()
        returncode, _out, err = run_child([sys.executable, "-c", "import degeq.cli"])
        times.append((time.perf_counter() - start) * 1000.0)
        if returncode != 0:
            raise RuntimeError(f"importing degeq.cli failed: {err}")
    return statistics.median(times)


def per_layer(wl, args, workdir: Path) -> tuple[dict, Tally, int]:
    from tracing import Recorder, summarize
    from workloads import ENTRY_STATUSES, SKIP_REASONS

    recorder = Recorder()
    plain, traced = Tally(len(wl.items)), Tally(len(wl.items))
    plain_s = traced_s = 0.0
    passes = 0
    trace_dir = None
    if wl.name == "cli-compute":
        trace_dir = workdir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
    # Alternate plain and traced passes so drift affects both alike.
    while plain_s + traced_s < args.seconds:
        plain_s += run_pass(wl, plain)
        recorder.install()
        try:
            traced_s += run_pass(wl, traced, recorder, trace_dir)
        finally:
            recorder.uninstall()
        recorder.settle()
        passes += 2
    totals = summarize(recorder.spans)
    ops = traced.attempted

    def ms(key: str) -> tuple[float, str]:
        return totals.get(key, 0) / 1e6 / ops, "ms/op"

    def per_op(key: str) -> tuple[float, str]:
        return totals.get(key, 0) / ops, "count/op"

    def computed(key: str) -> tuple[float, str]:
        """A work count derived from the inputs and results, not measured."""
        return totals.get(key, 0) / ops, "computed/op"

    metrics = {
        "forest_dp.self_ms": ms("forest_dp.self"),
        "forest_dp.calls": per_op("forest_dp.compute_fk_forest.count"),
        "forest_dp.candidate_pairs": computed("forest_dp.compute_fk_forest.work"),
        "oracle.self_ms": ms("oracle.self"),
        "oracle.calls": per_op("oracle.brute_force_fk.count"),
        "oracle.subsets": computed("oracle.brute_force_fk.work"),
    }
    for fn in ("parse_graph", "is_forest", "degree_profile", "girth", "remove_vertices"):
        metrics[f"graph.{fn}.ms"] = ms(f"graph.{fn}.incl")
    metrics["graph.self_ms"] = ms("graph.self")
    for fn in ("make_certificate", "validate_certificate"):
        metrics[f"certificates.{fn}.ms"] = ms(f"certificates.{fn}.incl")
    metrics["certificates.invalid"] = per_op("certificates.validate_certificate.outcome.false")
    metrics["constructive.ms"] = ms("constructive.incl")
    metrics["constructive.precondition_refusals"] = per_op(
        "constructive.outer_outcome.PreconditionError"
    )
    metrics["bounds.ms"] = ms("bounds.incl")
    metrics["generators.ms"] = ms("generators.incl")
    metrics["verify.self_ms"] = ms("verify.self")
    for status in ENTRY_STATUSES:
        metrics[f"verify.entries.{status}"] = (traced.counts[f"entries.{status}"] / ops, "count/op")
    for reason in (*SKIP_REASONS.values(), "other"):
        metrics[f"verify.skip.{reason}"] = (traced.counts[f"skip.{reason}"] / ops, "count/op")
    is_cli = wl.name == "cli-compute"
    metrics["cli.startup_ms"] = (cli_startup_ms() if is_cli else 0.0, "ms")
    metrics["cli.call_ms"] = (
        statistics.fmean(plain.latencies_ms()) if is_cli else 0.0, "ms"
    )
    metrics["cli.self_ms"] = ms("cli.self")
    metrics["bench.self_ms"] = ms("bench.self")
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    metrics["trace.self_share"] = (totals.get("all.self", 0) / 1e9 / traced_s, "share")
    metrics["trace.spans"] = (len(recorder.spans) / ops, "count/op")
    plain.failed += traced.failed
    for mine, theirs in zip(plain.samples_ms, traced.samples_ms):
        mine.extend(theirs)
    return metrics, plain, passes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "degeq" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    logging.basicConfig(level=logging.WARNING)
    # The oracle warns on every call above 18 vertices; oracle-general makes
    # such calls by design.
    logging.getLogger("degeq.oracle").setLevel(logging.ERROR)

    import degeq
    import workloads
    from instances import git_commit

    if Path(degeq.__file__).resolve().parent != (SRC / "degeq").resolve():
        print(f"perfbench: degeq imported from {degeq.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        try:
            wl.setup()
        except workloads.SetupError as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 1
        if args.setup_only:
            return 0
        started = time.perf_counter()
        if args.trace:
            metrics, tally, passes = per_layer(wl, args, workdir)
        else:
            metrics, tally, passes = end_to_end(wl, args)
        meta = {
            "workload": wl.name,
            "why": workload_why(wl.name),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": git_commit(ROOT),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "inputs_per_pass": len(wl.items),
            "passes": passes,
            "operations": tally.attempted,
            "wall_s": time.perf_counter() - started,
        }
        if tally.kernel_ms:
            measured = [statistics.median(s) for s in tally.samples_ms]
            meta["measured_median_ms_per_input"] = statistics.fmean(measured)
            meta["kernel_ms_median"] = statistics.median(tally.kernel_ms)
        print("# perfbench " + json.dumps(meta))
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
