"""Command-line interface.

Exit codes: 0 success, 1 claim violation or invalid certificate, 2 usage
error, 3 input error.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from pathlib import Path
from typing import NoReturn

import click

from .certificates import validate_certificate
from .forest_dp import DeadlineExceeded
from .graph import (
    INFINITY,
    Graph,
    GraphFormatError,
    degree_profile,
    girth,
    parse_graph,
    to_edgelist,
)
from .oracle import OrderLimitError, solve


def _register_unexecuted(*names: str) -> None:
    """Put the submodules ``names`` in ``sys.modules`` unexecuted; each runs
    on its first attribute access (``importlib.util.LazyLoader``).  Only some
    commands run them, yet a tool that wraps the package's functions after
    ``import degeq.cli`` (perfbench's tracer) looks every module up there."""
    package = sys.modules[__package__]
    for name in names:
        fullname = f"{__package__}.{name}"
        if fullname in sys.modules:
            continue
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(package, name, module)


_register_unexecuted(
    "bench", "bounds", "constructive", "extremal", "generators", "verify"
)

EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INPUT = 3

# construct writes the deterministic kinds of generators.CORPUS_KINDS, gen the
# random ones, in the table's order; spelled out so that compute never runs
# generators
_RANDOM_KINDS = ("random-forest", "random-girth5")
_FAMILIES = {
    kind.lower(): kind for kind in ("extremal-Ft", "star", "path", "star-union")
}


def _fail(code: int, message: str) -> NoReturn:
    click.echo(message, err=True)
    sys.exit(code)


def _seconds(ctx, param, value):
    if value is not None and not value >= 0:  # NaN too: a NaN deadline never passes
        _fail(EXIT_USAGE, f"usage error: --timeout must be >= 0 seconds, not {value}")
    return value


def _format_option(*choices: str):
    return click.option(
        "--format", "fmt", type=click.Choice(choices), default="text", show_default=True
    )


def _load_graph(path: str) -> Graph:
    try:
        return parse_graph(Path(path).read_text(encoding="utf-8"))
    except (OSError, GraphFormatError, ValueError) as exc:
        _fail(EXIT_INPUT, f"input error: {exc}")


def _emit_result(payload: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2, allow_nan=False))
    elif fmt == "csv":
        keys = list(payload)
        click.echo(",".join(keys))
        click.echo(
            ",".join(
                " ".join(map(str, payload[key]))
                if isinstance(payload[key], list)
                else str(payload[key])
                for key in keys
            )
        )
    else:
        click.echo(
            f"f_{payload['k']} = {payload['f_k']} (method {payload['method']}, "
            f"{payload['elapsed_ms']} ms)"
        )
        click.echo(f"X = {payload['X']}")
        if payload["order_below_k"]:
            click.echo(f"residual order below k = {payload['k']}")
        else:
            click.echo(
                f"residual max degree = {payload['residual_max_degree']}, "
                f"witnesses = {payload['witnesses']}"
            )


@click.group()
def main():
    """Solvers and checkers for equating k maximum degrees by deletion."""


@main.command()
@click.option("--input", "input_path", required=True, help="Edge-list file.")
@click.option("--k", "k", type=click.IntRange(min=2), required=True)
@_format_option("text", "json", "csv")
@click.option(
    "--timeout", type=float, callback=_seconds,
    help="Seconds before the solve is refused; lifts the oracle's order limit.",
)
def compute(input_path, k, fmt, timeout):
    """Exact equalization number of a graph, with a re-validated certificate:
    the tree program on a forest (method dp), the oracle otherwise (brute)."""
    graph = _load_graph(input_path)
    start = time.perf_counter()
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        value, cert = solve(graph, k, deadline)
    except OrderLimitError as exc:
        _fail(EXIT_USAGE, f"usage error: {exc}; --timeout SECS searches past it")
    except DeadlineExceeded as exc:
        _fail(EXIT_USAGE, f"refused: {exc} (--timeout {timeout} s)")
    elapsed = (time.perf_counter() - start) * 1000.0
    if not validate_certificate(graph, cert, k):
        _fail(EXIT_VIOLATION, "internal error: produced certificate failed validation")
    payload = {
        "n": graph.n,
        "m": graph.m,
        "k": k,
        "f_k": value,
        "method": cert.method,
        "X": list(cert.x),
        "residual_max_degree": cert.residual_max_degree,
        "witnesses": list(cert.witnesses),
        "order_below_k": cert.order_below_k,
        "elapsed_ms": round(elapsed, 3),
    }
    _emit_result(payload, fmt)


@main.command()
@click.option("--family", type=click.Choice(list(_FAMILIES)), required=True)
@click.option("--t", "t", type=int, default=None, help="Extremal family parameter.")
@click.option("--n", "n", type=int, default=None, help="Order for star/path.")
@click.option("--sizes", default=None, help="Comma-separated star leaf counts.")
@click.option("--out", "out_path", default=None, help="Output file (default stdout).")
def construct(family, t, n, sizes, out_path):
    """Write a deterministic family member as an edge list."""
    from .generators import GeneratorConfig, expand_corpus, realize

    try:
        sizes = tuple(int(s) for s in sizes.split(",")) if sizes else None
        config = GeneratorConfig(_FAMILIES[family], n=n, t=t, sizes=sizes)
        graph = realize(expand_corpus([config])[0])
    except ValueError as exc:
        _fail(EXIT_USAGE, f"usage error: {exc}")
    text = to_edgelist(graph)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--kind", type=click.Choice(_RANDOM_KINDS), required=True)
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--m", "m", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--out", "out_dir", required=True, help="Output directory.")
def gen(kind, n, m, seed, count, out_dir):
    """Generate seeded random instances into a directory."""
    from .generators import GeneratorConfig, expand_corpus, realize

    try:
        config = GeneratorConfig(kind, n=n, m=m, seed=seed, count=count)
    except ValueError as exc:
        _fail(EXIT_INPUT, f"input error: {exc}")
    out = Path(out_dir)
    for spec in expand_corpus([config]):
        try:
            graph = realize(spec)
        except ValueError as exc:
            _fail(EXIT_INPUT, f"input error: instance {spec.index}: {exc}")
        out.mkdir(parents=True, exist_ok=True)  # not before an instance is built
        path = out / f"{kind}-n{n}-s{seed}-i{spec.index:04d}.txt"
        path.write_text(to_edgelist(graph), encoding="utf-8")
        click.echo(str(path))


@main.command()
@click.option("--input", "input_path", required=True)
@click.option("--k", "k", type=click.IntRange(min=2), default=3, show_default=True)
@click.option("--t", "t", type=click.IntRange(min=2), default=None)
@click.option("--p", "p", type=click.IntRange(min=1), default=2, show_default=True)
@_format_option("text", "json")
def bounds(input_path, k, t, p, fmt):
    """Print all applicable bound evaluations for one instance."""
    from .bounds import (
        asymptotic_report,
        bound_corollary2,
        bound_theorem1,
        bound_theorem2,
        bound_theorem3,
        c_k,
        corollary1_check,
        corollary2_t,
        girth_field,
        theorem1_t,
        theorem2_t,
        theorem3_t,
    )

    graph = _load_graph(input_path)
    profile = degree_profile(graph)
    g = girth(graph)
    forest = g == INFINITY
    report: dict = {
        "n": graph.n,
        "m": graph.m,
        "girth": girth_field(g),
        "is_forest": forest,
        "degree_profile_head": list(profile.deltas[:10]),
        "constants": {"c_2": c_k(2), "c_3": c_k(3)},
    }
    if forest:
        t1 = theorem1_t(graph)
        t2 = theorem2_t(profile)
        t3 = corollary2_t(graph)
        report["forest_thresholds"] = {
            "two-max-degrees": {"t": t1, "edge_bound": bound_theorem1(t1)},
            "three-max-degrees-profile": {"t": t2, "bound": bound_theorem2(t2)},
            "three-max-degrees-size": {"t": t3, "bound": str(bound_corollary2(t3))},
        }
    if g >= 5:
        t_g5 = theorem3_t(profile, k)
        report["girth5_threshold"] = {
            "k": k,
            "t": t_g5,
            "bound": bound_theorem3(k, t_g5),
        }
    if t is not None and graph.n >= t + 1:
        report["degree_lower_bounds_at_t"] = corollary1_check(profile, t).to_dict()
    try:
        report["asymptotics"] = [e.to_dict() for e in asymptotic_report(graph, k, p, g)]
    except OverflowError:  # cor4 and cor5 raise C(k, 2) to a float power
        _fail(EXIT_USAGE, "usage error: --k is too large for a float C(k, 2)")
    if fmt == "json":
        click.echo(json.dumps(report, indent=2, default=str, allow_nan=False))
    else:
        for key, value in report.items():
            click.echo(f"{key}: {value}")


@main.command()
@click.option("--claims", required=True, help="Comma-separated claim tags.")
@click.option("--corpus", "corpus_path", required=True, help="JSON corpus spec.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--timeout", type=float, callback=_seconds, help="Seconds per instance.")
@_format_option("text", "json", "csv")
@click.option("--k-range", default="2,3", show_default=True)
def verify(claims, corpus_path, jobs, timeout, fmt, k_range):
    """Run claim checks over a generated corpus; exit 1 on any violation."""
    from .generators import GeneratorConfig
    from .verify import CLAIM_TAGS, check_k_range, run_verification

    claim_list = [c.strip() for c in claims.split(",") if c.strip()]
    unknown = [c for c in claim_list if c not in CLAIM_TAGS]
    if unknown:
        _fail(EXIT_USAGE, f"usage error: unknown claims {unknown}")
    try:
        ks = check_k_range(int(x) for x in k_range.split(","))
    except ValueError as exc:
        _fail(EXIT_USAGE, f"usage error: bad --k-range: {exc}")
    try:
        raw = json.loads(Path(corpus_path).read_text(encoding="utf-8"))
        if isinstance(raw, dict):
            raw = raw["configs"]
        configs = [GeneratorConfig.from_dict(item) for item in raw]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        _fail(EXIT_INPUT, f"input error: bad corpus spec: {exc}")
    report = run_verification(
        configs, claim_list, k_range=ks, jobs=jobs, timeout=timeout
    )
    if fmt == "json":
        click.echo(report.to_json(), nl=False)
    elif fmt == "csv":
        click.echo(report.to_csv(), nl=False)
    else:
        click.echo(report.to_text(), nl=False)
    if not report.ok:
        sys.exit(EXIT_VIOLATION)


@main.command("bench")
@click.option(
    "--suite",
    type=click.Choice(["small", "forest-dp", "oracle"]),
    required=True,
)
@_format_option("text", "json", "csv")
def bench(suite, fmt):
    """Time the solvers on fixed seeded instances."""
    from . import bench as bench_mod

    rows = bench_mod.run_suite(suite)
    click.echo(bench_mod.render(rows, fmt), nl=False)


@main.command()
@click.option("--input", "input_path", required=True)
@click.option("--k", "k", type=click.IntRange(min=2), required=True)
@click.option("--t", "t", type=int, default=None, help="Deletion budget (girth5 only).")
@click.option(
    "--procedure",
    type=click.Choice(["girth5", "peel"]),
    default="girth5",
    show_default=True,
)
def equalize(input_path, k, t, procedure):
    """Run a constructive procedure and print its certificate."""
    from .constructive import PreconditionError, girth5_equalize, peel_removal

    if procedure == "girth5" and t is None:
        _fail(EXIT_USAGE, "usage error: --procedure girth5 requires --t")
    if procedure == "peel" and t is not None:
        _fail(EXIT_USAGE, "usage error: --procedure peel takes no --t")
    graph = _load_graph(input_path)
    try:
        if procedure == "peel":
            cert = peel_removal(graph, k)
        else:
            cert = girth5_equalize(graph, k, t, girth(graph))
    except PreconditionError as exc:
        _fail(EXIT_USAGE, f"usage error: {exc}")
    payload = cert.to_dict()
    payload["valid"] = validate_certificate(graph, cert, k)
    click.echo(json.dumps(payload, indent=2, allow_nan=False))
    if not payload["valid"]:
        sys.exit(EXIT_VIOLATION)


if __name__ == "__main__":
    main()
