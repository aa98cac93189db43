"""Corpus-scale claim verification.

Expands generator configs into seeded instances, computes exact equalization
numbers where feasible (tree program for forests, brute force for small
general graphs and for f_k <= 1 on larger ones), evaluates the requested
claims, and aggregates everything into a deterministic report whose CSV form
is byte-identical across runs and job counts.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from functools import cached_property

from . import bounds
from .bounds import ClaimEntry, INAPPLICABLE, PASS, SKIP, VIOLATED
from .certificates import RemovalCertificate, validate_certificate
from .constructive import PreconditionError, equalize3_forest, girth5_equalize
from .forest_dp import DeadlineExceeded
from .generators import GeneratorConfig, InstanceSpec, expand_corpus, realize
from .graph import INFINITY, degree_profile, girth
from .oracle import OrderLimitError, brute_force_fk, solve


class _InstanceContext:
    """Lazily computed facts about one instance, shared by all claims."""

    def __init__(self, spec, graph, deadline):
        self.spec = spec
        self.graph = graph
        self.deadline = deadline
        # k -> the exact solver's certificate, None where no solver reaches
        self.certificates: dict[int, RemovalCertificate | None] = {}

    @cached_property
    def profile(self):
        return degree_profile(self.graph)

    @cached_property
    def girth(self):
        return girth(self.graph)

    @cached_property
    def forest(self) -> bool:
        return self.girth == INFINITY

    def fk(self, k: int) -> tuple[int | None, str]:
        """(value, method) with value None past the oracle's reach."""
        if k not in self.certificates:
            try:
                self.certificates[k] = solve(self.graph, k, deadline=self.deadline)[1]
            except OrderLimitError:
                self.certificates[k] = None
        cert = self.certificates[k]
        if cert is None:
            return None, "none"
        return len(cert.x), cert.method


def _skip(claim: str, params: dict, note: str) -> ClaimEntry:
    return ClaimEntry(claim, params, {}, None, {}, None, note=f"skip: {note}")


def _inapplicable(claim: str, params: dict, hypothesis: dict) -> ClaimEntry:
    return ClaimEntry(claim, params, hypothesis, False, {}, True)


def _at_most_t(ctx, claim: str, k: int, t: int, hypothesis: dict) -> ClaimEntry:
    """The entry for a claim that concludes f_k <= t; its hypothesis holds."""
    value, method = ctx.fk(k)
    if value is None:
        return _skip(claim, {"k": k, "t": t}, f"no exact solver for f_{k}")
    return ClaimEntry(
        claim,
        {"k": k, "t": t},
        hypothesis,
        True,
        {f"f_{k}": value, "needs": f"<= {t}", "method": method},
        value <= t,
        fk=value,
    )


def _within_budget(
    ctx, claim: str, k: int, t: int, hypothesis: dict, skip_params: dict, procedure
) -> ClaimEntry:
    """The entry for a procedure that must equalize with at most t deletions."""
    try:
        cert = procedure()
    except PreconditionError as exc:
        return _skip(claim, skip_params, f"precondition: {exc}")
    ok = validate_certificate(ctx.graph, cert, k) and len(cert.x) <= t
    conclusion = {"x_size": len(cert.x), "certificate_valid": ok}
    return ClaimEntry(claim, {"k": k, "t": t}, hypothesis, True, conclusion, ok)


def _claim_oracle_equiv(ctx, k: int) -> list[ClaimEntry]:
    try:  # the oracle first: past its reach the tree program need not run
        bf_value, bf_cert = brute_force_fk(ctx.graph, k, deadline=ctx.deadline)
    except OrderLimitError:
        return [_skip("oracle-equiv", {"k": k}, "above oracle limit")]
    dp_value, _ = ctx.fk(k)
    dp_cert = ctx.certificates[k]
    certs_ok = validate_certificate(ctx.graph, dp_cert, k) and validate_certificate(
        ctx.graph, bf_cert, k
    )
    same_x = dp_cert.x == bf_cert.x
    return [
        ClaimEntry(
            "oracle-equiv",
            {"k": k},
            {"n": ctx.graph.n},
            True,
            {
                "dp": dp_value,
                "brute": bf_value,
                "certificates_valid": certs_ok,
                "same_x": same_x,
            },
            dp_value == bf_value and certs_ok and same_x,
            fk=bf_value,
        )
    ]


def _claim_thm1(ctx, k: int) -> list[ClaimEntry]:
    t = bounds.theorem1_t(ctx.graph)
    hypothesis = {"m": ctx.graph.m, "bound": bounds.bound_theorem1(t)}
    return [_at_most_t(ctx, "thm1", k, t, hypothesis)]


def _claim_thm2(ctx, k: int) -> list[ClaimEntry]:
    t = bounds.theorem2_t(ctx.profile)
    hypothesis = {
        "d1_plus_2d2": bounds.weighted_degrees(ctx.profile, k),
        "bound": bounds.bound_theorem2(t),
    }
    return [_at_most_t(ctx, "thm2", k, t, hypothesis)]


def _claim_thm2_cert(ctx, k: int) -> list[ClaimEntry]:
    t = bounds.theorem2_t(ctx.profile)
    return [
        _within_budget(
            ctx, "thm2-cert", k, t, {"budget": t}, {"t": t},
            lambda: equalize3_forest(ctx.graph, t),
        )
    ]


def _claim_cor1(ctx, k: int) -> list[ClaimEntry]:
    value, _ = ctx.fk(k)
    if value <= 2:
        return [_inapplicable("cor1", {"t": 2}, {f"f_{k}": value, "needs": "> 2"})]
    return [
        bounds.corollary1_check(ctx.profile, t, fk=value)
        for t in range(2, value)
    ]


def _claim_cor2(ctx, k: int) -> list[ClaimEntry]:
    t = bounds.corollary2_t(ctx.graph)
    hypothesis = {"m": ctx.graph.m, "bound": str(bounds.bound_corollary2(t))}
    return [_at_most_t(ctx, "cor2", k, t, hypothesis)]


def _claim_thm3(ctx, k: int) -> list[ClaimEntry]:
    t = bounds.theorem3_t(ctx.profile, k)
    hypothesis = {
        "weighted_degrees": bounds.weighted_degrees(ctx.profile, k),
        "bound": bounds.bound_theorem3(k, t),
        "c_k": bounds.c_k(k),
    }
    return [_at_most_t(ctx, "thm3", k, t, hypothesis)]


def _claim_lemma2(ctx, k: int) -> list[ClaimEntry]:
    if ctx.spec.kind != "extremal-Ft":
        return [_inapplicable("lemma2", {}, {"kind": ctx.spec.kind})]
    t = ctx.spec.params["t"]
    value, method = ctx.fk(k)
    return [
        ClaimEntry(
            "lemma2",
            {"k": k, "t": t},
            {"kind": "extremal-Ft"},
            True,
            {f"f_{k}": value, "expected": t, "method": method},
            value == t,
            fk=value,
        )
    ]


def _claim_lemma3_cert(ctx, k: int) -> list[ClaimEntry]:
    if ctx.graph.n < k:
        return [_inapplicable("lemma3-cert", {"k": k}, {"n": ctx.graph.n})]
    surplus = bounds.lemma3_surplus(ctx.profile, k)
    t = max((k - 1) ** 2, surplus)
    return [
        _within_budget(
            ctx, "lemma3-cert", k, t, {"surplus": surplus, "budget": t},
            {"k": k, "t": t}, lambda: girth5_equalize(ctx.graph, k, t, ctx.girth),
        )
    ]


def _claim_moore(ctx, p: int) -> list[ClaimEntry]:
    return [bounds.moore_entry(ctx.graph, p, ctx.girth)]


# claim -> (its function of one k, or of p for moore; the graph class its
# hypotheses need; the values the paper states it at, None for every k of the
# run).  Outside its class a claim is inapplicable at those same values.
_CLAIMS = {
    "oracle-equiv": (_claim_oracle_equiv, "forest", None),
    "thm1": (_claim_thm1, "forest", (2,)),
    "thm2": (_claim_thm2, "forest", (3,)),
    "cor1": (_claim_cor1, "forest", (3,)),
    "cor2": (_claim_cor2, "forest", (3,)),
    "thm3": (_claim_thm3, "girth5", None),
    "lemma2": (_claim_lemma2, None, (3,)),
    "lemma3-cert": (_claim_lemma3_cert, "girth5", None),
    "thm2-cert": (_claim_thm2_cert, "forest", (3,)),
    "moore": (_claim_moore, None, (2, 3)),
}
CLAIM_TAGS = tuple(_CLAIMS)


@dataclass
class RunResult:
    spec: InstanceSpec
    n: int | None
    m: int | None
    entries: list[ClaimEntry] = field(default_factory=list)
    computed: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "instance": self.spec.label(),
            "kind": self.spec.kind,
            "params": {k: v for k, v in self.spec.params.items()},
            "n": self.n,
            "m": self.m,
            "entries": [e.to_dict() for e in self.entries],
            "computed": self.computed,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "error": self.error,
        }


def _run_instance(args) -> RunResult:
    spec, claims, k_range, timeout = args
    start = time.monotonic()
    try:
        graph = realize(spec)
    except Exception as exc:  # generator failures must not abort the run
        return RunResult(spec, None, None, error=f"{type(exc).__name__}: {exc}")
    deadline = None if timeout is None else start + timeout
    ctx = _InstanceContext(spec, graph, deadline)
    entries: list[ClaimEntry] = []
    for claim in claims:
        func, needs, values = _CLAIMS[claim]
        values = values or k_range
        if needs == "forest" and not ctx.forest:
            failed = {"forest": False}
        elif needs == "girth5" and ctx.girth < 5:
            failed = {"girth": ctx.girth, "needs": ">= 5"}
        else:
            failed = None
        if failed is not None:
            entries.extend(_inapplicable(claim, {"k": k}, failed) for k in values)
            continue
        try:  # a timeout at any value drops the claim's rows for one skip
            entries.extend([row for v in values for row in func(ctx, v)])
        except DeadlineExceeded:
            entries.append(_skip(claim, {}, "timeout"))
    computed = {}
    for k, cert in sorted(ctx.certificates.items()):
        value, method = ctx.fk(k)
        cert_ok = None if cert is None else validate_certificate(graph, cert, k)
        computed[str(k)] = {
            "f_k": value,
            "method": method,
            "certificate": None if cert is None else cert.to_dict(),
            "certificate_valid": cert_ok,
        }
        if cert_ok is False:
            concl = {"certificate_valid": False}
            entries.append(ClaimEntry("certificate", {"k": k}, {}, True, concl, False))
    elapsed = (time.monotonic() - start) * 1000.0
    return RunResult(spec, graph.n, graph.m, entries, computed, elapsed)


# The verify CSV columns; a cell missing from a row, or None, is written
# empty.  No timing columns: identical (corpus, claims, seed) runs must be
# byte-identical regardless of job count or machine.
_CSV_COLUMNS = (
    "instance", "kind", "n", "m", "claim", "k", "t", "p",
    "hypothesis_holds", "conclusion_holds", "status", "f_k", "note",
)


@dataclass
class VerificationReport:
    results: list[RunResult]
    claims: tuple[str, ...]
    k_range: tuple[int, ...]

    @property
    def summary(self) -> dict:
        counts = {PASS: 0, VIOLATED: 0, INAPPLICABLE: 0, SKIP: 0, "report": 0}
        for result in self.results:
            for entry in result.entries:
                counts[entry.status] = counts.get(entry.status, 0) + 1
        counts["instances"] = len(self.results)
        counts["errors"] = sum(1 for r in self.results if r.error)
        return counts

    @property
    def ok(self) -> bool:
        return self.summary[VIOLATED] == 0

    def to_json(self) -> str:
        payload = {
            "claims": list(self.claims),
            "k_range": list(self.k_range),
            "results": [r.to_dict() for r in self.results],
            "summary": self.summary,
            "ok": self.ok,
        }
        return json.dumps(payload, indent=2, default=str, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, _CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for result in self.results:
            row = {"instance": result.spec.label(), "kind": result.spec.kind}
            if result.error:
                row.update(claim="generator", status="error", note=result.error)
                writer.writerow(row)
                continue
            row.update(n=result.n, m=result.m)
            for e in result.entries:
                row.update(
                    claim=e.claim, k=e.params.get("k"), t=e.params.get("t"),
                    p=e.params.get("p"), hypothesis_holds=e.hypothesis_holds,
                    conclusion_holds=e.conclusion_holds, status=e.status,
                    f_k=e.fk, note=e.note,
                )
                writer.writerow(row)
        return buf.getvalue()

    def to_text(self) -> str:
        lines = []
        for result in self.results:
            if result.error:
                lines.append(f"{result.spec.label()}: ERROR {result.error}")
                continue
            statuses = {}
            for e in result.entries:
                statuses[e.status] = statuses.get(e.status, 0) + 1
            brief = " ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
            lines.append(
                f"{result.spec.label()} n={result.n} m={result.m}: {brief}"
            )
            for e in result.entries:
                if e.status == VIOLATED:
                    lines.append(
                        f"  VIOLATED {e.claim} params={e.params} "
                        f"hyp={e.hypothesis} concl={e.conclusion}"
                    )
        summary = self.summary
        lines.append(
            "summary: "
            + " ".join(f"{k}={summary[k]}" for k in sorted(summary))
        )
        lines.append("RESULT: " + ("ok" if self.ok else "VIOLATIONS FOUND"))
        return "\n".join(lines) + "\n"


def check_k_range(k_range) -> tuple[int, ...]:
    """The run's k values as a tuple; ValueError unless distinct integers >= 2."""
    ks = tuple(k_range)
    if not ks:  # oracle-equiv, thm3 and lemma3-cert would check nothing
        raise ValueError("no k values")
    if not all(isinstance(k, int) for k in ks):
        raise ValueError("k values must be integers")
    if any(k < 2 for k in ks):
        raise ValueError("k values must be at least 2")
    if len(set(ks)) < len(ks):
        raise ValueError("k values must be distinct")
    return ks


def run_verification(
    configs: list[GeneratorConfig],
    claims: list[str],
    k_range=(2, 3),
    jobs: int = 1,
    timeout: float | None = None,
) -> VerificationReport:
    """Evaluate the requested claims on every instance of the corpus."""
    for claim in claims:
        if claim not in _CLAIMS:
            raise ValueError(f"unknown claim {claim!r}")
    k_range = check_k_range(k_range)
    if timeout is not None and not timeout >= 0:  # a NaN deadline never passes
        raise ValueError(f"timeout must be >= 0 seconds, not {timeout}")
    specs = expand_corpus(configs)
    work = [(spec, tuple(claims), k_range, timeout) for spec in specs]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_instance, work))
    else:
        results = [_run_instance(item) for item in work]
    return VerificationReport(results, tuple(claims), k_range)
