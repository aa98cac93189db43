"""Corpus-scale claim verification.

Expands generator configs into seeded instances, computes exact equalization
numbers where feasible (tree program for forests, brute force for small
general graphs), evaluates the requested claims, and aggregates everything
into a deterministic report whose CSV form is byte-identical across runs and
job counts.
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
from .forest_dp import DeadlineExceeded, compute_fk_forest
from .generators import GeneratorConfig, InstanceSpec, expand_corpus, realize
from .graph import degree_profile, girth, is_forest
from .oracle import OrderLimitError, brute_force_fk


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
        return is_forest(self.graph)

    def fk(self, k: int) -> tuple[int | None, str]:
        """(value, method) with value None when no exact solver applies."""
        if k not in self.certificates:
            self.certificates[k] = self._solve(k)
        cert = self.certificates[k]
        if cert is None:
            return None, "none"
        return len(cert.x), cert.method

    def _solve(self, k: int) -> RemovalCertificate | None:
        """The exact solver's certificate; None past the oracle's reach."""
        if self.forest:
            return compute_fk_forest(self.graph, k, deadline=self.deadline)[1]
        try:
            return brute_force_fk(self.graph, k, deadline=self.deadline)[1]
        except OrderLimitError:
            return None


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
    return ClaimEntry(
        claim,
        {"k": k, "t": t},
        hypothesis,
        True,
        {"x_size": len(cert.x), "certificate_valid": ok},
        ok,
    )


def _claim_oracle_equiv(ctx, k_range) -> list[ClaimEntry]:
    out = []
    for k in k_range:
        try:  # the oracle first: past its reach the tree program need not run
            bf_value, bf_cert = brute_force_fk(ctx.graph, k, deadline=ctx.deadline)
        except OrderLimitError:
            out.append(_skip("oracle-equiv", {"k": k}, "above oracle limit"))
            continue
        dp_value, _ = ctx.fk(k)
        dp_cert = ctx.certificates[k]
        certs_ok = validate_certificate(ctx.graph, dp_cert, k) and validate_certificate(
            ctx.graph, bf_cert, k
        )
        same_x = dp_cert.x == bf_cert.x
        out.append(
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
        )
    return out


def _claim_thm1(ctx, k_range) -> list[ClaimEntry]:
    t = bounds.theorem1_t(ctx.graph)
    hypothesis = {"m": ctx.graph.m, "bound": bounds.bound_theorem1(t)}
    return [_at_most_t(ctx, "thm1", 2, t, hypothesis)]


def _claim_thm2(ctx, k_range) -> list[ClaimEntry]:
    t = bounds.theorem2_t(ctx.profile)
    hypothesis = {
        "d1_plus_2d2": bounds.weighted_degrees(ctx.profile, 3),
        "bound": bounds.bound_theorem2(t),
    }
    return [_at_most_t(ctx, "thm2", 3, t, hypothesis)]


def _claim_thm2_cert(ctx, k_range) -> list[ClaimEntry]:
    t = bounds.theorem2_t(ctx.profile)
    return [
        _within_budget(
            ctx, "thm2-cert", 3, t, {"budget": t}, {"t": t},
            lambda: equalize3_forest(ctx.graph, t),
        )
    ]


def _claim_cor1(ctx, k_range) -> list[ClaimEntry]:
    value, _ = ctx.fk(3)
    if value <= 2:
        return [
            _inapplicable("cor1", {"t": 2}, {"f_3": value, "needs": "> 2"})
        ]
    return [
        bounds.corollary1_check(ctx.profile, t, fk=value)
        for t in range(2, value)
    ]


def _claim_cor2(ctx, k_range) -> list[ClaimEntry]:
    t = bounds.corollary2_t(ctx.graph)
    hypothesis = {"m": ctx.graph.m, "bound": str(bounds.bound_corollary2(t))}
    return [_at_most_t(ctx, "cor2", 3, t, hypothesis)]


def _claim_thm3(ctx, k_range) -> list[ClaimEntry]:
    out = []
    for k in k_range:
        t = bounds.theorem3_t(ctx.profile, k)
        hypothesis = {
            "weighted_degrees": bounds.weighted_degrees(ctx.profile, k),
            "bound": bounds.bound_theorem3(k, t),
            "c_k": bounds.c_k(k),
        }
        out.append(_at_most_t(ctx, "thm3", k, t, hypothesis))
    return out


def _claim_lemma2(ctx, k_range) -> list[ClaimEntry]:
    if ctx.spec.kind != "extremal-Ft":
        return [_inapplicable("lemma2", {}, {"kind": ctx.spec.kind})]
    t = ctx.spec.params["t"]
    value, method = ctx.fk(3)
    return [
        ClaimEntry(
            "lemma2",
            {"k": 3, "t": t},
            {"kind": "extremal-Ft"},
            True,
            {"f_3": value, "expected": t, "method": method},
            value == t,
            fk=value,
        )
    ]


def _claim_lemma3_cert(ctx, k_range) -> list[ClaimEntry]:
    out = []
    for k in k_range:
        if ctx.graph.n < k:
            out.append(
                _inapplicable("lemma3-cert", {"k": k}, {"n": ctx.graph.n})
            )
            continue
        surplus = bounds.lemma3_surplus(ctx.profile, k)
        t = max((k - 1) ** 2, surplus)
        out.append(
            _within_budget(
                ctx, "lemma3-cert", k, t, {"surplus": surplus, "budget": t},
                {"k": k, "t": t}, lambda: girth5_equalize(ctx.graph, k, t, ctx.girth),
            )
        )
    return out


def _claim_moore(ctx, k_range) -> list[ClaimEntry]:
    return [bounds.moore_entry(ctx.graph, p, ctx.girth) for p in (2, 3)]


# Claims about forests only, and about girth >= 5 only: outside its class a
# claim is inapplicable at each k, with the hypothesis the instance fails.
_FOREST_ONLY = frozenset({"oracle-equiv", "thm1", "thm2", "thm2-cert", "cor1", "cor2"})
_GIRTH5_ONLY = frozenset({"thm3", "lemma3-cert"})

_CLAIM_FUNCS = {
    "oracle-equiv": _claim_oracle_equiv,
    "thm1": _claim_thm1,
    "thm2": _claim_thm2,
    "cor1": _claim_cor1,
    "cor2": _claim_cor2,
    "thm3": _claim_thm3,
    "lemma2": _claim_lemma2,
    "lemma3-cert": _claim_lemma3_cert,
    "thm2-cert": _claim_thm2_cert,
    "moore": _claim_moore,
}
CLAIM_TAGS = tuple(_CLAIM_FUNCS)


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
        if claim in _FOREST_ONLY and not ctx.forest:
            failed = {"forest": False}
        elif claim in _GIRTH5_ONLY and ctx.girth < 5:
            failed = {"girth": ctx.girth, "needs": ">= 5"}
        else:
            failed = None
        if failed is not None:
            entries.extend(_inapplicable(claim, {"k": k}, failed) for k in k_range)
            continue
        try:
            entries.extend(_CLAIM_FUNCS[claim](ctx, k_range))
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
            entries.append(
                ClaimEntry(
                    "certificate",
                    {"k": k},
                    {},
                    True,
                    {"certificate_valid": False},
                    False,
                )
            )
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


def run_verification(
    configs: list[GeneratorConfig],
    claims: list[str],
    k_range=(2, 3),
    jobs: int = 1,
    timeout: float | None = None,
) -> VerificationReport:
    """Evaluate the requested claims on every instance of the corpus."""
    for claim in claims:
        if claim not in _CLAIM_FUNCS:
            raise ValueError(f"unknown claim {claim!r}")
    specs = expand_corpus(configs)
    work = [(spec, tuple(claims), tuple(k_range), timeout) for spec in specs]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_instance, work))
    else:
        results = [_run_instance(item) for item in work]
    return VerificationReport(results, tuple(claims), tuple(k_range))
