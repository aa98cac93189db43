"""Exact evaluators and instance checkers for the deletion-number bounds.

All thresholds are computed in exact integer or rational arithmetic so strict
inequalities at the boundary never suffer floating drift.  Checkers separate
hypothesis from conclusion: an entry is VIOLATED only when a decidable
hypothesis holds and a decidable conclusion fails; asymptotic statements are
report-only by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .graph import INFINITY, DegreeProfile, Graph


def bound_theorem1(t: int) -> int:
    """Forest edge threshold below which two maximum degrees cost at most t
    deletions: (t^3 + 6 t^2 + 17 t + 12) / 6."""
    if t < 1:
        raise ValueError("t must be positive")
    value = t**3 + 6 * t**2 + 17 * t + 12
    if value % 6:
        raise AssertionError("threshold is always divisible by 6")
    return value // 6


def bound_theorem2(t: int) -> int:
    """Threshold on d_1 + 2 d_2 for equalizing three maximum degrees in a
    forest with at most t deletions."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return comb(t + 2, 2) + 2


def bound_corollary2(t: int) -> Fraction:
    """Forest edge threshold (strict) for three maximum degrees in at most t
    deletions: t^3/18 + t^2/3 + 11 t/18 + 1."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return (
        Fraction(t**3, 18) + Fraction(t**2, 3) + Fraction(11 * t, 18) + 1
    )


def c_k(k: int) -> int:
    """Additive constant of the girth-5 weighted-degree bound, defined by
    C((k-1)^2 + 2, 2) + c_k = k - 1."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return (k - 1) - comb((k - 1) ** 2 + 2, 2)


def bound_theorem3(k: int, t: int) -> int:
    """Threshold on sum_{i<k} i * d_i for girth-5 graphs: C(t+2, 2) + c_k."""
    if k < 2:
        raise ValueError("k must be at least 2")
    if t < (k - 1) ** 2:
        raise ValueError(f"t must be at least (k-1)^2 = {(k - 1) ** 2}")
    return comb(t + 2, 2) + c_k(k)


def corollary1_threshold_iii(t: int) -> Fraction:
    return Fraction(t**3, 18) + Fraction(t**2, 3) + Fraction(29 * t, 18)


# ---------------------------------------------------------------------------
# Structured claim reporting


PASS = "pass"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"
REPORT = "report"
SKIP = "skip"


@dataclass(frozen=True)
class ClaimEntry:
    """One claim evaluated on one instance."""

    claim: str
    params: dict
    hypothesis: dict
    hypothesis_holds: bool | None
    conclusion: dict
    conclusion_holds: bool | None
    fk: int | None = None
    note: str = ""

    @property
    def status(self) -> str:
        if self.note.startswith("skip"):
            return SKIP
        if self.hypothesis_holds is None or self.conclusion_holds is None:
            return REPORT
        if not self.hypothesis_holds:
            return INAPPLICABLE
        return PASS if self.conclusion_holds else VIOLATED

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": dict(self.params),
            "hypothesis": dict(self.hypothesis),
            "hypothesis_holds": self.hypothesis_holds,
            "conclusion": dict(self.conclusion),
            "conclusion_holds": self.conclusion_holds,
            "f_k": self.fk,
            "status": self.status,
            "note": self.note,
        }


def profile_value(profile: DegreeProfile, i: int) -> int:
    """d_i with zero padding beyond the profile length."""
    return profile.deltas[i - 1] if i <= len(profile.deltas) else 0


def theorem1_hypothesis(graph: Graph, t: int) -> bool:
    return graph.m < bound_theorem1(t)


def weighted_degrees(profile: DegreeProfile, k: int) -> int:
    """sum_{i<k} i * d_i; for k = 3 this is Theorem 2's d_1 + 2 d_2.  Past
    the profile every d_i is 0, so the sum stops there for any k."""
    return sum(i * d for i, d in enumerate(profile.deltas[: k - 1], 1))


def theorem2_hypothesis(profile: DegreeProfile, t: int) -> bool:
    return weighted_degrees(profile, 3) <= bound_theorem2(t)


def corollary2_hypothesis(graph: Graph, t: int) -> bool:
    return graph.m < bound_corollary2(t)


def lemma3_surplus(profile: DegreeProfile, k: int) -> int:
    """Top-degree surplus d_1 + ... + d_{k-1} - (k-1) d_k."""
    return sum(profile.deltas[: k - 1]) - (k - 1) * profile_value(profile, k)


def theorem3_hypothesis(profile: DegreeProfile, k: int, t: int) -> bool:
    if t < (k - 1) ** 2:
        return False
    return weighted_degrees(profile, k) <= bound_theorem3(k, t)


def minimal_t(predicate, start: int) -> int:
    """Smallest t >= start satisfying a monotone hypothesis predicate; the
    ``*_t`` functions below apply it to each result that concludes f_k <= t.
    Every threshold grows without bound in t, so doubling the step from
    start reaches a t that holds, and bisection then closes the gap."""
    low, step = start - 1, 1  # the predicate fails at low, or low < start
    while not predicate(low + step):
        low, step = low + step, 2 * step
    while step > 1:  # it holds at low + step
        step //= 2
        if not predicate(low + step):
            low += step
    return low + step


def theorem1_t(graph: Graph) -> int:
    return minimal_t(lambda t: theorem1_hypothesis(graph, t), 1)


def theorem2_t(profile: DegreeProfile) -> int:
    return minimal_t(lambda t: theorem2_hypothesis(profile, t), 2)


def corollary2_t(graph: Graph) -> int:
    return minimal_t(lambda t: corollary2_hypothesis(graph, t), 2)


def theorem3_t(profile: DegreeProfile, k: int) -> int:
    return minimal_t(lambda t: theorem3_hypothesis(profile, k, t), (k - 1) ** 2)


def corollary1_check(
    profile: DegreeProfile, t: int, fk: int | None = None
) -> ClaimEntry:
    """Check the three degree lower bounds forced by needing more than t
    deletions to equalize three maximum degrees.

    The hypothesis is f_3 > t (decidable only when ``fk`` is supplied); the
    conclusion is the conjunction of clauses (i)-(iii).
    """
    if t < 2:
        raise ValueError("t must be at least 2")
    if len(profile.deltas) < t + 1:
        raise ValueError(f"profile too short: need at least {t + 1} entries")

    d = profile.deltas  # d[i - 1] is d_i
    clause_i = d[t - 1] >= 2
    clause_ii = True
    ii_values = []
    for i in range(2, t + 1):
        lhs = d[t - i] + 2 * d[t + 1 - i]
        rhs = comb(i + 2, 2) + 3
        ii_values.append((i, lhs, rhs))
        if lhs < rhs:
            clause_ii = False
    head_sum = sum(d[:t])
    threshold = corollary1_threshold_iii(t)
    clause_iii = head_sum >= threshold

    return ClaimEntry(
        claim="cor1",
        params={"t": t},
        hypothesis={"f_3": fk, "needs": f"> {t}"},
        hypothesis_holds=None if fk is None else fk > t,
        conclusion={
            "i": clause_i,
            "ii": clause_ii,
            "ii_values": ii_values,
            "iii": clause_iii,
            "head_sum": head_sum,
            "iii_threshold": str(threshold),
        },
        conclusion_holds=clause_i and clause_ii and clause_iii,
        fk=fk,
    )


def moore_edge_bound_ok(n: int, m: int, p: int) -> bool:
    """Exact check of m <= 2 n^((p+1)/p), valid for graphs of girth > 2p.

    That is (m / 2n)^p <= n, which holds when m <= 2n.  Otherwise
    m / 2n >= 1 + 1/(2n), whose p-th power exceeds n once p > (2n + 1) ln n,
    so past p = (2n + 1) * n.bit_length() it fails; below that p the powers
    are compared exactly."""
    if p < 1:
        raise ValueError("p must be positive")
    if m <= 2 * n:
        return True
    if p >= (2 * n + 1) * n.bit_length():
        return False
    return m**p <= 2**p * n ** (p + 1)


def girth_field(g: int | float) -> int | str:
    """A girth as strict JSON can carry it: "inf" for a forest."""
    return "inf" if g == INFINITY else g


def moore_entry(graph: Graph, p: int, g: int | float) -> ClaimEntry:
    """The exact Moore edge bound for girth ``g`` above 2p, pass/fail."""
    return ClaimEntry(
        claim="moore",
        params={"p": p},
        hypothesis={"girth": girth_field(g), "needs": f"> {2 * p}"},
        hypothesis_holds=g > 2 * p,
        conclusion={"m": graph.m, "bound": 2 * graph.n ** ((p + 1) / p)},
        conclusion_holds=moore_edge_bound_ok(graph.n, graph.m, p),
    )


def asymptotic_report(
    graph: Graph, k: int, p: int, g: int | float
) -> list[ClaimEntry]:
    """Leading-constant values of the asymptotic consequences, plus the exact
    Moore edge bound for girth above 2p; ``g`` is the graph's girth.

    Only the Moore inequality is pass/fail; the growth-rate statements carry
    unspecified lower-order terms and are reported without a verdict.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if p < 1:
        raise ValueError("p must be positive")
    moore = moore_entry(graph, p, g)
    with_holds = {**moore.conclusion, "holds": moore.conclusion_holds}
    entries = [
        replace(moore, conclusion=with_holds),
        ClaimEntry(
            claim="cor3",
            params={"k": k},
            hypothesis={"girth": girth_field(g), "needs": ">= 5"},
            hypothesis_holds=g >= 5,
            conclusion={
                "leading_divisor": 6 * comb(k, 2),
                "note": "size threshold t^3 / (6 C(k,2)) up to O(t^2)",
            },
            conclusion_holds=None,
        ),
        ClaimEntry(
            claim="cor4",
            params={"k": k, "p": p},
            hypothesis={"girth": girth_field(g), "needs": f"> {2 * p}"},
            hypothesis_holds=g > 2 * p,
            conclusion={
                "constant": (12 * comb(k, 2)) ** (1 / 3),
                "value": (12 * comb(k, 2)) ** (1 / 3)
                * graph.n ** ((p + 1) / (3 * p)),
            },
            conclusion_holds=None,
        ),
        ClaimEntry(
            claim="cor5",
            params={"k": k},
            hypothesis={"girth": girth_field(g), "needs": "forest (girth inf)"},
            hypothesis_holds=g == INFINITY,
            conclusion={
                "constant": (6 * comb(k, 2)) ** (1 / 3),
                "value": (6 * comb(k, 2)) ** (1 / 3) * graph.n ** (1 / 3),
            },
            conclusion_holds=None,
        ),
    ]
    return entries
