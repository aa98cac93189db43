"""Deletion certificates: a vertex set X plus re-checkable evidence.

A certificate witnesses that deleting X from the input graph leaves either at
least k vertices of maximum degree (the witnesses) or fewer than k vertices.
All vertex ids refer to the original input graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, residual_degrees

METHODS = ("dp", "brute", "peel", "girth5", "theorem2")


class InvalidCertificateError(ValueError):
    pass


@dataclass(frozen=True)
class RemovalCertificate:
    x: tuple[int, ...]
    residual_max_degree: int | None
    witnesses: tuple[int, ...]
    order_below_k: bool
    method: str

    def to_dict(self) -> dict:
        return {
            "X": list(self.x),
            "residual_max_degree": self.residual_max_degree,
            "witnesses": list(self.witnesses),
            "order_below_k": self.order_below_k,
            "method": self.method,
        }


def make_certificate(graph: Graph, removed, k: int, method: str) -> RemovalCertificate:
    """Build a certificate for deletion set ``removed``, or raise if invalid.

    Witnesses are all maximum-degree vertices of the residual graph, in
    ascending original id.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method tag {method!r}")
    if k < 2:
        raise ValueError("k must be at least 2")
    x = tuple(sorted(set(removed)))
    deg = residual_degrees(graph, x)
    if graph.n - len(x) < k:
        return RemovalCertificate(x, None, (), True, method)
    max_deg = max(deg)
    witnesses = tuple(v for v, d in enumerate(deg) if d == max_deg)
    if len(witnesses) < k:
        raise InvalidCertificateError(
            f"deletion set {x} leaves only {len(witnesses)} max-degree vertices"
        )
    return RemovalCertificate(x, max_deg, witnesses, False, method)


def validate_certificate(graph: Graph, cert: RemovalCertificate, k: int) -> bool:
    """Re-check a certificate against the graph it claims to equalize.

    Every fact is re-derived from the residual degrees, independently of
    :func:`make_certificate`.  X and the witnesses must be strictly
    increasing, as :func:`make_certificate` writes them: ``len(cert.x)`` is
    the deletion count.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    deg = residual_degrees(graph, cert.x)
    if not (_increasing(cert.x) and _increasing(cert.witnesses)):
        return False
    live = [d for d in deg if d >= 0]
    if len(live) < k:
        return cert.order_below_k
    max_deg = max(live)
    if cert.order_below_k or live.count(max_deg) < k:
        return False
    if cert.residual_max_degree != max_deg or len(cert.witnesses) < k:
        return False
    return all(0 <= w < graph.n and deg[w] == max_deg for w in cert.witnesses)


def _increasing(ids) -> bool:
    return all(a < b for a, b in zip(ids, ids[1:]))
