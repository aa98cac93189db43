"""Certificate-producing deletion procedures.

These trade optimality for explicit constructions: iterative peeling of
maximum-degree vertices, the neighbor-trimming routine for graphs of girth at
least 5, and the full recursive routine that equalizes three maximum degrees
in a forest.  Every returned certificate is validated before it leaves this
module; a branch whose hypothesis fails raises instead of guessing.
"""

from __future__ import annotations

from .bounds import bound_theorem2, lemma3_surplus, weighted_degrees
from .certificates import RemovalCertificate, make_certificate
from .graph import (
    Graph,
    check_fk_condition,
    degree_profile,
    is_forest,
    residual_degrees,
)


class PreconditionError(ValueError):
    """A stated precondition of a constructive procedure does not hold."""

    def __init__(self, what: str, message: str):
        self.what = what
        super().__init__(f"{what}: {message}")


def peel_removal(graph: Graph, k: int) -> RemovalCertificate:
    """Remove the top k-1 degree witnesses, then strip whole max-degree layers
    until k vertices share the maximum degree or fewer than k remain.

    Safe on any graph; when the k-th largest degree is below k-1 the removed
    set has size at most (k-1)^2.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if check_fk_condition(graph, (), k):
        return make_certificate(graph, (), k, "peel")

    removed = list(degree_profile(graph).witnesses[: k - 1])
    deg = residual_degrees(graph, removed)
    while graph.n - len(removed) >= k:
        max_deg = max(deg)
        top = [v for v, d in enumerate(deg) if d == max_deg]
        if len(top) >= k:
            break
        removed += top
        deg = residual_degrees(graph, removed)
    return make_certificate(graph, removed, k, "peel")


def _trim(graph, deg, u, keep_closed: list[set[int]], count: int) -> list[int]:
    """Lowest-id ``count`` neighbors of u that are not deleted (``deg[w] < 0``)
    and lie outside the given closed neighborhoods."""
    blocked: set[int] = set()
    for s in keep_closed:
        blocked |= s
    out = [w for w in graph.adj[u] if deg[w] >= 0 and w not in blocked][:count]
    if len(out) < count:
        raise AssertionError(
            f"vertex {u} lacks {count} trimmable neighbors; case analysis broken"
        )
    return out


def _closed(graph: Graph, u: int) -> set[int]:
    return set(graph.adj[u]) | {u}


def girth5_equalize(graph: Graph, k: int, t: int, g: int | float) -> RemovalCertificate:
    """Equalize k maximum degrees in a graph of girth at least 5 by deleting,
    for each of the top k-1 witnesses, its surplus neighbors outside the other
    witnesses' closed neighborhoods; at most t deletions.

    ``g`` is the graph's girth.  Requires g >= 5, t >= (k-1)^2, and the
    top-degree surplus d_1 + ... + d_{k-1} - (k-1) d_k at most t.  When the
    k-th largest degree is below k-1 the peeling procedure is used instead.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if g < 5:
        raise PreconditionError("girth", "graph has girth below 5")
    if t < (k - 1) ** 2:
        raise PreconditionError("t", f"t={t} is below (k-1)^2={(k - 1) ** 2}")
    if graph.n < k:
        return make_certificate(graph, (), k, "girth5")

    profile = degree_profile(graph)
    deltas = profile.deltas
    surplus = lemma3_surplus(profile, k)
    if surplus > t:
        raise PreconditionError(
            "hypothesis",
            f"degree surplus {surplus} exceeds t={t}",
        )
    if deltas[k - 1] < k - 1:
        cert = peel_removal(graph, k)
        if len(cert.x) > (k - 1) ** 2:
            raise AssertionError("peeling exceeded its (k-1)^2 budget")
        return cert

    witnesses = profile.witnesses[:k]
    closed = [_closed(graph, u) for u in witnesses]
    deg = graph.degrees()  # nothing is deleted before the trim
    removed: list[int] = []
    for i in range(k - 1):
        others = closed[:i] + closed[i + 1 :]
        removed += _trim(graph, deg, witnesses[i], others, deltas[i] - deltas[k - 1])

    cert = make_certificate(graph, removed, k, "girth5")
    if len(cert.x) > t:
        raise AssertionError("girth-5 trimming exceeded its budget t")
    return cert


# ---------------------------------------------------------------------------
# Equalizing three maximum degrees in a forest


def _k2_components(graph: Graph, deg) -> list[tuple[int, int]]:
    """The K_2 components of G - X, as edges (u, v) with u < v, ascending:
    the edges whose two ends keep residual degree 1."""
    return [
        (u, v)
        for u in range(graph.n)
        if deg[u] == 1
        for v in graph.adj[u]
        if u < v and deg[v] == 1
    ]


def _equalize3(graph: Graph, t: int) -> list[int]:
    """Delete the dominant top witness and lower the budget until the direct
    trim or the budget-2 case applies; G - X is read from its residual
    degrees, in the input graph's ids."""
    x: list[int] = []
    while graph.n - len(x) >= 3:
        deg = residual_degrees(graph, x)
        u1, u2, u3 = sorted(range(graph.n), key=lambda v: (-deg[v], v))[:3]
        d1, d2, d3 = deg[u1], deg[u2], deg[u3]
        if d1 == d3:
            break
        bound = bound_theorem2(t)
        if d1 + 2 * d2 > bound:
            raise AssertionError(f"recursion hypothesis {d1}+2*{d2} <= {bound} broken")
        if t == 2:
            return x + _equalize3_base(graph, deg, u1, u2, u3)
        if d1 + d2 - 2 * d3 <= t:
            return x + _equalize3_direct(graph, deg, u1, u2, u3)
        # Dominant first witness: delete it and go on with a smaller budget.
        if d2 + 2 * d3 > bound_theorem2(t - 1):
            raise AssertionError("recursion bound violated; hypothesis arithmetic broken")
        x.append(u1)
        t -= 1
    return x


def _equalize3_base(graph, deg, u1, u2, u3) -> list[int]:
    """Budget-2 case analysis; every branch asserts the shape it relies on."""
    d1, d2, d3 = deg[u1], deg[u2], deg[u3]
    if d1 == 1:
        # Only one edge outside isolated vertices: drop one endpoint.
        if not (d2 == 1 and d3 == 0):
            raise AssertionError(f"base case d1=1 needs d2=1, d3=0, got {d2}, {d3}")
        return [u1]

    if d2 == 1:
        # One star plus matching edges and isolated vertices.
        if d1 < 2:
            raise AssertionError(f"base case d2=1 needs d1 >= 2, got {d1}")
        k2 = _k2_components(graph, deg)
        if len(k2) == 1:
            return [u1, k2[0][0]]
        return [u1]

    if not (d2 == 2 and 2 <= d1 <= 4):
        raise AssertionError(f"base case needs d2=2, 2 <= d1 <= 4, got {d1}, {d2}")
    if d1 == 2:
        if d3 != 1:
            raise AssertionError(f"base case d1=d2=2 needs d3=1, got {d3}")
        if u2 not in graph.adj[u1]:
            # Two short-path components; trim one endpoint from each.
            return [_trim(graph, deg, u1, [], 1)[0], _trim(graph, deg, u2, [], 1)[0]]
        if _k2_components(graph, deg):
            return [u1]
        return [u1, u2]

    # d1 in {3, 4}
    if d3 == 2:
        return _trim(graph, deg, u1, [_closed(graph, u2), _closed(graph, u3)], d1 - 2)
    if d3 != 1:
        raise AssertionError(f"base case d1 in (3, 4) needs d3 in (1, 2), got {d3}")
    if not _k2_components(graph, deg):
        return [u1, u2]
    if u2 in graph.adj[u1]:
        return [u1]
    return [u1, _trim(graph, deg, u2, [], 1)[0]]


def _equalize3_direct(graph, deg, u1, u2, u3) -> list[int]:
    """Direct trimming when the top-degree surplus fits within the budget."""
    d1, d2, d3 = deg[u1], deg[u2], deg[u3]
    if d3 == 0:
        # A single matching edge among isolated vertices.
        if not (d1 == 1 and d2 == 1):
            raise AssertionError(f"direct case d3=0 needs d1=d2=1, got {d1}, {d2}")
        return [u1]
    if d3 == 1:
        if u2 in graph.adj[u1] and len(_k2_components(graph, deg)) != 1:
            return [u1, u2]
        # Trim both witnesses to degree 1: down to their shared edge, if any.
        x = _trim(graph, deg, u1, [_closed(graph, u2)], d1 - 1)
        x += _trim(graph, deg, u2, [_closed(graph, u1)], d2 - 1)
        return x
    x = _trim(graph, deg, u1, [_closed(graph, u2), _closed(graph, u3)], d1 - d3)
    x += _trim(graph, deg, u2, [_closed(graph, u1), _closed(graph, u3)], d2 - d3)
    return x


def equalize3_forest(forest: Graph, t: int) -> RemovalCertificate:
    """Equalize three maximum degrees in a forest with at most t deletions.

    Requires t >= 2 and d_1 + 2 d_2 <= C(t+2, 2) + 2.  Implements the direct
    trimming when the surplus d_1 + d_2 - 2 d_3 fits in the budget and
    otherwise removes the top witness and recurses with budget t - 1.
    """
    if not is_forest(forest):
        raise PreconditionError("forest", "input graph is not a forest")
    if t < 2:
        raise PreconditionError("t", "budget t must be at least 2")
    value = weighted_degrees(degree_profile(forest), 3)
    bound = bound_theorem2(t)
    if value > bound:
        raise PreconditionError(
            "hypothesis", f"d1 + 2*d2 = {value} exceeds {bound}"
        )
    removed = _equalize3(forest, t)
    if len(removed) > t:
        raise AssertionError("equalizer exceeded its budget t")
    return make_certificate(forest, removed, 3, "theorem2")
