"""Solvers, constructive procedures, and bound checkers for the minimum
number of vertex deletions that leaves k vertices of maximum degree.

The namespace is lazy (PEP 562): ``import degeq`` loads no submodule, and
each public name imports its home module on first access."""

from importlib import import_module

# Each public name and the submodule that defines it.
_HOME = {
    **dict.fromkeys(
        ["ClaimEntry", "asymptotic_report", "bound_corollary2", "bound_theorem1",
         "bound_theorem2", "bound_theorem3", "c_k", "corollary1_check",
         "moore_edge_bound_ok"],
        "bounds",
    ),
    **dict.fromkeys(
        ["InvalidCertificateError", "RemovalCertificate", "make_certificate",
         "validate_certificate"],
        "certificates",
    ),
    **dict.fromkeys(
        ["PreconditionError", "equalize3_forest", "girth5_equalize", "peel_removal"],
        "constructive",
    ),
    **dict.fromkeys(
        ["a_sequence", "build_extremal_forest", "build_path", "build_star",
         "build_star_union", "extremal_size"],
        "extremal",
    ),
    **dict.fromkeys(["NotAForestError", "compute_fk_forest"], "forest_dp"),
    **dict.fromkeys(
        ["GeneratorConfig", "GirthSaturationError", "gen_random_forest",
         "gen_random_girth5"],
        "generators",
    ),
    **dict.fromkeys(
        ["DegreeProfile", "Graph", "GraphFormatError", "check_fk_condition",
         "degree_profile", "girth", "is_forest", "parse_graph", "to_edgelist"],
        "graph",
    ),
    **dict.fromkeys(["OrderLimitError", "brute_force_fk", "solve"], "oracle"),
    **dict.fromkeys(["SplitMix64", "instance_seed"], "prng"),
    "run_verification": "verify",
}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
