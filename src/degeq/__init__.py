"""Solvers, constructive procedures, and bound checkers for the minimum
number of vertex deletions that leaves k vertices of maximum degree."""

from .bounds import (
    ClaimEntry,
    asymptotic_report,
    bound_corollary2,
    bound_theorem1,
    bound_theorem2,
    bound_theorem3,
    c_k,
    corollary1_check,
    moore_edge_bound_ok,
)
from .certificates import (
    InvalidCertificateError,
    RemovalCertificate,
    make_certificate,
    validate_certificate,
)
from .constructive import (
    PreconditionError,
    equalize3_forest,
    girth5_equalize,
    peel_removal,
)
from .extremal import (
    a_sequence,
    build_extremal_forest,
    build_path,
    build_star,
    build_star_union,
    extremal_size,
)
from .forest_dp import NEG_INF, RootedForestView, compute_fk_forest
from .generators import (
    GeneratorConfig,
    GirthSaturationError,
    gen_random_forest,
    gen_random_girth5,
)
from .graph import (
    DegreeProfile,
    Graph,
    GraphFormatError,
    check_fk_condition,
    components,
    degree_profile,
    girth,
    is_forest,
    parse_graph,
    remove_vertices,
    to_edgelist,
)
from .oracle import OrderLimitError, brute_force_fk
from .prng import SplitMix64, instance_seed
from .verify import run_verification

__all__ = [
    "ClaimEntry",
    "DegreeProfile",
    "GeneratorConfig",
    "GirthSaturationError",
    "Graph",
    "GraphFormatError",
    "InvalidCertificateError",
    "NEG_INF",
    "OrderLimitError",
    "PreconditionError",
    "RemovalCertificate",
    "RootedForestView",
    "SplitMix64",
    "a_sequence",
    "asymptotic_report",
    "bound_corollary2",
    "bound_theorem1",
    "bound_theorem2",
    "bound_theorem3",
    "brute_force_fk",
    "build_extremal_forest",
    "build_path",
    "build_star",
    "build_star_union",
    "c_k",
    "check_fk_condition",
    "components",
    "compute_fk_forest",
    "corollary1_check",
    "degree_profile",
    "equalize3_forest",
    "extremal_size",
    "gen_random_forest",
    "gen_random_girth5",
    "girth",
    "girth5_equalize",
    "instance_seed",
    "is_forest",
    "make_certificate",
    "moore_edge_bound_ok",
    "parse_graph",
    "peel_removal",
    "remove_vertices",
    "run_verification",
    "to_edgelist",
    "validate_certificate",
]

__version__ = "0.1.0"
