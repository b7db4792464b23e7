"""Weighted approximate monotone local search.

Running-time bound evaluation (brute and amls bases), covering and extension
family constructions over weighted universes, extension oracles, and drivers
that turn an oracle into a full approximation algorithm.
"""

from .bounds import (
    BoundDomainError,
    BoundParams,
    SaddlePoint,
    ShapeReport,
    amls_bound,
    bound_table,
    brute_bound,
    entropy,
    g_star,
    g_value,
    m_lower,
    shape_check,
)
from .driver import (
    OracleMismatchError,
    RunReport,
    approximate_extension,
    approximate_membership,
    verify_run,
)
from .families import (
    CoveringFamily,
    ExtensionFamily,
    ResourceCapError,
    Verdict,
    build_unweighted_covering,
    build_unweighted_extension,
    dump_family,
    family_cost,
    parse_family,
    verify_covering,
    verify_extension,
)
from .oracles import (
    ExtensionOracleHandle,
    QueryLedger,
    exact_extension_oracle,
    oracle_for,
    wrap_with_ledger,
)
from .problems import (
    ParseError,
    WeightedFVSInstance,
    WeightedHSInstance,
    WeightedPVCInstance,
    WeightedVCInstance,
    emit_instance,
    exact_opt,
    membership_check,
    parse_instance,
    random_instance,
    weight_of,
)
from .weighted import (
    WeightClassPartition,
    build_weighted_covering,
    build_weighted_extension,
    partition_by_weight,
)

__version__ = "0.1.0"
