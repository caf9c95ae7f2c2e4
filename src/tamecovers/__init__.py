"""Exact construction and counting of tame single-cycle covers of the
projective line in characteristic p, with brute-force verification oracles."""

from .addconst import (
    AdditiveFamily,
    MergedCover,
    TwistResult,
    additive_twist,
    construct_family,
    find_merging_c,
    make_merged_cover,
)
from .errors import DomainError, UsageError
from .field import FieldCtx, FieldElem, make_field
from .multconst import (
    FourPointType,
    LambdaMap,
    LiftResult,
    bad_degree,
    contract,
    count_covers_at,
    is_critical_value,
    is_supersingular_value,
    lambda_map,
    lift,
    p_hurwitz_4pt,
    supersingular_values,
)
from .poly import (
    INF,
    Poly,
    ProjPoint,
    RatFunc,
    count_roots_by_degree,
    evaluate,
    lift_poly,
    lift_ratfunc,
    map_degree,
    ord_at,
    poly_gcd,
    radical,
    roots,
)
from .ramify import (
    CoverAnalysis,
    NormalizedCover,
    RamType,
    analyze_cover,
    genus_from_type,
    single_cycle_type,
)
from .symhurwitz import (
    TupleClassCount,
    hurwitz_char0,
    naive_orbit_count,
    verify_min_formula,
)
from .threepoint import ThreePointSpec, solve_three_point

__version__ = "0.1.0"
