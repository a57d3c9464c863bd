"""Exact subgroup counts of finite abelian p-groups as polynomials in p."""

from .closedforms import (
    CaseId,
    FormulaBug,
    FormulaResult,
    OrderViolation,
    anyrank_case1,
    closed_form,
    gaussian_binomial,
    leading_term_ccl,
    rank2,
    rank3,
    rank3_mmm,
    rank4_mmmm_b,
    rank4_mmmm_total,
    rank4_partial,
    rank4_total_ccl,
)
from .genfun import MultiSeries, expand_rational, verify_F2, verify_g_product, verify_sub_series
from .groups import GroupType, NegativePart, OutOfRange, RankMismatch
from .oracle import (
    CensusResult,
    CensusTooCostly,
    GroupTooLarge,
    PrimalityUndecided,
    star_matrix_census,
    subgroup_census,
)
from .polyring import IntPoly, NonExactDivision, ZeroPolynomial
from .recurrence import MemoTable, count_hironaka, count_stehling, total_count

__version__ = "0.1.0"

__all__ = [
    "CaseId",
    "CensusResult",
    "CensusTooCostly",
    "FormulaBug",
    "FormulaResult",
    "GroupTooLarge",
    "GroupType",
    "IntPoly",
    "MemoTable",
    "MultiSeries",
    "NegativePart",
    "NonExactDivision",
    "OrderViolation",
    "OutOfRange",
    "PrimalityUndecided",
    "RankMismatch",
    "ZeroPolynomial",
    "anyrank_case1",
    "closed_form",
    "count_hironaka",
    "count_stehling",
    "expand_rational",
    "gaussian_binomial",
    "leading_term_ccl",
    "rank2",
    "rank3",
    "rank3_mmm",
    "rank4_mmmm_b",
    "rank4_mmmm_total",
    "rank4_partial",
    "rank4_total_ccl",
    "star_matrix_census",
    "subgroup_census",
    "total_count",
    "verify_F2",
    "verify_g_product",
    "verify_sub_series",
]
