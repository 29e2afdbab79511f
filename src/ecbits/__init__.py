"""Desk-scale verification of character-sum bounds and bit extraction
statistics for points on elliptic curves over prime fields."""

from .charsum import (
    BoundReport,
    count_product_collisions,
    subgroup_sum,
    sum_T,
    sum_U,
    sum_V,
)
from .curve import (
    INFINITY,
    Curve,
    CurvePoint,
    GroupStructure,
    group_structure,
    rational_division_points,
    subgroup_of_order,
)
from .divpoly import DivisionPolynomials
from .extract import (
    DeviationReport,
    bitstream,
    delta,
    pack_bits,
)
from .field import Fp2, PreconditionError, PrimeField, ResourceBudgetError, field
from .poly import Poly, poly_gcd, pth_power_root, rational_square_test, squarefree_part

__all__ = [
    "BoundReport",
    "Curve",
    "CurvePoint",
    "DeviationReport",
    "DivisionPolynomials",
    "Fp2",
    "GroupStructure",
    "INFINITY",
    "Poly",
    "PreconditionError",
    "PrimeField",
    "ResourceBudgetError",
    "bitstream",
    "count_product_collisions",
    "delta",
    "field",
    "group_structure",
    "pack_bits",
    "poly_gcd",
    "pth_power_root",
    "rational_division_points",
    "rational_square_test",
    "squarefree_part",
    "subgroup_of_order",
    "subgroup_sum",
    "sum_T",
    "sum_U",
    "sum_V",
]
