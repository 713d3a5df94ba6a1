"""rankforge: exact-arithmetic experiments with polynomials over prime fields.

Everything is computed with exact integer arithmetic: character sums are
integer histograms, magnitudes are rationals (or stored cyclotomic vectors),
linear algebra is Gauss-Jordan mod p, and rank decisions are exhaustive
searches that return re-verifiable certificates.
"""

from .analytic import (
    AnalyticRank,
    CharHistogram,
    ExactMagnitude,
    GowersNorm,
    analytic_rank,
    bias,
    count_points_char_sum,
    gowers_norm,
    gowers_norm_direct,
    histogram_of_poly,
    value_distribution,
)
from .errors import (
    BudgetExceededError,
    InputError,
    NotAdmissibleError,
    RankforgeError,
    VerificationError,
)
from .gf import DeltaSubgroup, FieldElem, PrimeField
from .poly import (
    AffineMap,
    MultilinearForm,
    MultiPoly,
    PolyFamily,
    alternating_sum_eval,
    interpolate,
    interpolate_grid,
    multilinear_form,
    random_poly,
    restrict,
)
from .runtime import Budget, ParallelContext

__all__ = [
    "AnalyticRank",
    "AffineMap",
    "Budget",
    "BudgetExceededError",
    "CharHistogram",
    "DeltaSubgroup",
    "ExactMagnitude",
    "FieldElem",
    "GowersNorm",
    "InputError",
    "MultiPoly",
    "MultilinearForm",
    "NotAdmissibleError",
    "ParallelContext",
    "PolyFamily",
    "PrimeField",
    "RankforgeError",
    "VerificationError",
    "alternating_sum_eval",
    "analytic_rank",
    "bias",
    "count_points_char_sum",
    "gowers_norm",
    "gowers_norm_direct",
    "histogram_of_poly",
    "interpolate",
    "interpolate_grid",
    "multilinear_form",
    "random_poly",
    "restrict",
    "value_distribution",
]
