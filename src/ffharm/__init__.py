"""ffharm: harmonic analysis over prime fields F_q^d.

Exponential sums (Gauss, Kloosterman, Salie), sphere Fourier transforms
with an exhaustively verified closed form, a measure-aware Fourier engine,
polynomial-defined varieties, and restriction-norm estimation over radial
functions.
"""

from .errors import (
    DimensionMismatch,
    EmptyVariety,
    EmptyVarietyWarning,
    FFHarmError,
    NegativeExponent,
    ParseError,
    RoundingMismatch,
    SideMismatch,
    TooLarge,
    UnknownVariable,
    UnsupportedDimension,
    ZeroInverse,
    ZeroParameter,
)
from .field import FieldCtx, chi, eta, inv, is_odd_prime, norm_form
from .expsums import gauss, kloosterman, salie
from .spheres import (
    Sphere,
    enumerate_sphere,
    sphere_count_closed,
    sphere_ft_closed,
    sphere_ft_closed_grid,
    sphere_ft_counted,
    sphere_ft_kernel,
    sphere_ft_naive,
    sphere_ft_naive_grid,
    sphere_sizes,
    verify_closed_form,
)
from .fourier import GridFunction, Side, ft_fast, ft_naive, ift
from .varieties import (
    IntersectionReport,
    PolyExpr,
    Variety,
    build_variety,
    eval_poly,
    parse_poly,
    pretty_print,
    zero_sphere_intersection,
)
from .restriction import (
    ExponentPair,
    RestrictionReport,
    SearchConfig,
    compare_sign_modes,
    lift_radial,
    lp_norm_counting,
    lr_norm_sigma,
    profile_lp_norm,
    radial_matrix,
    region_conjecture,
    region_lewko,
    rnorm_exact_22,
    rnorm_search,
    suf1_diagnostic,
    suf2_check,
    witness_lower_bound,
)

__version__ = "0.1.0"
