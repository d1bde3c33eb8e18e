"""Radial profiles, restriction norms, exponent regions, and diagnostics.

A radial function on F_q^d is determined by one coefficient per sphere
radius.  Its transform restricted to a variety V is a linear map of the
coefficient vector, so the p -> r restriction ratio over radial inputs is
a small, explicitly computable optimization problem:

    maximize  || A M ||_{L^r(V, dsigma)}  /  (sum_j |M_j|^p |S_j|)^{1/p}

with A[x, j] the transform of the radius-j sphere indicator at x in V.
Every routine reads A through its distinct rows, one per norm class of V,
with the measure dsigma folded in (``_class_rows``); the rows are real, as
the sphere kernel is.  Every norm is taken with ``_weighted_norm``, but
for the two inside the power method's loop, which come from the same
|x|^2 as its duality maps (``_duality``); it is their test oracle.
``rnorm_exact_22`` solves the Euclidean case p = r = 2 exactly (top
singular value, by one eigensolve on the class rows' Gram); ``rnorm_search``
lower-bounds the general case by the multi-start nonlinear power method
for p -> r norms (Boyd 1974; Higham 1992), its fixed q + 5 starts
iterated together in real arithmetic, a real start as one row and a
complex one as two, its real and imaginary parts: by Holder's inequality
no step lowers the ratio, and a start stops when a step no longer raises
it by more than 1e-13 relative; and ``witness_lower_bound`` evaluates
the cheap closed-form witnesses.

Exponent pairs are exact fractions throughout, so region membership and
the rational exponent gates never see floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import EmptyVariety, UnsupportedDimension
from .field import FieldCtx
from .fourier import GridFunction, Side
from .spheres import _kernel_at, sphere_ft_kernel, sphere_sizes
from .varieties import Variety

Exponent = Union[Fraction, float]  # a Fraction >= 1, or math.inf


def _check_exponent(x: Exponent, name: str) -> Exponent:
    if isinstance(x, float):
        if x != math.inf:
            raise ValueError(f"{name} must be an exact Fraction or math.inf, got {x}")
        return x
    x = Fraction(x)
    if x < 1:
        raise ValueError(f"{name} must be >= 1, got {x}")
    return x


def parse_exponent(text: str) -> Exponent:
    """Parse 'a/b' or an integer; 'inf' for infinity.  Decimals and
    scientific notation are rejected."""
    text = text.strip()
    if text.lower() in ("inf", "infinity", "oo"):
        return math.inf
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"exponents are a/b fractions, integers or inf, got {text!r}")
    try:
        return _check_exponent(Fraction(text), "exponent")
    except ZeroDivisionError:
        raise ValueError(f"exponent has a zero denominator: {text!r}") from None


@dataclass(frozen=True)
class ExponentPair:
    """An exponent pair (p, r), each an exact Fraction in [1, oo]."""

    p: Exponent
    r: Exponent

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p, "p"))
        object.__setattr__(self, "r", _check_exponent(self.r, "r"))

    @classmethod
    def parse(cls, p_text: str, r_text: str) -> "ExponentPair":
        return cls(parse_exponent(p_text), parse_exponent(r_text))

    @property
    def is_finite(self) -> bool:
        return self.p != math.inf and self.r != math.inf

    @property
    def p_conjugate(self) -> Exponent:
        """Holder conjugate p' = p/(p-1)."""
        if self.p == math.inf:
            return Fraction(1)
        if self.p == 1:
            return math.inf
        return self.p / (self.p - 1)

    def inverse_point(self) -> tuple[Fraction, Fraction]:
        """The point (1/p, 1/r) used by the region tests (exact)."""
        ip = Fraction(0) if self.p == math.inf else Fraction(1) / self.p
        ir = Fraction(0) if self.r == math.inf else Fraction(1) / self.r
        return (ip, ir)

    def __str__(self) -> str:
        fmt = lambda x: "inf" if x == math.inf else str(x)
        return f"({fmt(self.p)}, {fmt(self.r)})"


@dataclass
class RestrictionReport:
    """Outcome of one norm computation or search."""

    variety: str
    q: int
    d: int
    pair: ExponentPair
    method: str  # "Exact22" | "MultiStart" | "Witness"
    estimate: float
    iterations: int
    seed: int
    sign_mode: str = "-"
    profile: Optional[np.ndarray] = None
    capped: int = 0  # search starts stopped by the step cap
    tied: int = 0  # search starts within 1e-9 relative of the best


# ---------------------------------------------------------------------------
# Norms and lifting


def _profile(ctx: FieldCtx, M: np.ndarray) -> np.ndarray:
    """M as a complex array of one coefficient per radius; any other length raises."""
    M = np.asarray(M, dtype=np.complex128)
    if M.shape != (ctx.q,):
        raise ValueError(f"profile needs {ctx.q} coefficients")
    return M


def lift_radial(ctx: FieldCtx, M: np.ndarray) -> GridFunction:
    """The grid function taking value M_j on every point of radius j."""
    return GridFunction(ctx, _profile(ctx, M)[ctx.grid_norms()], Side.PrimalCounting)


def _weighted_norm(
    values: np.ndarray, weights: np.ndarray, p: Exponent
) -> Union[float, np.ndarray]:
    """(sum_i weights_i |values_i|^p)^{1/p} along the last axis, one value per
    row of a 2-D input; the max over positive weights at p = inf."""
    a = np.abs(np.asarray(values)).astype(np.float64, copy=False)
    weights = np.asarray(weights)
    if weights.size == 0:
        raise EmptyVariety("norm over an empty point set")
    if a.shape[-1:] != weights.shape:
        raise ValueError(f"need one value per weight ({weights.size}), got shape {a.shape}")
    if p == math.inf:
        return a[..., weights > 0].max(axis=-1, initial=0.0)
    pf = float(p)
    if pf < 1:
        raise ValueError("p must be >= 1")
    a **= pf
    a *= weights
    return a.sum(axis=-1) ** (1.0 / pf)


def lp_norm_counting(f: GridFunction, p: Exponent) -> float:
    """L^p norm under counting measure; max norm at p = inf."""
    return float(_weighted_norm(f.values, np.ones(f.values.size), p))


def lr_norm_sigma(g: np.ndarray, v: Variety, r: Exponent) -> float:
    """L^r norm of values on V under the normalized surface measure."""
    return float(_weighted_norm(g, np.ones(v.cardinality) / v.cardinality, r))


def profile_lp_norm(ctx: FieldCtx, M: np.ndarray, p: Exponent) -> float:
    """Same as lp_norm_counting(lift_radial(ctx, M), p), without the lift."""
    return float(_weighted_norm(_profile(ctx, M), sphere_sizes(ctx), p))


def radial_matrix(v: Variety) -> np.ndarray:
    """The |V| x q matrix A with A[x, j] the radius-j sphere transform at x.

    Restricting the transform of a radial function with profile M to V is
    exactly the product A @ M.  The restriction routines use the distinct
    rows only (``_class_rows``); this full matrix is their test oracle.
    """
    ctx = v.ctx
    A = sphere_ft_kernel(ctx).T[ctx.grid_norms()[v.flat]]
    if v.contains_zero:
        # flat indices are sorted, so the origin is always row 0
        A[0, :] += ctx.q ** (ctx.d - 1)
    return A


def _class_rows(v: Variety, r: Exponent) -> np.ndarray:
    """The distinct rows of radial_matrix(v), each scaled by (class size / |V|)^(1/r).

    Away from the origin row x depends only on ||x||, so one row per norm
    class present in V minus the origin stands for all of its points: with
    the scaling, the plain r-norm of A M over these rows is the
    L^r(V, dsigma) norm of the restricted transform.  The origin row, when 0
    is in V, comes first (class size 1).  At r = inf the exponent 1/r is 0,
    so the rows are unscaled and their max is the max over V.  The rows are
    gathered from the kernel's columns at those classes: no q x q table.
    """
    if v.cardinality == 0:
        raise EmptyVariety(f"variety {v.label} has no points")
    ctx = v.ctx
    counts = v.radius_counts.copy()
    counts[0] -= int(v.contains_zero)  # the origin is on S_0
    present = np.nonzero(counts)[0]
    weights = counts[present]
    if v.contains_zero:
        present, weights = np.r_[0, present], np.r_[1, weights]
    rows = _kernel_at(ctx, np.arange(ctx.q), present[:, None])
    rows[0] += ctx.q ** (ctx.d - 1) * v.contains_zero  # the delta at x = 0, if 0 is in V
    e = 1.0 / float(r)
    return rows * (weights**e)[:, None] / v.cardinality**e


# ---------------------------------------------------------------------------
# Exact p = r = 2 norm


def rnorm_exact_22(v: Variety) -> float:
    """The exact p = r = 2 restriction ratio over radial profiles.

    This is the top singular value of B, the class rows (``_class_rows(v,
    2)``, which carry the measure) scaled by |S_j|^{-1/2} per radius.  Its
    square is the top eigenvalue of the C x C Gram matrix B B^T of the real
    C <= q + 1 rows, which has the nonzero spectrum of the q x q B^T B, by
    one dense real symmetric eigensolve.  The SVD of the full |V| x q
    weighted ``radial_matrix`` is its test oracle.
    """
    B = _class_rows(v, 2) / np.sqrt(sphere_sizes(v.ctx))
    lam = float(np.linalg.eigvalsh(B @ B.T)[-1])
    return math.sqrt(max(lam, 0.0))


# ---------------------------------------------------------------------------
# Multi-start power-method search


# step cap of each power-method run
_POWER_STEPS = 10_000


@dataclass
class SearchConfig:
    """Knobs for rnorm_search.  Defaults are the settings the scans use."""

    seed: int = 0
    sign_mode: str = "signed"  # "signed" (complex) | "nonneg" (real >= 0)


def _starts(q: int, n_starts: int, seed: int, nonneg: bool) -> np.ndarray:
    """The first n_starts of: every delta, the constant profile, then seeded
    random profiles (uniform on [0, 1) in nonneg mode, complex Gaussian
    otherwise).  One start per row."""
    structured = np.vstack([np.eye(q), np.ones((1, q))])
    rng = np.random.default_rng(seed)
    n_random = max(0, n_starts - (q + 1))
    if nonneg:
        random = rng.random((n_random, q))
    else:
        parts = rng.standard_normal((n_random, 2, q))  # per profile: real part, then imaginary
        random = parts[:, 0] + 1j * parts[:, 1]
    return np.vstack([structured, random])[:n_starts]


def _duality(x: np.ndarray, m: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """psi_s(x) = |x|^(s-2) x, taking 0 to 0, written over x, and |x|^s.

    x has a row per start, then a row for the imaginary part of each of the
    first m starts.  |x|^2 and its one power, skipped at s = 2, are per start.
    """
    n = len(x) - m
    x2 = np.square(x[:n])
    x2[:m] += np.square(x[n:])
    if s == 2.0:
        return x, x2
    e = (s - 2.0) / 2.0  # 0^e = 0 for e > 0, so only e < 0 needs the mask
    w = x2**e if e > 0 else np.power(x2, e, out=np.zeros_like(x2), where=x2 > 0)
    x[:n] *= w
    x[n:] *= w[:m]
    return x, w * x2


def _power_method(
    A: np.ndarray,
    sizes: np.ndarray,
    pf: float,
    rf: float,
    M0: np.ndarray,
    nonneg: bool,
    vanishing: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Power-method runs from every row of M0, iterated together.

    Returns per start the value ||A M||_r, the profile M (complex unless
    ``nonneg``) and the step count, and the number of starts still running
    at the step cap.  Each profile stays on the unit ball of the weighted
    p-norm (sum_j sizes_j |M_j|^p)^(1/p), so ||A M||_r is the ratio when
    A's rows carry the measure, as ``_class_rows`` does.  A start leaves the
    batch as soon as its own stop rule fires, so it follows the path a run
    from it alone would take, up to rounding.  Starts flagged in the
    boolean mask ``vanishing`` have A M = 0 in exact arithmetic: they get
    the value 0 after 0 steps, since a run from them would follow rounding
    noise.  A must be real, and so is each product: the live profiles are
    one float64 array, a row per start (the m complex ones first), then a
    row per imaginary part of those m; ``_duality`` gives both norms.
    """
    if np.iscomplexobj(A):
        raise TypeError("the power method iterates on real rows")
    At, A_sized = A.T, A / sizes  # the rows of A^H / |S|
    real = ~(M0.imag != 0).any(axis=1)
    norms = _weighted_norm(M0.real, sizes, pf)
    norms[~real] = _weighted_norm(M0[~real], sizes, pf)
    out = np.array([M0.real, M0.imag]) / norms[:, None]  # the profiles returned, by part
    keep = np.ones(len(M0), dtype=bool) if vanishing is None else ~vanishing
    values, steps = np.zeros(len(M0)), np.where(keep, _POWER_STEPS, 0)
    live = np.r_[np.flatnonzero(keep & ~real), np.flatnonzero(keep & real)]  # row i's start
    m = int((keep & ~real).sum())  # the complex starts, whose imaginary rows come last

    def measure(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi_r(A M) and ||A M||_r for each start of M."""
        psi, g_r = _duality(M @ At, m, rf)
        return psi, g_r.sum(axis=1) ** (1.0 / rf)

    def leave(gone: np.ndarray, M: np.ndarray, value: np.ndarray, k: int) -> None:
        """Record profile, value and steps of the live starts flagged in gone."""
        if gone.any():
            i, n = live[gone], len(live)
            out[0, i], values[i], steps[i] = M[:n][gone], value[gone], k
            out[1, live[:m][gone[:m]]] = M[n:][gone[:m]]

    M = np.vstack([out[0, live], out[1, live[:m]]])
    psi, value = measure(M)
    for k in range(_POWER_STEPS):
        if live.size == 0:
            break
        Y = psi @ A_sized  # row i is A^H psi_r(A M_i) / |S|
        if nonneg:
            np.clip(Y, 0.0, None, out=Y)
        top = np.abs(Y).max(axis=1)  # then the larger of the two rows of a complex start
        top[:m] = top[len(live):] = np.maximum(top[:m], top[len(live):])
        moving = top[:len(live)] > 0  # else A M = 0, or no ascent direction on the cone
        if not moving.all():
            leave(~moving, M, value, k)
            rows = np.concatenate([moving, moving[:m]])
            live, M, value, Y, top = live[moving], M[rows], value[moving], Y[rows], top[rows]
            m = int(moving[:m].sum())
        Y /= top[:, None]  # the scale of each start drops out; dividing avoids overflow
        cand, y_pc = _duality(Y, m, pf / (pf - 1.0))  # |psi_p'(Y)|^p = |Y|^p'
        scale = (y_pc @ sizes) ** (1.0 / pf)
        cand /= np.concatenate([scale, scale[:m]])[:, None]
        cand_psi, cand_value = measure(cand)
        up = cand_value > value
        gain = np.divide(cand_value - value, value, out=np.zeros(len(value)), where=up)
        more = gain > 1e-13
        if not more.all():  # rows are copied only when a start leaves
            leave(~up, M, value, k + 1)  # keeps the profile it had
            leave(up & ~more, cand, cand_value, k + 1)  # keeps the new profile
            rows = np.concatenate([more, more[:m]])
            live, cand, cand_psi = live[more], cand[rows], cand_psi[rows]
            cand_value = cand_value[more]
            m = int(more[:m].sum())
        M, psi, value = cand, cand_psi, cand_value
    leave(np.ones(live.size, dtype=bool), M, value, _POWER_STEPS)
    return values, out[0] if nonneg else out[0] + 1j * out[1], steps, int(live.size)


def _tied(values: np.ndarray) -> int:
    """How many of values lie within 1e-9 relative of their maximum."""
    return int((values >= values.max() * (1.0 - 1e-9)).sum())


def _indicator_ratios(A: np.ndarray, sizes, pair: ExponentPair) -> Union[float, np.ndarray]:
    """||a||_r / n^(1/p), the ratio of the indicator of n points whose class
    rows sum to a: per column a of A with n from sizes, or for a 1-D A."""
    return _weighted_norm(A.T, np.ones(len(A)), pair.r) / sizes ** (1.0 / float(pair.p))


def rnorm_search(
    v: Variety, pair: ExponentPair, config: Optional[SearchConfig] = None
) -> RestrictionReport:
    """Maximize the radial restriction ratio by the multi-start power method.

    Every value returned is certified: it is the ratio achieved by an
    explicit profile, hence a true lower bound of the norm.  The q + 5
    starts (the q deltas, the constant, then 4 seeded random profiles, in
    that order) iterate together in ``_power_method``, each stopping on its
    own rule.  Ties keep the earliest start, so the result is deterministic
    given the seed.

    Each start iterates M <- psi_p'(A^H psi_r(A M) / |S|), rescaled to the
    unit weighted-p ball, with psi_s(x) = |x|^(s-2) x.  By Holder's
    inequality the new profile maximizes the linearization of the convex
    map M -> ||A M||_r at M over the ball, so no step lowers the ratio (in
    ``nonneg`` mode the real part is clipped at 0 first, which maximizes
    it over the cone); fixed points are critical points of the ratio.  A
    start stops when the map returns 0, when a step fails to raise the
    ratio or raises it by at most 1e-13 relative, or after 10,000 steps.
    On a variety without the origin the constant start is not iterated:
    its transform is a point mass at 0, so its exact value 0 is reported
    after 0 steps.  The report counts the starts that reached the cap
    (``capped``) and the starts that ended within 1e-9 relative of the best
    (``tied``).

    At p = 1 the ratio is convex on the weighted l1 ball, so its maximum
    is at a vertex, a normalized single sphere: the best of those q
    profiles is returned with no power steps (iterations = 0, earliest
    radius on ties, ``tied`` counted over the q spheres), whatever the
    seed is.
    """
    if config is None:
        config = SearchConfig()
    if not pair.is_finite:
        raise ValueError("rnorm_search needs finite exponents")
    if config.sign_mode not in ("signed", "nonneg"):
        raise ValueError(f"unknown sign_mode {config.sign_mode!r}")
    if config.seed < 0:
        raise ValueError("seed must be >= 0")

    ctx = v.ctx
    q = ctx.q
    A = _class_rows(v, pair.r)
    sizes = sphere_sizes(ctx).astype(np.float64)
    pf, rf = float(pair.p), float(pair.r)
    nonneg = config.sign_mode == "nonneg"

    if pair.p == 1:
        values = _indicator_ratios(A, sizes, pair)  # the single spheres
        j = int(np.argmax(values))
        return RestrictionReport(
            v.label, q, ctx.d, pair, "MultiStart", float(values[j]), 0,
            config.seed, config.sign_mode, np.eye(q)[j] / sizes[j], tied=_tied(values),
        )

    M0 = _starts(q, q + 5, config.seed, nonneg)
    # the constant profile (row q) transforms to a point mass at the origin,
    # so A M = 0 exactly on a variety without 0
    vanishing = (np.arange(q + 5) == q) & (not v.contains_zero)
    values, profiles, steps, capped = _power_method(A, sizes, pf, rf, M0, nonneg, vanishing)
    best = int(np.argmax(values))  # the first maximum: ties keep the earliest start
    return RestrictionReport(
        v.label, q, ctx.d, pair, "MultiStart", float(values[best]), int(steps.sum()),
        config.seed, config.sign_mode, profiles[best], capped=capped, tied=_tied(values),
    )


def compare_sign_modes(
    v: Variety, pair: ExponentPair
) -> tuple[RestrictionReport, RestrictionReport, bool]:
    """Run both sign modes at seed 0; flag when signed wins by more than 1e-6.

    The nonnegativity reduction is a proof device for upper bounds; whether
    the supremum itself is attained on nonnegative profiles is open, so the
    flag is worth watching in scans.
    """
    signed = rnorm_search(v, pair, SearchConfig(sign_mode="signed"))
    nonneg = rnorm_search(v, pair, SearchConfig(sign_mode="nonneg"))
    return signed, nonneg, signed.estimate > nonneg.estimate + 1e-6


def witness_lower_bound(v: Variety, pair: ExponentPair) -> float:
    """Best ratio among the closed-form witnesses (certified lower bound).

    Witnesses: each single-sphere indicator, and the constant function
    (whose transform is a point mass at the origin, so it detects varieties
    containing 0: the ratio is q^{d - d/p} |V|^{-1/r} there).
    """
    ctx = v.ctx
    A = _class_rows(v, pair.r)
    spheres = _indicator_ratios(A, sphere_sizes(ctx), pair)
    constant = _indicator_ratios(A.sum(axis=1), float(ctx.size), pair)  # F_q^d, every sphere
    return float(max(spheres.max(), constant))


# ---------------------------------------------------------------------------
# Exponent-region membership (exact rational geometry)

Point = tuple[Fraction, Fraction]


def _as_point(point) -> Point:
    """The point as exact fractions; a point outside [0,1]^2 raises."""
    x, y = point
    x, y = Fraction(x), Fraction(y)
    if not (0 <= x <= 1 and 0 <= y <= 1):
        raise ValueError("point must lie in [0,1]^2")
    return (x, y)


def _hull_contains(vertices: list[Point], point: Point) -> bool:
    """Membership in a convex polygon given in counterclockwise order."""
    x, y = point
    n = len(vertices)
    for i in range(n):
        px, py = vertices[i]
        qx, qy = vertices[(i + 1) % n]
        cross = (qx - px) * (y - py) - (qy - py) * (x - px)
        if cross < 0:
            return False
    return True


def region_conjecture(d: int, point) -> bool:
    """Necessary-condition region in the (1/p, 1/r) square.

    Convex hull of (1,0), (1,1), ((d+1)/2d, 1), ((d+1)/2d, 1/2); boundary
    points count as members.
    """
    if d < 2:
        raise UnsupportedDimension("need d >= 2")
    pt = _as_point(point)
    u = Fraction(d + 1, 2 * d)
    vertices = [
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (u, Fraction(1)),
        (u, Fraction(1, 2)),
    ]
    return _hull_contains(vertices, pt)


def region_lewko(d: int, point) -> bool:
    """Best-known sufficient region for paraboloid restriction estimates.

    d = 3 has its own endpoint (3/4, 3/8); higher dimensions use
    ((d^2+2d-2)/2d^2, *) and (3/4, (d+2)/4d).
    """
    if d < 3:
        raise UnsupportedDimension("region is stated for d >= 3")
    pt = _as_point(point)
    u = Fraction(d * d + 2 * d - 2, 2 * d * d)
    endpoint = (Fraction(3, 4), Fraction(3, 8) if d == 3 else Fraction(d + 2, 4 * d))
    vertices = [
        (Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(1)),
        (u, Fraction(1)),
        (u, Fraction(1, 2)),
        endpoint,
    ]
    return _hull_contains(vertices, pt)


def suf2_check(d: int, pair: ExponentPair) -> tuple[Fraction, bool]:
    """Exact value and sign of the exponent gate r d (1 - 1/p) - d + 1."""
    if pair.p == math.inf or pair.r == math.inf:
        raise ValueError("suf2_check needs finite exponents")
    value = pair.r * d * (1 - Fraction(1) / pair.p) - d + 1
    return value, value <= 0


# ---------------------------------------------------------------------------
# Off-origin diagnostic split


def suf1_diagnostic(v: Variety, M: np.ndarray, r: Exponent) -> tuple[float, float, float]:
    """Split the off-origin r-th power sum into zero-radius and rest parts.

    Returns (L, R, Mterm) where, summing over x in V minus the origin and
    scaling by q^{1-d}:

        L     uses the full profile,
        R     only the zero-radius coefficient,
        Mterm only the nonzero-radius coefficients.
    """
    if r == math.inf:
        raise ValueError("diagnostic needs finite r")
    ctx = v.ctx
    M = _profile(ctx, M)
    rows = _class_rows(v, r)[int(v.contains_zero):]
    rf = float(r)
    scale = float(ctx.q ** (ctx.d - 1)) / v.cardinality

    def power_sum(values: np.ndarray) -> float:
        return float((np.abs(values) ** rf).sum() / scale)

    M_rest = M.copy()
    M_rest[0] = 0
    return power_sum(rows @ M), power_sum(rows[:, 0] * M[0]), power_sum(rows @ M_rest)
