import contextlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffharm import (
    EmptyVariety,
    ExponentPair,
    FieldCtx,
    SearchConfig,
    UnsupportedDimension,
    build_variety,
    compare_sign_modes,
    enumerate_sphere,
    lift_radial,
    lp_norm_counting,
    lr_norm_sigma,
    profile_lp_norm,
    radial_matrix,
    region_conjecture,
    region_lewko,
    rnorm_exact_22,
    rnorm_search,
    sphere_sizes,
    suf1_diagnostic,
    suf2_check,
    witness_lower_bound,
    zero_sphere_intersection,
)
import ffharm.restriction
from ffharm.restriction import (
    _POWER_STEPS,
    _class_rows,
    _duality,
    _power_method,
    _starts,
    _tied,
    _weighted_norm,
    parse_exponent,
)

F = Fraction


# ---------------------------------------------------------------------------
# exponent pairs


def test_exponent_pair_parsing_and_conjugate():
    pair = ExponentPair.parse("3/2", "2")
    assert pair.p == F(3, 2) and pair.r == F(2)
    assert pair.p_conjugate == F(3)
    assert ExponentPair(F(1), F(2)).p_conjugate == math.inf
    assert ExponentPair(math.inf, F(2)).p_conjugate == F(1)
    assert ExponentPair.parse("inf", "2").inverse_point() == (F(0), F(1, 2))


def test_exponent_pair_rejects_bad_values():
    with pytest.raises(ValueError):
        ExponentPair(F(1, 2), F(2))
    with pytest.raises(ValueError):
        ExponentPair.parse("1.5", "2")
    with pytest.raises(ValueError):
        ExponentPair(2.0, F(2))  # floats other than inf are ambiguous


@pytest.mark.parametrize("text", ["15e-1", "1E1", "3e0", "1.5", "3/2e0", "0x3", "3_0"])
def test_parse_exponent_takes_only_fractions_integers_and_inf(text):
    with pytest.raises(ValueError, match="exponents are a/b fractions, integers or inf"):
        parse_exponent(text)


def test_parse_exponent_values_and_messages():
    assert parse_exponent(" 3/2 ") == F(3, 2) and parse_exponent("+2") == F(2)
    assert parse_exponent("Inf") == math.inf
    with pytest.raises(ValueError, match=">= 1"):
        parse_exponent("-3/2")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_exponent("3/0")


# ---------------------------------------------------------------------------
# lifting and norms


def test_lift_radial_delta_is_sphere_indicator():
    ctx = FieldCtx(3, 2)
    f = lift_radial(ctx, np.eye(3)[1])
    sphere = enumerate_sphere(ctx, 1)
    assert int((f.values != 0).sum()) == 4
    assert np.array_equal(np.nonzero(f.values)[0], sphere.flat)


def test_lift_radial_constant_and_zero():
    ctx = FieldCtx(5, 2)
    assert (lift_radial(ctx, np.ones(5)).values == 1).all()
    assert (lift_radial(ctx, np.zeros(5)).values == 0).all()


def test_lp_norm_examples():
    ctx = FieldCtx(3, 2)
    f = lift_radial(ctx, np.eye(3)[1])
    assert abs(lp_norm_counting(f, F(2)) - 2.0) < 1e-12
    ones = lift_radial(ctx, np.ones(3))
    assert abs(lp_norm_counting(ones, F(1)) - ctx.size) < 1e-12
    assert abs(lp_norm_counting(ones, math.inf) - 1.0) < 1e-12


def test_profile_norm_matches_lift_norm():
    ctx = FieldCtx(5, 3)
    rng = np.random.default_rng(0)
    M = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    for p in (F(1), F(3, 2), F(2), F(7, 3), math.inf):
        assert abs(
            profile_lp_norm(ctx, M, p) - lp_norm_counting(lift_radial(ctx, M), p)
        ) < 1e-9 * max(1.0, profile_lp_norm(ctx, M, p))
    # a profile scaled to the unit weighted-p ball lifts to a unit-norm function
    p = F(3, 2)
    unit = M / profile_lp_norm(ctx, M, p)
    assert abs(lp_norm_counting(lift_radial(ctx, unit), p) - 1.0) < 1e-12


@pytest.mark.parametrize("length", [4, 6])
def test_profile_of_wrong_length_raises(length):
    ctx = FieldCtx(5, 3)
    v = build_variety(ctx, "paraboloid")
    M = np.ones(length)
    with pytest.raises(ValueError, match="profile needs 5 coefficients"):
        lift_radial(ctx, M)
    with pytest.raises(ValueError, match="profile needs 5 coefficients"):
        profile_lp_norm(ctx, M, F(2))
    with pytest.raises(ValueError, match="profile needs 5 coefficients"):
        suf1_diagnostic(v, M, F(2))


def test_lr_norm_sigma_examples():
    ctx = FieldCtx(5, 3)
    v = build_variety(ctx, "paraboloid")
    const = np.full(v.cardinality, 3.0 - 4.0j)
    for r in (F(1), F(2), F(7, 2), math.inf):
        assert abs(lr_norm_sigma(const, v, r) - 5.0) < 1e-12
    # transform of the constant function is a point mass at the origin
    g = np.zeros(v.cardinality, dtype=complex)
    g[0] = ctx.size  # origin is row 0
    r = F(2)
    expected = ctx.size * v.cardinality ** (-1 / float(r))
    assert abs(lr_norm_sigma(g, v, r) - expected) < 1e-9
    assert abs(lr_norm_sigma(g, v, math.inf) - ctx.size) < 1e-12


def test_lr_norm_monotone_in_r():
    ctx = FieldCtx(7, 3)
    v = build_variety(ctx, "plane")
    rng = np.random.default_rng(1)
    g = rng.standard_normal(v.cardinality) + 1j * rng.standard_normal(v.cardinality)
    rs = [F(1), F(3, 2), F(2), F(3), F(6), math.inf]
    vals = [lr_norm_sigma(g, v, r) for r in rs]
    for lo, hi in zip(vals, vals[1:]):
        assert lo <= hi + 1e-12


def test_lr_norm_requires_nonempty_variety():
    ctx = FieldCtx(3, 2)
    with pytest.warns(UserWarning):
        v = build_variety(ctx, "poly:1")
    with pytest.raises(EmptyVariety):
        lr_norm_sigma(np.zeros(0), v, F(2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 9),
    st.one_of(st.fractions(min_value=1, max_value=6, max_denominator=5), st.just(math.inf)),
    st.integers(0, 2**32 - 1),
)
def test_weighted_norm_of_a_matrix_is_the_norm_of_each_row(rows, n, p, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    weights = rng.random(n) * 10
    weights[0] = 0.0  # a zero weight drops its column from the max at p = inf
    values[:, 0] *= 1e6
    norms = _weighted_norm(values, weights, p)
    assert norms.shape == (rows,)
    for row, norm in zip(values, norms):
        assert abs(norm - _weighted_norm(row, weights, p)) <= 1e-14 * norm
        if p == math.inf:
            want = max([abs(x) for x, w in zip(row, weights) if w > 0], default=0.0)
        else:
            want = sum(w * abs(x) ** float(p) for x, w in zip(row, weights)) ** (1 / float(p))
        assert abs(norm - want) <= 1e-12 * max(want, 1e-300)


def test_weighted_norm_takes_integer_values():
    for p in (F(1), F(5, 2), math.inf):
        assert _weighted_norm(np.arange(-2, 3), np.ones(5), p) == _weighted_norm(
            np.arange(-2.0, 3.0), np.ones(5), p
        )


def test_weighted_norm_rejects_a_shape_mismatch_and_empty_weights():
    with pytest.raises(ValueError, match="one value per weight"):
        _weighted_norm(np.ones((2, 3)), np.ones(4), F(2))
    with pytest.raises(ValueError, match="one value per weight"):
        _weighted_norm(np.ones(3), np.ones((1, 3)), math.inf)
    for p in (F(2), math.inf):
        with pytest.raises(EmptyVariety):
            _weighted_norm(np.ones((2, 0)), np.ones(0), p)


# ---------------------------------------------------------------------------
# radial matrix


def test_radial_matrix_zero_row_and_columns():
    ctx = FieldCtx(3, 2)
    v = build_variety(ctx, "plane")  # contains the origin
    A = radial_matrix(v)
    assert A.shape == (v.cardinality, 3)
    sizes = sphere_sizes(ctx)
    assert np.abs(A[0] - sizes).max() < 1e-9
    # columns are the closed-form transforms on V
    from ffharm import sphere_ft_closed

    for j in range(3):
        col = np.array([sphere_ft_closed(ctx, j, x) for x in ctx.grid_points()[v.flat]])
        assert np.abs(A[:, j] - col).max() < 1e-9


def test_radial_matrix_entry_example():
    ctx = FieldCtx(3, 2)
    v = build_variety(ctx, "plane")  # x1 + x2 = 0 contains (1, 2)? need (1,1)
    # use a custom variety that contains (1,1): x1 - x2 = 0
    v = build_variety(ctx, "poly:x1-x2")
    row = int(np.nonzero(v.flat == ctx.flat_index((1, 1)))[0][0])
    A = radial_matrix(v)
    assert abs(A[row, 1] - (-2)) < 1e-9


def test_restriction_of_lift_equals_matrix_product():
    from ffharm import ft_fast

    ctx = FieldCtx(5, 2)
    v = build_variety(ctx, "paraboloid")
    rng = np.random.default_rng(3)
    M = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    full = ft_fast(lift_radial(ctx, M)).values[v.flat]
    via_matrix = radial_matrix(v) @ M
    assert np.abs(full - via_matrix).max() < 1e-9


# with and without the origin; sphere:0 at q = 3, d = 2 is the origin alone
_VARIETIES = [
    (3, 2, "sphere:0"),
    (3, 2, "plane"),
    (5, 2, "sphere:1"),
    (5, 3, "paraboloid"),
    (7, 3, "sphere:2"),
    (5, 3, "poly:x1*x2-1"),
    (5, 4, "plane"),
]
_exponents = st.fractions(min_value=1, max_value=6, max_denominator=5)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_VARIETIES), st.one_of(_exponents, st.just(math.inf)),
    st.integers(0, 2**32 - 1),
)
def test_class_weighted_objective_matches_radial_matrix(case, r, seed):
    q, d, name = case
    v = build_variety(FieldCtx(q, d), name)
    rows = _class_rows(v, r)
    off_origin = v.flat[int(v.contains_zero):]
    assert len(rows) == len(np.unique(v.ctx.grid_norms()[off_origin])) + v.contains_zero
    rng = np.random.default_rng(seed)
    M = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    full = lr_norm_sigma(radial_matrix(v) @ M, v, r)
    classes = np.linalg.norm(rows @ M, float(r))  # the plain r-norm over the class rows
    assert abs(classes - full) <= 1e-9 * max(full, 1e-300)


@pytest.mark.parametrize("q,d,name", _VARIETIES)
@pytest.mark.parametrize("r", [F(3, 2), F(2), math.inf])
def test_class_rows_are_scaled_columns_of_the_dense_kernel(q, d, name, r, dense_kernel):
    v = build_variety(FieldCtx(q, d), name)
    dense = dense_kernel(v.ctx)
    e = 1.0 / float(r)
    norms = v.ctx.grid_norms()[v.flat[int(v.contains_zero):]]
    classes, counts = np.unique(norms, return_counts=True)
    want = dense[:, classes].T * ((counts / v.cardinality) ** e)[:, None]
    if v.contains_zero:
        origin = (dense[:, 0] + q ** (d - 1)) / v.cardinality**e
        want = np.vstack([origin, want])
    rows = _class_rows(v, r)
    assert rows.shape == want.shape
    assert np.abs(rows - want).max() <= 1e-13 * np.abs(dense).max()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_VARIETIES), _exponents, _exponents, st.integers(0, 1000))
def test_search_dominates_witness_bound(case, p, r, seed):
    q, d, name = case
    v = build_variety(FieldCtx(q, d), name)
    pair = ExponentPair(p, r)
    rep = rnorm_search(v, pair, SearchConfig(seed=seed))
    assert rep.estimate >= witness_lower_bound(v, pair) - 1e-9


def _dense_ratio(v, M, pair):
    """The restriction ratio of profile M by the full |V| x q radial matrix."""
    norm = lr_norm_sigma(radial_matrix(v) @ M, v, pair.r)
    return norm / profile_lp_norm(v.ctx, M, pair.p)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_VARIETIES), st.one_of(st.just(F(1)), _exponents), _exponents,
    st.sampled_from(["signed", "nonneg"]), st.integers(0, 1000),
)
def test_search_estimate_is_attained_by_its_profile(case, p, r, sign_mode, seed):
    q, d, name = case
    v = build_variety(FieldCtx(q, d), name)
    pair = ExponentPair(p, r)
    rep = rnorm_search(v, pair, SearchConfig(seed=seed, sign_mode=sign_mode))
    assert abs(_dense_ratio(v, rep.profile, pair) - rep.estimate) <= 1e-12 * rep.estimate
    if sign_mode == "nonneg":
        assert np.isrealobj(rep.profile) and (rep.profile >= 0).all()


def _duality_map(x, s):
    out = np.zeros_like(x)
    nz = x != 0
    out[nz] = np.abs(x[nz]) ** (s - 2) * x[nz]
    return out


@pytest.mark.parametrize("s", [1.0, 6 / 5, 3 / 2, 2.0, 3.0, 6.0])
def test_psi_matches_the_masked_duality_map(s):
    # the power method's psi_s on its rows: one per start, the m complex
    # starts first, then a row for the imaginary part of each of those
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    x[0, :3] = 0
    x[1, 5] = 1e-150  # its square 1e-300 is still a normal float
    x[2] = x[2].real
    for values, m in ((x, 2), (x.real.copy(), 0)):
        rows = np.vstack([values.real, values.imag[:m]])
        psi, power = _duality(rows, m, s)
        assert psi is rows  # written over its input
        got = psi[:3] + 1j * np.vstack([psi[3:], np.zeros((3 - m, 8))])
        want = _duality_map(values, s)
        assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want))
        assert np.all(np.abs(power - np.abs(values) ** s) <= 4e-15 * np.abs(values) ** s)


@pytest.mark.parametrize("q,d,name", _VARIETIES)
@pytest.mark.parametrize("p,r", [(F(3, 2), F(2)), (F(2), F(4)), (F(6, 5), F(3)), (F(4), F(3))])
def test_search_profile_is_a_fixed_point_of_the_power_map(q, d, name, p, r):
    # one more step of M <- psi_p'(A^H psi_r(A M) / |S|), taken on the dense
    # matrix, must not raise the ratio of the profile the search stopped at
    v = build_variety(FieldCtx(q, d), name)
    pair = ExponentPair(p, r)
    rep = rnorm_search(v, pair)
    A = radial_matrix(v)
    y = A.conj().T @ _duality_map(A @ rep.profile, float(r)) / sphere_sizes(v.ctx)
    step = _duality_map(y, float(pair.p_conjugate))
    assert _dense_ratio(v, step, pair) <= rep.estimate * (1 + 1e-9)


@pytest.mark.parametrize("q,d,name", _VARIETIES)
@pytest.mark.parametrize(
    "p,r",
    [(F(3, 2), F(2)), (F(1), F(3)), (F(4), F(1)), (math.inf, F(2)), (F(2), math.inf),
     (math.inf, math.inf)],
)
def test_witness_matches_dense_sphere_and_constant_profiles(q, d, name, p, r):
    ctx = FieldCtx(q, d)
    v = build_variety(ctx, name)
    pair = ExponentPair(p, r)
    profiles = list(np.eye(q)) + [np.ones(q)]
    dense = max(_dense_ratio(v, M, pair) for M in profiles)
    assert abs(witness_lower_bound(v, pair) - dense) <= 1e-12 * dense


_EDGE_VARIETIES = ["paraboloid", "sphere:0", "sphere:1", "plane"]


@pytest.mark.parametrize("name", _EDGE_VARIETIES)
@pytest.mark.parametrize("r", [F(1), F(3, 2), F(2), F(3), F(4)])
def test_search_at_p1_equals_witness(name, r):
    # at p = 1 the ratio is largest at an extreme point of the unit ball of
    # radial profiles, a normalized single sphere: one of the witnesses
    v = build_variety(FieldCtx(7, 3), name)
    pair = ExponentPair(F(1), r)
    witness = witness_lower_bound(v, pair)
    for sign_mode in ("signed", "nonneg"):
        rep = rnorm_search(v, pair, SearchConfig(sign_mode=sign_mode))
        assert abs(rep.estimate - witness) <= 1e-9 * witness
        assert rep.iterations == 0


@pytest.mark.parametrize("name", _EDGE_VARIETIES)
@pytest.mark.parametrize("p", [F(2), F(4)])
def test_search_at_r1_is_finite_and_above_witness(name, p):
    v = build_variety(FieldCtx(7, 3), name)
    pair = ExponentPair(p, F(1))
    estimate = rnorm_search(v, pair).estimate
    assert math.isfinite(estimate)
    assert estimate >= witness_lower_bound(v, pair) - 1e-9


# ---------------------------------------------------------------------------
# exact 2->2 norm


def test_exact22_single_point_variety():
    ctx = FieldCtx(3, 2)
    v = build_variety(ctx, "sphere:0")  # just the origin for q = 3
    sizes = sphere_sizes(ctx).astype(float)
    A = radial_matrix(v)
    expected = math.sqrt(float((np.abs(A[0]) ** 2 / sizes).sum()))
    assert abs(rnorm_exact_22(v) - expected) < 1e-9


# the last three have nearly equal top eigenvalues, which slows any
# iterative solver; the eigensolve must still agree within 1e-8
_EXACT22_CASES = [
    (name, d, q)
    for name in ("paraboloid", "plane", "sphere:1")
    for d in (2, 3)
    for q in (3, 5, 7)
] + [("sphere:0", 2, 41), ("sphere:0", 3, 41), ("poly:x1^3+x2^3-1", 3, 61)]


@pytest.mark.parametrize("name,d,q", _EXACT22_CASES)
def test_exact22_matches_dense_factorization(name, d, q):
    ctx = FieldCtx(q, d)
    v = build_variety(ctx, name)
    A = radial_matrix(v)
    weighted = A / math.sqrt(v.cardinality) / np.sqrt(sphere_sizes(ctx))[None, :]
    top = float(np.linalg.svd(weighted, compute_uv=False)[0])
    assert abs(rnorm_exact_22(v) - top) < 1e-8


# ---------------------------------------------------------------------------
# search


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", ["paraboloid", "plane", "sphere:1"])
def test_search_reproduces_exact22(q, d, name):
    ctx = FieldCtx(q, d)
    v = build_variety(ctx, name)
    exact = rnorm_exact_22(v)
    rep = rnorm_search(v, ExponentPair(F(2), F(2)), SearchConfig(sign_mode="signed"))
    assert rep.estimate <= exact + 1e-6
    assert rep.estimate >= exact - 1e-6


def test_search_dominates_its_own_starts():
    ctx = FieldCtx(5, 3)
    v = build_variety(ctx, "paraboloid")
    pair = ExponentPair(F(1), F(2))
    rep = rnorm_search(v, pair)
    # constant profile is one of the starts
    const_ratio = lr_norm_sigma(
        radial_matrix(v) @ np.ones(5), v, pair.r
    ) / profile_lp_norm(ctx, np.ones(5), pair.p)
    assert rep.estimate >= const_ratio - 1e-9
    assert rep.estimate >= witness_lower_bound(v, pair) - 1e-6


def test_search_regression_baseline():
    # frozen from the first correct run: the constant profile is optimal here
    ctx = FieldCtx(5, 3)
    v = build_variety(ctx, "paraboloid")
    rep = rnorm_search(v, ExponentPair(F(3, 2), F(2)), SearchConfig(seed=0))
    assert abs(rep.estimate - 1.0) < 1e-9
    assert rep.method == "MultiStart"


def test_search_deterministic_given_seed():
    ctx = FieldCtx(5, 3)
    v = build_variety(ctx, "plane")
    pair = ExponentPair(F(3, 2), F(2))
    a = rnorm_search(v, pair, SearchConfig(seed=11))
    b = rnorm_search(v, pair, SearchConfig(seed=11))
    assert a.estimate == b.estimate
    assert a.iterations == b.iterations


def test_search_rejects_bad_config():
    ctx = FieldCtx(3, 2)
    v = build_variety(ctx, "plane")
    with pytest.raises(ValueError):
        rnorm_search(v, ExponentPair(math.inf, F(2)))
    with pytest.raises(ValueError):
        rnorm_search(v, ExponentPair(F(2), F(2)), SearchConfig(sign_mode="both"))


@pytest.mark.parametrize("p", [F(1), F(3, 2)])
def test_search_rejects_negative_seed(p):
    # p = 1 draws no random start, but the seed is still refused
    v = build_variety(FieldCtx(3, 2), "plane")
    with pytest.raises(ValueError, match="seed"):
        rnorm_search(v, ExponentPair(p, F(2)), SearchConfig(seed=-1))


# ---------------------------------------------------------------------------
# batched power method against one start at a time


def _ascend(A, sizes, pf, rf, M0, nonneg):
    """One power-method run from M0.  Returns (||A M||_r, profile, steps).

    The profile stays on the unit ball of the weighted p-norm
    (sum_j sizes_j |M_j|^p)^(1/p), so ||A M||_r is the ratio when A's rows
    carry the measure.
    """

    def unit(M):
        return M / ((np.abs(M) ** pf) * sizes).sum() ** (1.0 / pf)

    M = unit(np.asarray(M0, dtype=np.float64 if nonneg else np.complex128))
    g = A @ M
    value = float(np.linalg.norm(g, rf))
    pc = pf / (pf - 1.0)
    for k in range(_POWER_STEPS):
        y = (_duality_map(g, rf).conj() @ A).conj() / sizes  # A^H psi_r(g), without copying A
        if nonneg:
            y = np.clip(y.real, 0.0, None)
        top = np.abs(y).max()
        if top == 0:
            return value, M, k  # A M = 0, or no ascent direction on the cone
        cand = unit(_duality_map(y / top, pc))  # the scale of y drops out; dividing avoids overflow
        g_cand = A @ cand
        cand_value = float(np.linalg.norm(g_cand, rf))
        if not cand_value > value:
            return value, M, k + 1
        gain = (cand_value - value) / value
        M, g, value = cand, g_cand, cand_value
        if gain <= 1e-13:
            return value, M, k + 1
    return value, M, _POWER_STEPS


def _search_inputs(v, pair):
    """The measure-scaled class rows and the sphere sizes rnorm_search iterates on."""
    A = _class_rows(v, pair.r)
    return A, sphere_sizes(v.ctx).astype(np.float64)


def _vanishing_starts(v, n_starts):
    """The mask rnorm_search passes: the constant start (row q) when 0 is not in V."""
    return (np.arange(n_starts) == v.ctx.q) & (not v.contains_zero)


def _one_start_runs(A, sizes, pf, rf, M0, nonneg):
    """(values, steps) of _ascend from each row of M0."""
    runs = [_ascend(A, sizes, pf, rf, M, nonneg) for M in M0]
    return np.array([run[0] for run in runs]), np.array([run[2] for run in runs])


@contextlib.contextmanager
def _step_cap(cap):
    """Set the step cap of both _power_method and _ascend."""
    with mock.patch.object(ffharm.restriction, "_POWER_STEPS", cap):
        with mock.patch.dict(globals(), {"_POWER_STEPS": cap}):
            yield


def _first_strict_max(values):
    """The start a one-at-a-time loop keeps: each new best must beat the old strictly."""
    best_value, best = -1.0, 0
    for i, value in enumerate(values):
        if value > best_value:
            best_value, best = value, i
    return best


_search_exponents = _exponents.filter(lambda x: x > 1)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(_VARIETIES), _search_exponents, _exponents,
    st.sampled_from(["signed", "nonneg"]), st.integers(0, 2**32 - 1),
    st.sampled_from([None, 0, 1, 5, 9]),
)
def test_batched_power_method_matches_one_start_runs(case, p, r, sign_mode, seed, extra):
    # starts in {1, q, q + 1, q + 5, q + 9}; rnorm_search runs the q + 5
    q, d, name = case
    n_starts = 1 if extra is None else q + extra
    v = build_variety(FieldCtx(q, d), name)
    pair = ExponentPair(p, r)
    pf, rf = float(p), float(r)
    nonneg = sign_mode == "nonneg"
    M0 = _starts(q, n_starts, seed, nonneg)
    assert M0.shape == (n_starts, q)
    A, sizes = _search_inputs(v, pair)
    vanishing = _vanishing_starts(v, n_starts)
    values, profiles, steps, capped = _power_method(A, sizes, pf, rf, M0, nonneg, vanishing)
    assert capped == 0
    if extra == 5:
        rep = rnorm_search(v, pair, SearchConfig(seed=seed, sign_mode=sign_mode))
        best = int(np.argmax(values))
        assert rep.estimate == values[best] and np.array_equal(rep.profile, profiles[best])
        assert rep.iterations == steps.sum() and rep.capped == capped

    _assert_matches_one_start_runs(v, pair, M0, nonneg, vanishing, values, steps, seed)


def _assert_matches_one_start_runs(v, pair, M0, nonneg, vanishing, values, steps, seed):
    """Values and steps of _power_method from M0 against _ascend's, start by start."""
    A, sizes = _search_inputs(v, pair)
    pf, rf = float(pair.p), float(pair.r)
    want_values, want_steps = _one_start_runs(A, sizes, pf, rf, M0, nonneg)
    # Two kinds of start end wherever rounding sends them in the one-start
    # loop, so the batched run need not agree with it there:
    # - a start with A M = 0 in exact arithmetic (the constant profile on a
    #   variety without the origin) takes its first step along rounding
    #   noise; the batched run stops it at 0 instead;
    # - a start that passes near a saddle of the ratio leaves it along
    #   whichever unstable direction rounding picks.
    # The first has a start ratio at rounding level; the second shows up as
    # an outcome of either route that moves when the start moves by 1e-12
    # relative (the one-start loop may leave a saddle the batched run stays on).
    start_ratios = (np.abs(M0 @ A.T) ** rf).sum(axis=1) ** (1 / rf) / (
        ((np.abs(M0) ** pf) * sizes).sum(axis=1) ** (1 / pf)
    )
    regular = start_ratios > 1e-9 * witness_lower_bound(v, pair)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        nudge = np.abs(rng.standard_normal(M0.shape)) * np.abs(M0).max(axis=1, keepdims=True)
        nudged = M0 + 1e-12 * nudge
        nudged_values, nudged_steps = _one_start_runs(A, sizes, pf, rf, nudged, nonneg)
        regular &= np.abs(nudged_values - want_values) <= 1e-12 * want_values
        regular &= np.abs(nudged_steps - want_steps) <= 1
        nudged_batched = _power_method(A, sizes, pf, rf, nudged, nonneg, vanishing)[0]
        regular &= np.abs(nudged_batched - values) <= 1e-12 * values

    assert np.all(np.abs(values - want_values)[regular] <= 1e-12 * want_values[regular])
    # Step counts differ only where gains lie within rounding of the 1e-13
    # stop threshold: one step when the gains fall fast, more when they
    # linger near it.  The longer run's extra steps then gain little.
    for i in np.nonzero(regular & (np.abs(steps - want_steps) > 1))[0]:
        shorter = min(steps[i], want_steps[i])
        with _step_cap(shorter):
            if want_steps[i] > steps[i]:
                at_shorter = _one_start_runs(A, sizes, pf, rf, M0[i:i + 1], nonneg)[0][0]
                longer = want_values[i]
            else:
                at_shorter = _power_method(A, sizes, pf, rf, M0, nonneg, vanishing)[0][i]
                longer = values[i]
        assert longer / at_shorter - 1 <= abs(steps[i] - want_steps[i]) * 2e-13
    if regular.any():
        got, kept = values[regular], want_values[regular]
        best, want_best = int(np.argmax(got)), _first_strict_max(kept)
        tol = 1e-12 * kept[want_best]
        assert abs(got[best] - kept[want_best]) <= tol
        # the chosen start is the one-start loop's, unless the two are tied within roundoff
        assert best == want_best or abs(kept[best] - kept[want_best]) <= tol


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(_VARIETIES), _search_exponents, _exponents,
    st.sampled_from(["signed", "nonneg"]), st.integers(0, 2**32 - 1),
)
def test_power_method_does_not_depend_on_the_order_of_its_starts(case, p, r, sign_mode, seed):
    # the loop puts the complex starts' rows first whatever the order of M0;
    # here M0's real and complex starts alternate, each kind shuffled
    q, d, name = case
    v = build_variety(FieldCtx(q, d), name)
    pair = ExponentPair(p, r)
    pf, rf = float(p), float(r)
    nonneg = sign_mode == "nonneg"
    A, sizes = _search_inputs(v, pair)
    M0 = _starts(q, q + 5, seed, nonneg)
    vanishing = _vanishing_starts(v, q + 5)
    is_real = (M0.imag == 0).all(axis=1)
    assert is_real.sum() == (q + 5 if nonneg else q + 1)
    rng = np.random.default_rng(seed)
    real, cplx = rng.permutation(np.flatnonzero(is_real)), rng.permutation(np.flatnonzero(~is_real))
    order = np.concatenate([np.column_stack([real[:len(cplx)], cplx]).ravel(), real[len(cplx):]])
    assert sorted(order) == list(range(q + 5))
    base = _power_method(A, sizes, pf, rf, M0, nonneg, vanishing)
    M0, vanishing, is_real = M0[order], vanishing[order], is_real[order]
    values, profiles, steps, capped = _power_method(A, sizes, pf, rf, M0, nonneg, vanishing)
    assert np.array_equal(values, base[0][order]) and np.array_equal(steps, base[2][order])
    assert np.array_equal(profiles, base[1][order]) and capped == base[3]
    _assert_matches_one_start_runs(v, pair, M0, nonneg, vanishing, values, steps, seed)
    if not nonneg:
        # a real start stays real under both maps, in the batch and alone
        assert np.all(profiles[is_real].imag == 0)
        for M in M0[is_real]:
            assert np.all(_ascend(A, sizes, pf, rf, M, nonneg)[1].imag == 0)


# the search workload's rows: the d = 3 paraboloid at (3/2, 2), the d = 4 one at (8/5, 2)
_SCAN_ROWS = [pytest.param(3, q, F(3, 2), id=str(q)) for q in (13, 31, 61, 101)] + [
    pytest.param(4, q, F(8, 5), id=f"d4-{q}") for q in (11, 31)
]


@pytest.mark.parametrize("d,q,p", _SCAN_ROWS)
def test_batched_steps_equal_one_start_steps_on_the_scan_rows(d, q, p):
    # the search workload's rows converge in a few steps with gains far from
    # the stop threshold, so every start's count matches exactly
    v = build_variety(FieldCtx(q, d), "paraboloid")
    pair = ExponentPair(p, F(2))
    A, sizes = _search_inputs(v, pair)
    M0 = _starts(q, q + 5, 0, nonneg=False)
    values, _, steps, _ = _power_method(A, sizes, float(p), 2.0, M0, False)
    want_values, want_steps = _one_start_runs(A, sizes, float(p), 2.0, M0, False)
    assert np.array_equal(steps, want_steps)
    assert np.all(np.abs(values - want_values) <= 1e-12 * want_values)


@pytest.mark.parametrize("nonneg", [False, True])
def test_start_with_a_zero_transform_stops_at_step_0(nonneg):
    # A M = 0 exactly for the first start: the map returns 0, no step is taken
    A = np.array([[1.0, 0.0, 2.0]])
    sizes = np.array([1.0, 2.0, 3.0])
    M0 = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 3.0, 1.0]])
    values, profiles, steps, _ = _power_method(A, sizes, 1.5, 3.0, M0, nonneg)
    want_values, want_steps = _one_start_runs(A, sizes, 1.5, 3.0, M0, nonneg)
    assert values[0] == 0 and steps[0] == 0
    assert np.array_equal(profiles[0], M0[0] / 2 ** (1 / 1.5))
    # alone, it empties the batch at step 0
    alone = _power_method(A, sizes, 1.5, 3.0, M0[:1], nonneg)
    assert alone[0][0] == 0 and alone[2][0] == 0 and alone[3] == 0
    assert np.array_equal(steps, want_steps)
    assert np.all(np.abs(values - want_values) <= 1e-12 * want_values)


@pytest.mark.parametrize("case", _VARIETIES)
@pytest.mark.parametrize("sign_mode", ["signed", "nonneg"])
def test_constant_start_off_the_origin_is_0_after_0_steps(case, sign_mode):
    q, d, name = case
    v = build_variety(FieldCtx(q, d), name)
    # the constant profile's transform is q^d at the origin and 0 elsewhere
    constant = radial_matrix(v) @ np.ones(q)
    assert np.abs(constant[int(v.contains_zero):]).max(initial=0.0) <= 1e-9 * q**d
    pair = ExponentPair(F(3, 2), F(2))
    nonneg = sign_mode == "nonneg"
    A, sizes = _search_inputs(v, pair)
    M0 = _starts(q, q + 5, 0, nonneg)
    vanishing = _vanishing_starts(v, q + 5)
    assert vanishing.sum() == (not v.contains_zero)
    values, profiles, steps, _ = _power_method(A, sizes, 1.5, 2.0, M0, nonneg, vanishing)
    if not v.contains_zero:
        unit = M0[q] / float(sizes.sum()) ** (1 / 1.5)
        assert values[q] == 0 and steps[q] == 0 and np.allclose(profiles[q], unit)
    # the other starts run as they would without the mask
    rest = ~vanishing
    alone = _power_method(A, sizes, 1.5, 2.0, M0[rest], nonneg)
    assert np.array_equal(values[rest], alone[0]) and np.array_equal(steps[rest], alone[2])
    rep = rnorm_search(v, pair, SearchConfig(sign_mode=sign_mode))
    assert rep.estimate == values.max() and rep.iterations == steps.sum()


@pytest.mark.parametrize(
    "case", [(5, 3, "paraboloid"), (5, 3, "poly:x1*x2-1")], ids=["origin", "no-origin"]
)
@pytest.mark.parametrize("sign_mode", ["signed", "nonneg"])
@pytest.mark.parametrize("p,r,seed", [(F(3, 2), F(2), 0), (F(3), F(3, 2), 3)], ids=["a", "b"])
def test_search_runs_the_fixed_q_plus_5_starts(case, sign_mode, p, r, seed):
    # every delta, the constant, then 4 seeded draws; the constant is
    # masked on the variety without the origin
    q, d, name = case
    v = build_variety(FieldCtx(q, d), name)
    assert v.contains_zero == (name == "paraboloid")
    pair = ExponentPair(p, r)
    nonneg = sign_mode == "nonneg"
    A, sizes = _search_inputs(v, pair)
    M0 = _starts(q, q + 5, seed, nonneg)
    values, profiles, steps, capped = _power_method(
        A, sizes, float(p), float(r), M0, nonneg, _vanishing_starts(v, q + 5)
    )
    best = int(np.argmax(values))
    rep = rnorm_search(v, pair, SearchConfig(seed=seed, sign_mode=sign_mode))
    assert rep.estimate == values[best] and np.array_equal(rep.profile, profiles[best])
    assert rep.iterations == steps.sum() and rep.capped == capped
    assert (rep.seed, rep.sign_mode) == (seed, sign_mode)


def test_power_method_does_not_overflow_on_a_large_matrix():
    # p' = 6 raises |A^H psi_r(A M)| to the 4th power; each row is divided
    # by its largest entry first, so a power-of-2 scale of A (exact in
    # floating point) drops out exactly at r = 2
    v = build_variety(FieldCtx(5, 3), "paraboloid")
    A, sizes = _search_inputs(v, ExponentPair(F(6, 5), F(2)))
    M0 = _starts(5, 10, 0, nonneg=False)
    values, profiles, steps, _ = _power_method(A, sizes, 1.2, 2.0, M0, False)
    big = _power_method(2.0**330 * A, sizes, 1.2, 2.0, M0, False)
    assert np.array_equal(big[0], 2.0**330 * values)
    assert np.array_equal(big[1], profiles) and np.array_equal(big[2], steps)


def test_power_method_does_not_underflow_on_a_small_matrix():
    # the twin of the test above: a scale of 2^-330 keeps every square a
    # normal float, so it too drops out exactly
    v = build_variety(FieldCtx(5, 3), "paraboloid")
    A, sizes = _search_inputs(v, ExponentPair(F(6, 5), F(2)))
    M0 = _starts(5, 10, 0, nonneg=False)
    values, profiles, steps, _ = _power_method(A, sizes, 1.2, 2.0, M0, False)
    small = _power_method(2.0**-330 * A, sizes, 1.2, 2.0, M0, False)
    assert np.array_equal(small[0], 2.0**-330 * values)
    assert np.array_equal(small[1], profiles) and np.array_equal(small[2], steps)


def test_power_method_refuses_complex_rows():
    # the loop is real: a complex A must not lose its imaginary part
    A = np.array([[1.0, 0.0, 2.0]])
    sizes = np.array([1.0, 2.0, 3.0])
    M0 = np.array([[1.0, 1.0, 1.0]])
    for nonneg in (False, True):
        with pytest.raises(TypeError, match="real"):
            _power_method(A + 1j, sizes, 1.5, 3.0, M0, nonneg)
        with pytest.raises(TypeError, match="real"):
            _power_method(A.astype(np.complex128), sizes, 1.5, 3.0, M0, nonneg)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_VARIETIES), _search_exponents, _exponents,
    st.sampled_from(["signed", "nonneg"]), st.integers(0, 2**32 - 1),
)
def test_power_method_values_are_the_norms_of_its_profiles(case, p, r, sign_mode, seed):
    # the loop's inline norms against _weighted_norm, the one norm of the module
    q, d, name = case
    v = build_variety(FieldCtx(q, d), name)
    pair = ExponentPair(p, r)
    pf, rf = float(p), float(r)
    nonneg = sign_mode == "nonneg"
    A, sizes = _search_inputs(v, pair)
    M0 = _starts(q, q + 5, seed, nonneg)
    vanishing = _vanishing_starts(v, q + 5)
    values, profiles, _, _ = _power_method(A, sizes, pf, rf, M0, nonneg, vanishing)
    assert np.iscomplexobj(profiles) != nonneg
    # a vanishing start's A M is rounding noise, and its value the exact 0
    assert np.all(values[vanishing] == 0)
    want = _weighted_norm(profiles[~vanishing] @ A.T, np.ones(len(A)), r)
    assert np.all(np.abs(values[~vanishing] - want) <= 1e-12 * want)
    assert np.all(np.abs(_weighted_norm(profiles, sizes, p) - 1) <= 1e-12)


def test_tied_counts_values_within_1e9_of_the_best():
    values = np.array([2.0, 2.0 * (1 - 5e-10), 2.0 * (1 - 5e-9), 1.0, 2.0])
    assert _tied(values) == 3


def test_default_starts_are_deltas_constant_then_seeded_draws():
    q, seed = 5, 7
    M0 = _starts(q, q + 5, seed, nonneg=False)
    assert np.array_equal(M0[:q], np.eye(q)) and np.array_equal(M0[q], np.ones(q))
    rng = np.random.default_rng(seed)
    for row in M0[q + 1:]:
        assert np.array_equal(row, rng.standard_normal(q) + 1j * rng.standard_normal(q))
    rng = np.random.default_rng(seed)
    for row in _starts(q, q + 5, seed, nonneg=True)[q + 1:]:
        assert np.array_equal(row, rng.random(q))
    assert np.array_equal(_starts(q, 3, seed, nonneg=False), np.eye(q)[:3])


def test_search_counts_capped_and_tied_starts():
    v = build_variety(FieldCtx(7, 3), "paraboloid")
    pair = ExponentPair(F(6, 5), F(3))
    A, sizes = _search_inputs(v, pair)
    M0 = _starts(7, 12, 0, nonneg=False)
    values, _, steps, capped = _power_method(A, sizes, 1.2, 3.0, M0, False)
    assert capped == 0
    rep = rnorm_search(v, pair)
    assert rep.capped == 0
    assert rep.tied == int((values >= values.max() * (1 - 1e-9)).sum()) >= 1
    cap = 2
    assert (steps > cap).any() and (steps <= cap).any()
    with _step_cap(cap):
        assert rnorm_search(v, pair).capped == int((steps > cap).sum())


def test_each_start_keeps_the_profile_of_its_last_step():
    # a start keeps its last step when the step raised the ratio, and a
    # start cut by the step cap keeps the profile it had reached
    v = build_variety(FieldCtx(7, 3), "paraboloid")
    A, sizes = _search_inputs(v, ExponentPair(F(6, 5), F(3)))
    M0 = _starts(7, 12, 0, nonneg=False)
    values, _, steps, _ = _power_method(A, sizes, 1.2, 3.0, M0, False)
    raised = 0
    for s in np.unique(steps[steps > 0]):
        with _step_cap(s - 1):
            before, at_cap, _, _ = _power_method(A, sizes, 1.2, 3.0, M0, False)
        at_cap_norms = _weighted_norm(at_cap @ A.T, np.ones(len(A)), 3)
        assert np.all(np.abs(at_cap_norms - before) <= 1e-12 * before)
        ends = steps == s
        assert np.all(values[ends] >= before[ends])
        raised += int((values[ends] > before[ends]).sum())
    assert raised > 0


def test_compare_sign_modes_returns_flag():
    ctx = FieldCtx(3, 3)
    v = build_variety(ctx, "paraboloid")
    signed, nonneg, flag = compare_sign_modes(v, ExponentPair(F(2), F(2)))
    assert signed.sign_mode == "signed"
    assert nonneg.sign_mode == "nonneg"
    assert signed.estimate >= nonneg.estimate - 1e-9
    assert flag == (signed.estimate > nonneg.estimate + 1e-6)


def test_homogeneity_of_ratio():
    ctx = FieldCtx(5, 3)
    v = build_variety(ctx, "paraboloid")
    A = radial_matrix(v)
    pair = ExponentPair(F(3, 2), F(2))
    rng = np.random.default_rng(5)
    M = rng.standard_normal(5) + 1j * rng.standard_normal(5)

    def ratio(M):
        return lr_norm_sigma(A @ M, v, pair.r) / profile_lp_norm(ctx, M, pair.p)

    base = ratio(M)
    for scale in (2.0, -3.5, 1.0j, 0.25 - 0.7j):
        assert abs(ratio(scale * M) - base) <= 1e-9 * base


# ---------------------------------------------------------------------------
# witnesses


def test_constant_witness_value():
    ctx = FieldCtx(7, 3)
    v = build_variety(ctx, "paraboloid")
    pair = ExponentPair(F(2), F(2))
    # constant witness: q^{d - d/p} |V|^{-1/r} = 7^{3/2} * 49^{-1/2} = sqrt(7)
    expected = 7 ** (3 - 3 / 2) * 49 ** (-1 / 2)
    assert abs(expected - math.sqrt(7)) < 1e-12
    assert witness_lower_bound(v, pair) >= expected - 1e-9


def test_witness_on_critical_line_is_one():
    # d/p + (d-1)/r = d with |V| = q^{d-1} makes the constant witness exactly 1
    ctx = FieldCtx(5, 3)
    v = build_variety(ctx, "paraboloid")
    pair = ExponentPair(F(3, 2), F(2))
    d, q = 3, 5
    const = q ** (d - d / float(pair.p)) * v.cardinality ** (-1 / float(pair.r))
    assert abs(const - 1.0) < 1e-12
    assert witness_lower_bound(v, pair) >= 1.0 - 1e-9


def test_witness_growth_outside_necessary_region():
    # pair (2,2) in d = 3 violates d/p + (d-1)/r >= d; witness grows ~ sqrt(q)
    pair = ExponentPair(F(2), F(2))
    exponent = 3 - 3 / 2 - 2 / 2  # = 1/2
    vals = {}
    for q in (3, 13):
        v = build_variety(FieldCtx(q, 3), "paraboloid")
        vals[q] = witness_lower_bound(v, pair)
    assert vals[13] / vals[3] >= (13 / 3) ** exponent / 2


# ---------------------------------------------------------------------------
# region membership and rational gates


def test_region_conjecture_examples():
    assert region_conjecture(3, (F(2, 3), F(1, 2))) is True  # vertex
    assert region_conjecture(3, (F(1, 2), F(1, 2))) is False
    assert region_conjecture(3, (F(1), F(1))) is True  # vertex


def test_region_conjecture_matches_inequalities():
    # hull form vs inequality form: 1/p >= (d+1)/2d and d/p + (d-1)/r >= d
    for d in (2, 3, 4, 5):
        for ip_num in range(0, 13):
            for ir_num in range(0, 13):
                pt = (F(ip_num, 12), F(ir_num, 12))
                expected = pt[0] >= F(d + 1, 2 * d) and d * pt[0] + (d - 1) * pt[1] >= d
                assert region_conjecture(d, pt) == expected


def test_region_lewko_examples():
    assert region_lewko(4, (F(11, 16), F(1))) is True  # vertex
    assert region_lewko(3, (F(13, 18), F(1, 2))) is True  # vertex
    for d in (3, 4, 5, 8):
        assert region_lewko(d, (F(0), F(0))) is False
    assert region_lewko(3, (F(3, 4), F(3, 8))) is True  # d=3 endpoint
    assert region_lewko(4, (F(3, 4), F(6, 16))) is True  # (3/4, (d+2)/4d)


def test_region_lewko_rejects_small_d():
    with pytest.raises(UnsupportedDimension):
        region_lewko(2, (F(1), F(1)))


@pytest.mark.parametrize("region", [region_conjecture, region_lewko])
@pytest.mark.parametrize("point", [(2, F(1, 2)), (F(3, 4), F(-1, 8))])
def test_regions_refuse_points_outside_the_unit_square(region, point):
    with pytest.raises(ValueError, match=r"point must lie in \[0,1\]\^2"):
        region(3, point)


def test_lewko_region_inside_conjecture_region():
    # the proven region is contained in the necessary one
    for d in (3, 4, 5):
        for ip_num in range(0, 9):
            for ir_num in range(0, 9):
                pt = (F(ip_num, 8), F(ir_num, 8))
                if region_lewko(d, pt):
                    assert region_conjecture(d, pt)


def test_suf2_examples():
    value, ok = suf2_check(3, ExponentPair(F(3, 2), F(2)))
    assert value == 0 and ok
    value, ok = suf2_check(4, ExponentPair(F(3, 2), F(9, 4)))
    assert value == 0 and ok
    value, ok = suf2_check(3, ExponentPair(F(2), F(2)))
    assert value == 1 and not ok


# ---------------------------------------------------------------------------
# Holder-step profile properties


@pytest.mark.parametrize("q,d,p", [(5, 3, F(3, 2)), (7, 3, F(2)), (5, 4, F(8, 5))])
def test_profile_sum_and_m0_bounds(q, d, p):
    # nonneg profiles normalized to sum of M_j^p = q^{1-d} exactly
    rng = np.random.default_rng(q * 10 + d)
    pf = float(p)
    pc = float(p / (p - 1))
    for _ in range(25):
        M = rng.random(q)
        M *= (q ** (1 - d) / (M**pf).sum()) ** (1 / pf)
        assert abs((M**pf).sum() - q ** (1 - d)) < 1e-12
        for r in (1.0, 2.0, 2.25):
            lhs = M.sum() ** r
            rhs = q ** (r / pc) * q ** (r * (1 - d) / pf)
            assert lhs <= rhs * (1 + 1e-9)
        assert M[0] <= q ** ((1 - d) / pf) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# off-origin diagnostic


def test_suf1_zero_profile():
    ctx = FieldCtx(5, 4)
    v = build_variety(ctx, "plane")
    L, R, Mterm = suf1_diagnostic(v, np.zeros(5), F(2))
    assert L == R == Mterm == 0.0


def test_suf1_triangle_bound():
    ctx = FieldCtx(5, 4)
    v = build_variety(ctx, "plane")
    rng = np.random.default_rng(8)
    for r in (F(1), F(2), F(5, 2)):
        L, R, Mterm = suf1_diagnostic(v, rng.random(5), r)
        assert L <= 2 ** float(r) * (R + Mterm) + 1e-9


def test_suf1_zero_radius_term_bound():
    # profile = e_0 on the plane in d = 4: the zero-radius part is controlled
    # by the (sharp) transform bounds together with the intersection count
    ctx = FieldCtx(5, 4)
    v = build_variety(ctx, "plane")
    q, d, r = 5, 4, 2.0
    M = np.eye(q)[0]
    M = M / profile_lp_norm(ctx, M, F(8, 5))
    L, R, Mterm = suf1_diagnostic(v, M, F(2))
    inter = zero_sphere_intersection(v)
    M0 = abs(M[0])
    bound = (
        q ** (r * d / 2) * M0**r * inter.count / q ** (d - 1)
        + q ** (r * (d - 2) / 2) * M0**r * v.cardinality / q ** (d - 1)
    )
    assert R <= bound + 1e-9
    assert Mterm == 0.0
    assert abs(L - R) < 1e-12


@pytest.mark.parametrize("case", _VARIETIES)
@pytest.mark.parametrize("r", [F(1), F(2), F(7, 3)])
def test_suf1_matches_the_dense_power_sums(case, r):
    q, d, name = case
    ctx = FieldCtx(q, d)
    v = build_variety(ctx, name)
    rng = np.random.default_rng(q * d)
    M = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    M_rest = M.copy()
    M_rest[0] = 0
    A = radial_matrix(v)[int(v.contains_zero):]  # the points of V minus the origin
    rf = float(r)
    want = [
        float((np.abs(g) ** rf).sum()) / q ** (d - 1)
        for g in (A @ M, A[:, 0] * M[0], A @ M_rest)
    ]
    got = suf1_diagnostic(v, M, r)
    assert np.allclose(got, want, rtol=1e-9, atol=0)
