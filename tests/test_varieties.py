import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffharm import (
    EmptyVarietyWarning,
    FieldCtx,
    NegativeExponent,
    ParseError,
    RoundingMismatch,
    TooLarge,
    UnknownVariable,
    build_variety,
    enumerate_sphere,
    eval_poly,
    parse_poly,
    pretty_print,
    rnorm_exact_22,
    sphere_sizes,
    zero_sphere_intersection,
)
import ffharm.varieties
from ffharm.field import GRID_BUDGET
from ffharm.field import is_odd_prime
from ffharm.varieties import (
    _MATRIX_DFT_MAX_Q,
    Add,
    Lit,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _blocks,
    _counts_route,
    _dft_matrix,
    _direct_pass,
    _matrix_irfft2,
    _matrix_rfft2,
    _radius_counts,
    _route_bytes,
    _transform_error_bound,
    _WEIGHT_ERROR,
)


def test_parse_and_eval_paraboloid_point():
    expr = parse_poly("x1^2+x2^2-x3", 3)
    assert eval_poly(expr, (1, 2, 0), 5) == 0


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_poly("x4", 3)
    with pytest.raises(UnknownVariable):
        parse_poly("x0 + x1", 2)


def test_unary_minus_example():
    expr = parse_poly("-x1*x2", 2)
    assert eval_poly(expr, (1, 1), 3) == 2  # -1 = 2 mod 3


def test_precedence():
    # '^' binds tighter than unary '-', which binds tighter than '*'
    assert parse_poly("-x1^2", 2) == Neg(Pow(Var(1), 2))
    assert parse_poly("-x1*x2", 2) == Mul(Neg(Var(1)), Var(2))
    assert parse_poly("x1+x2*x1", 2) == Add(Var(1), Mul(Var(2), Var(1)))
    assert parse_poly("x1-x2-x1", 2) == Sub(Sub(Var(1), Var(2)), Var(1))
    assert parse_poly("(x1+x2)^3", 2) == Pow(Add(Var(1), Var(2)), 3)
    assert eval_poly(parse_poly("2*x1+3", 2), (2, 0), 7) == 0


def test_whitespace_insensitive():
    a = parse_poly("x1^2 + x2 ^ 2 - x3", 3)
    b = parse_poly("x1^2+x2^2-x3", 3)
    assert a == b


@pytest.mark.parametrize(
    "src", ["", "   ", "x1 +", "(x1", "x1)", "x1^x2", "x1 @ x2", "3 3", "^2", "x1^(2)"]
)
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse_poly(src, 2)


def test_negative_exponent():
    with pytest.raises(NegativeExponent):
        parse_poly("x1^-2", 2)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_poly("x1 + @", 2)
    assert info.value.pos == 5


_leaf = st.one_of(
    st.integers(min_value=0, max_value=12).map(Lit),
    st.integers(min_value=1, max_value=3).map(Var),
)


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: Add(*ab)),
        st.tuples(children, children).map(lambda ab: Sub(*ab)),
        st.tuples(children, children).map(lambda ab: Mul(*ab)),
        children.map(Neg),
        st.tuples(children, st.integers(min_value=0, max_value=5)).map(
            lambda bk: Pow(*bk)
        ),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _extend, max_leaves=25))
def test_pretty_print_round_trip(expr):
    assert parse_poly(pretty_print(expr), 3) == expr


@st.composite
def _poly_on_grid(draw):
    q = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.integers(min_value=2, max_value=4))
    leaf = st.one_of(
        st.integers(min_value=0, max_value=12).map(Lit),
        st.integers(min_value=1, max_value=d).map(Var),
    )
    return q, d, draw(st.recursive(leaf, _extend, max_leaves=10))


@settings(max_examples=80, deadline=None)
@given(_poly_on_grid())
@example((3, 2, Lit(0)))
@example((5, 3, Lit(1)))
@example((7, 4, Sub(Var(1), Var(3))))
@example((5, 4, Sub(Pow(Var(2), 0), Lit(1))))
@example((7, 4, Neg(Neg(Sub(Mul(Var(4), Var(1)), Neg(Lit(3)))))))
def test_broadcast_build_matches_point_grid(case):
    q, d, expr = case
    ctx = FieldCtx(q, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyVarietyWarning)
        v = build_variety(ctx, expr)
    # the scalar evaluator, point by point, is independent of _eval_axes
    zeros = [i for i, pt in enumerate(ctx.grid_points()) if eval_poly(expr, pt, q) == 0]
    assert v.flat.tolist() == zeros


def test_build_budget_guard():
    # counting enumerates one variable at a time, so only the oracle is over budget
    v = build_variety(FieldCtx(101, 5), "paraboloid")
    assert v.cardinality == 101**4
    with pytest.raises(TooLarge):
        v.flat
    # one block of all five variables is enumerated whole
    with pytest.raises(TooLarge):
        build_variety(FieldCtx(101, 5), "poly:x1*x2*x3*x4*x5-1")
    # q^d >= 2^63 is refused before anything is allocated
    with pytest.raises(TooLarge):
        build_variety(FieldCtx(1009, 7), "paraboloid")


@settings(max_examples=80, deadline=None)
@given(_poly_on_grid())
@example((3, 2, Lit(0)))
@example((5, 3, Lit(1)))
@example((5, 3, Sub(Lit(4), Pow(Lit(2), 2))))
@example((7, 4, Sub(Var(1), Var(3))))
@example((5, 4, Sub(Pow(Var(2), 0), Lit(1))))
@example((7, 4, Neg(Neg(Sub(Mul(Var(4), Var(1)), Neg(Lit(3)))))))
@example((7, 3, parse_poly("(x1+x2)^2-x3", 3)))
@example((7, 4, parse_poly("x1^2+x2^2-x3*x4", 4)))
@example((7, 3, parse_poly("x1*x2*x3-1", 3)))
def test_radius_counts_match_enumeration(case):
    q, d, expr = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EmptyVarietyWarning)
        v = build_variety(FieldCtx(q, d), expr)
    norms = v.ctx.grid_norms()[v.flat]
    assert np.array_equal(v.radius_counts, np.bincount(norms, minlength=q))
    assert v.cardinality == v.flat.size
    assert v.contains_zero == (v.flat.size > 0 and v.flat[0] == 0)


def _int64_route_counts(ctx, expr):
    """_radius_counts by the exact int64 convolution, whatever q and d."""
    with mock.patch.object(ffharm.varieties, "_transform_error_bound", return_value=math.inf):
        return _radius_counts(ctx, expr)


@settings(max_examples=80, deadline=None)
@given(_poly_on_grid())
@example((3, 2, Lit(0)))
@example((5, 3, Lit(1)))
@example((7, 4, Sub(Var(1), Var(3))))
@example((7, 3, parse_poly("x1*x2*x3-1", 3)))
@example((7, 3, parse_poly("x1^2+x2^2-x3", 3)))
@example((7, 4, parse_poly("x1^2+x2^2+x3^2-x4", 4)))
@example((7, 4, parse_poly("x1^2+x2^2-x3*x4", 4)))
@example((7, 4, parse_poly("x1*x2+x3*x4-1", 4)))
def test_transform_route_matches_int64_route(case):
    q, d, expr = case
    ctx = FieldCtx(q, d)
    assert _transform_error_bound(q, d) < 0.5
    assert np.array_equal(_radius_counts(ctx, expr), _int64_route_counts(ctx, expr))


# x1*x2*x3-1 is one block of q^3 points, so it stops at q = 211 (9.4e6
# points); at 401 the enumeration alone would hold several 0.5 GB arrays
_ROUTE_CASES = [
    (q, d, src)
    for q in (101, 211, 401)
    for d, src in [
        (3, "x1^2+x2^2-x3"),
        (4, "x1^2+x2^2+x3^2-x4"),
        (4, "x1^2+x2^2-x3*x4"),
        (3, "x1^3+x2^3-1"),
        (3, "(x1+x2)^2-x3"),
    ]
] + [(q, 3, "x1*x2*x3-1") for q in (101, 211)]


@pytest.mark.parametrize("q,d,src", _ROUTE_CASES)
def test_transform_route_matches_int64_route_at_scale(q, d, src):
    ctx = FieldCtx(q, d)
    expr = parse_poly(src, d)
    assert _transform_error_bound(q, d) < 0.5
    assert np.array_equal(_radius_counts(ctx, expr), _int64_route_counts(ctx, expr))


@pytest.mark.parametrize("q,d", [(1009, 3), (1009, 4), (2003, 3), (4001, 3)])
def test_transform_route_reaches_large_q(q, d):
    assert _transform_error_bound(q, d) < 0.5


@pytest.mark.parametrize("d,first", [(4, 1483), (5, 293), (10, 17)])
def test_int64_route_from_the_stated_q(d, first):
    # the smallest prime at which neither transform route's bound is below
    # 1/2, as the README states; below it every prime takes a transform
    primes = [q for q in range(3, first + 1) if is_odd_prime(q)]
    assert [q for q in primes if _counts_route(q, d) == "int64"] == [first]


@pytest.mark.parametrize(
    "q,name", [(193, "paraboloid"), (283, "paraboloid"), (193, "poly:x1^2+x2^2+x3^2-x4*x5")]
)
def test_complex_route_where_the_real_bound_fails(q, name):
    # at d = 5 pocketfft's real transform of these lengths is direct or
    # pays sqrt(2) for Bluestein's, and only fft2's bound is below 1/2
    ctx = FieldCtx(q, 5)
    assert _transform_error_bound(q, 5) >= 0.5 > _transform_error_bound(q, 5, "complex")
    assert _transform_error_bound(q, 5, "matrix") >= 0.5 or q > _MATRIX_DFT_MAX_Q
    assert _counts_route(q, 5) == "complex"
    want = _int64_route_counts(ctx, build_variety(ctx, name).expr)
    with mock.patch.object(np.fft, "rfft2", side_effect=AssertionError):
        with mock.patch.object(np.fft, "fft2", side_effect=np.fft.fft2) as fft2:
            v = build_variety(ctx, name)
    assert fft2.call_count == 2
    assert np.array_equal(v.radius_counts, want)


def test_transform_route_error_far_below_its_bound():
    # only the transform route may run at (1009, 4); its unrounded output
    # lies within 1/100 of the bound of the nearest integers
    real_irfft2, unrounded = np.fft.irfft2, []

    def keep(*args, **kwargs):
        out = real_irfft2(*args, **kwargs)
        unrounded.append(out.copy())  # the caller rounds out in place
        return out

    with mock.patch.object(ffharm.varieties, "cyclic_convolve", side_effect=AssertionError):
        with mock.patch.object(np.fft, "irfft2", side_effect=keep):
            v = build_variety(FieldCtx(1009, 4), "paraboloid")
    assert v.cardinality == 1009**3
    (H,) = unrounded
    assert H.shape == (1009, 1009)
    assert np.abs(H - np.rint(H)).max() <= _transform_error_bound(1009, 4) / 100


def test_int64_route_past_the_bound():
    # 31^10 = 8.2e14 points: the bound rules the transform out
    ctx = FieldCtx(31, 10)
    assert _transform_error_bound(31, 10) >= 0.5
    with mock.patch.object(np.fft, "fft2", side_effect=AssertionError):
        with mock.patch.object(np.fft, "rfft2", side_effect=AssertionError):
            with mock.patch.object(ffharm.varieties, "_dft_matrix", side_effect=AssertionError):
                v = build_variety(ctx, "paraboloid")
    # on the paraboloid ||x|| = x_d^2 + x_d, and x_1..x_{d-1} lie on the
    # 9-dimensional sphere of radius x_d
    y = np.arange(31)
    want = np.zeros(31, dtype=np.int64)
    np.add.at(want, (y * y + y) % 31, sphere_sizes(FieldCtx(31, 9)))
    assert np.array_equal(v.radius_counts, want)


def test_broken_marginal_raises():
    # on the real route; test_broken_matrix_marginal_raises covers the
    # matrix route, which runs by default at q = 101
    real_irfft2 = np.fft.irfft2

    def off_by_one(*args, **kwargs):
        out = real_irfft2(*args, **kwargs)
        out[0, 0] += 1
        return out

    with mock.patch.object(ffharm.varieties, "_counts_route", return_value="real"):
        with mock.patch.object(np.fft, "irfft2", side_effect=off_by_one):
            with pytest.raises(RoundingMismatch):
                build_variety(FieldCtx(101, 3), "paraboloid")


def test_broken_matrix_marginal_raises():
    real_inverse = ffharm.varieties._matrix_irfft2

    def off_by_one(*args):
        out = real_inverse(*args)
        out[0, 0] += 1
        return out

    assert _counts_route(101, 3) == "matrix"
    with mock.patch.object(ffharm.varieties, "_matrix_irfft2", side_effect=off_by_one):
        with pytest.raises(RoundingMismatch):
            build_variety(FieldCtx(101, 3), "paraboloid")


# the forward transform of each route, as (module, name)
_FORWARD = {
    "matrix": (ffharm.varieties, "_matrix_rfft2"),
    "real": (np.fft, "rfft2"),
    "complex": (np.fft, "fft2"),
}


@pytest.mark.parametrize("route", ["matrix", "real", "complex"])
@pytest.mark.parametrize(
    "d,name,transforms",
    [
        (3, "paraboloid", 2),
        (4, "paraboloid", 2),
        (4, "poly:x1^2+x2^2-x3*x4", 2),
        (4, "poly:x1*x2+x3*x4-1", 1),
        (4, "poly:x1^2+x2^2+x3^2+x4^3", 2),
        (4, "poly:x1*x3+x2*x4", 1),
        (4, "poly:x1*x2+x3^2*x4", 2),
    ],
)
def test_one_transform_per_distinct_block(d, name, transforms, route):
    ctx = FieldCtx(101, d)
    want = _int64_route_counts(ctx, build_variety(ctx, name).expr)
    module, attr = _FORWARD[route]
    with mock.patch.object(ffharm.varieties, "_counts_route", return_value=route):
        with mock.patch.object(module, attr, side_effect=getattr(module, attr)) as forward:
            v = build_variety(ctx, name)
    assert forward.call_count == transforms
    assert np.array_equal(v.radius_counts, want)


@pytest.mark.parametrize("q", [3, 61, 211])
def test_matrix_transforms_match_pocketfft(q):
    table = np.random.default_rng(q).integers(0, 9, (q, q))
    dft = _dft_matrix(q)
    half = np.fft.rfft2(table)
    assert np.allclose(_matrix_rfft2(table, dft), half, rtol=0, atol=1e-9)
    assert np.allclose(_matrix_irfft2(half, dft), table, rtol=0, atol=1e-9)


@pytest.mark.parametrize("d,last", [(4, 211), (5, 139), (6, 67), (10, 13)])
def test_matrix_route_up_to_the_stated_q(d, last):
    # the matrix route's bound does not depend on numpy's FFT planner, so
    # the primes it takes are fixed by q and d: all of them up to last
    primes = [q for q in range(3, _MATRIX_DFT_MAX_Q + 50) if is_odd_prime(q)]
    assert [q for q in primes if _counts_route(q, d) == "matrix"] == [q for q in primes if q <= last]


def test_dft_matrix_within_its_weight_error():
    # against angles and roots in long double, which has a 64-bit
    # significand on x86-64; where it is double, this compares less
    pi = np.longdouble("3.14159265358979323846264338327950288")
    for q in (3, 61, _MATRIX_DFT_MAX_Q):
        m = np.arange(q)
        theta = -2 * pi * (np.outer(m, m) % q).astype(np.longdouble) / q
        err = np.hypot(
            (np.cos(theta) - _dft_matrix(q).real).astype(float),
            (np.sin(theta) - _dft_matrix(q).imag).astype(float),
        )
        assert err.max() <= _WEIGHT_ERROR


def test_matrix_route_error_far_below_its_bound():
    # the largest q and d the matrix route takes the paraboloid to; its
    # unrounded output lies within 1/100 of the bound of the integers
    real_inverse, unrounded = ffharm.varieties._matrix_irfft2, []

    def keep(*args):
        out = real_inverse(*args)
        unrounded.append(out.copy())  # the caller rounds out in place
        return out

    assert _counts_route(_MATRIX_DFT_MAX_Q, 4) == "matrix"
    with mock.patch.object(ffharm.varieties, "_matrix_irfft2", side_effect=keep):
        build_variety(FieldCtx(_MATRIX_DFT_MAX_Q, 4), "paraboloid")
    (H,) = unrounded
    assert np.abs(H - np.rint(H)).max() <= _transform_error_bound(_MATRIX_DFT_MAX_Q, 4, "matrix") / 100


def test_direct_pass_probe():
    # _direct_pass asks numpy whether a length runs by the direct O(q^2)
    # pass, from one symmetric input; a random symmetric input must get
    # the same answer at every prime the byte budget admits at d = 3
    rng = np.random.default_rng(0)

    def direct(q, transform):
        x = rng.standard_normal(q)
        x[1:] += x[1:][::-1].copy()
        return not transform(x).imag.any()

    largest = max(q for q in range(3, 10**4) if _route_bytes(q, 2, "real") <= 8 * GRID_BUDGET)
    for q in range(3, largest + 1):
        if is_odd_prime(q):
            assert _direct_pass(q, False) == direct(q, np.fft.fft), q
            assert _direct_pass(q, True) == direct(q, np.fft.rfft), q
    assert _direct_pass(3, False) and _direct_pass(3, True)
    assert not _direct_pass(largest, False) and not _direct_pass(largest, True)


def test_direct_pass_is_charged():
    # the bound charges the direct pass's sqrt(q) growth wherever the probe
    # reports it, so a direct pass at q = 1009 would leave no transform route
    assert _counts_route(1009, 4) == "real"
    with mock.patch.object(ffharm.varieties, "_direct_pass", return_value=True):
        assert _counts_route(1009, 4) == "int64"


def test_byte_budget_refuses_before_any_transform():
    # the bound admits the transform route at (20011, 3), but its arrays
    # would take about 13 GB; no block is enumerated and nothing transformed
    assert _transform_error_bound(20011, 3) < 0.5
    with mock.patch.object(ffharm.varieties, "_block_table", side_effect=AssertionError):
        with mock.patch.object(np.fft, "rfft2", side_effect=AssertionError):
            with pytest.raises(TooLarge, match=f"over the budget of {8 * GRID_BUDGET}"):
                build_variety(FieldCtx(20011, 3), "paraboloid")


@pytest.mark.parametrize("q,d", [(2003, 3), (1009, 4), (31, 10)])
def test_byte_budget_admits(q, d):
    assert _route_bytes(q, d, _counts_route(q, d)) <= 8 * GRID_BUDGET
    assert build_variety(FieldCtx(q, d), "paraboloid").cardinality == q ** (d - 1)


@pytest.mark.parametrize("src", ["x1^2+x2^2-x3", "x1^2+x2^2+x3^2-x4", "x1^3+x2^3-1"])
@pytest.mark.parametrize("route", ["matrix", "real", "complex", "int64"])
def test_route_bytes_bound_the_traced_peak(src, route):
    # one-variable blocks, so the enumeration holds O(q) points; numpy
    # reports its arrays to tracemalloc.  The slack, under one q x q table,
    # covers O(q) arrays and a ufunc's fixed casting buffer; the estimate is
    # at most twice the peak.
    import tracemalloc

    q = 211
    d = src.count("x")
    ctx, expr = FieldCtx(q, d), parse_poly(src, d)
    need = _route_bytes(q, len(_blocks(expr, d)[0]), route)
    with mock.patch.object(ffharm.varieties, "_counts_route", return_value=route):
        tracemalloc.start()
        try:
            _radius_counts(ctx, expr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert need / 2 <= peak <= need + 2**18


@pytest.mark.parametrize("name", ["paraboloid", "poly:x1^2+x2^2-x3*x4"])
def test_counts_past_the_grid_budget(name):
    ctx = FieldCtx(211, 4)
    assert ctx.size > GRID_BUDGET
    v = build_variety(ctx, name)
    if name == "paraboloid":
        assert v.cardinality == 211**3
    assert math.isfinite(rnorm_exact_22(v))


def test_builtin_cardinalities():
    assert build_variety(FieldCtx(3, 3), "paraboloid").cardinality == 9
    assert build_variety(FieldCtx(5, 3), "plane").cardinality == 25
    v = build_variety(FieldCtx(3, 3), "sphere:1")
    assert v.cardinality == enumerate_sphere(FieldCtx(3, 3), 1).cardinality


@pytest.mark.parametrize("q", [3, 5, 7, 11])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("name", ["paraboloid", "plane"])
def test_builtin_sizes_exact(q, d, name):
    v = build_variety(FieldCtx(q, d), name)
    assert v.cardinality == q ** (d - 1)
    assert v.size_ok


def test_custom_poly_matches_builtin():
    ctx = FieldCtx(5, 3)
    named = build_variety(ctx, "paraboloid")
    custom = build_variety(ctx, "poly:x1^2+x2^2-x3")
    assert np.array_equal(named.flat, custom.flat)


def test_zero_sphere_intersection_examples():
    ctx = FieldCtx(3, 3)
    plane = zero_sphere_intersection(build_variety(ctx, "plane"))
    assert plane.count == 3
    assert plane.passes
    assert abs(plane.threshold - 3 ** (5 / 3)) < 1e-12
    parab = zero_sphere_intersection(build_variety(ctx, "paraboloid"))
    assert parab.count == 5
    s0 = zero_sphere_intersection(build_variety(ctx, "sphere:0"))
    assert s0.count == 9
    assert not s0.passes


@pytest.mark.parametrize("q", [3, 5, 7, 11])
@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("name", ["paraboloid", "plane"])
def test_intersection_stays_sparse(q, d, name):
    report = zero_sphere_intersection(build_variety(FieldCtx(q, d), name))
    assert report.count <= 3 * q ** (d - 2)


def test_empty_variety_warns():
    ctx = FieldCtx(3, 2)
    with pytest.warns(EmptyVarietyWarning):
        v = build_variety(ctx, "poly:1")
    assert v.cardinality == 0
    assert not v.size_ok


def test_size_ok_flag_for_thin_variety():
    # single-point variety: far below q^{d-1} once q > 4
    ctx = FieldCtx(11, 2)
    v = build_variety(ctx, "sphere:0")  # only the origin for q = 3 mod 4
    assert v.cardinality == 1
    assert not v.size_ok
    assert v.contains_zero


def test_points_sorted_lexicographically():
    v = build_variety(FieldCtx(5, 3), "plane")
    assert (np.diff(v.flat) > 0).all()


@pytest.mark.parametrize("name", ["paraboloid", "plane", "sphere:2", "poly:x1*x2-x3^3+1"])
def test_every_point_satisfies_defining_polynomial(name):
    ctx = FieldCtx(7, 3)
    v = build_variety(ctx, name)
    on = np.zeros(ctx.size, dtype=bool)
    on[v.flat] = True
    for pt, member in zip(ctx.grid_points(), on):
        assert (eval_poly(v.expr, pt, ctx.q) == 0) == member
