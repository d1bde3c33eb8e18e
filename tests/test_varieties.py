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
from ffharm.field import GRID_BUDGET, cyclic_convolve, is_odd_prime
from ffharm.varieties import (
    Add,
    Lit,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _block_spectrum,
    _block_table,
    _blocks,
    _complete_squares,
    _distinct_blocks,
    _moduli,
    _pencil_counts,
    _quadric,
    _radius_counts,
    _route_bytes,
    paraboloid_expr,
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
    # counting enumerates no grid, so only the oracle is over budget
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


def _int64_counts(ctx, expr):
    """|V cap S_t| by the exact int64 convolution of the block tables: the oracle of _radius_counts."""
    blocks, constants = _blocks(expr, ctx.d)
    tables = sorted((_block_table(ctx, axes, terms) for axes, terms in blocks), key=np.count_nonzero)
    # densest first: the accumulator only grows denser, so it stays cyclic_convolve's shifted a
    joint = tables.pop()
    for table in tables:
        joint = cyclic_convolve(joint, table)
    c = sum(sign * eval_poly(term, (), ctx.q) for sign, term in constants)
    return joint[-c % ctx.q]


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
    assert np.array_equal(_radius_counts(ctx, expr), _int64_counts(ctx, expr))


# x1*x2*x3-1 is one block of q^3 points, so it stops at q = 211 (9.4e6
# points); at 401 the enumeration alone would hold several 0.5 GB arrays.
# From q = 233 the d = 4 counts need two moduli.
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
    assert np.array_equal(_radius_counts(ctx, expr), _int64_counts(ctx, expr))


@pytest.mark.parametrize("q,d", [(31, 10), (211, 6), (1009, 5), (1493, 4)])
def test_paraboloid_counts_match_closed_form(q, d):
    # on the paraboloid ||x|| = x_d^2 + x_d, and x_1..x_{d-1} lie on the
    # (d-1)-dimensional sphere of radius x_d; the pencil route builds it,
    # and the transform route takes two moduli on each case
    ctx = FieldCtx(q, d)
    y = np.arange(q)
    want = np.zeros(q, dtype=np.int64)
    np.add.at(want, (y * y + y) % q, sphere_sizes(FieldCtx(q, d - 1)))
    assert np.array_equal(build_variety(ctx, "paraboloid").radius_counts, want)
    assert np.array_equal(_radius_counts(ctx, paraboloid_expr(d)), want)


def _assert_moduli(q, bound):
    moduli = _moduli(q, bound)
    for p, w in moduli:
        assert is_odd_prime(p) and p % q == 1
        assert w != 1 and pow(w, q, p) == 1  # order q, as q is prime
        # a dot product of q residues within p/2 + 2 of 0, and the multiple
        # of p subtracted from it, are integers below 2^53: q (p/2 + 2)^2 + p < 2^53
        assert q * (p + 4) ** 2 + 4 * p < 2**55
    product = math.prod(p for p, _ in moduli)
    assert product > bound >= product // moduli[-1][0]


def test_moduli_at_every_q():
    # every prime the byte budget admits at d = 3, where max |S_t| = q^2 + q
    last = max(q for q in range(3, 10**4) if is_odd_prime(q) and _route_bytes(q, 1, 0) <= 8 * GRID_BUDGET)
    assert last == 4999
    for q in range(3, last + 1):
        if is_odd_prime(q):
            _assert_moduli(q, q * q + q)


@pytest.mark.parametrize(
    "q,d",
    [(1009, 3), (1009, 4), (2003, 3), (4001, 3), (3, 39), (31, 12), (211, 8), (1009, 6), (20011, 4)],
)
def test_transform_route_reaches_large_q(q, d):
    # q^d < 2^63 on each, so every count fits int64
    ctx = FieldCtx(q, d)
    ctx.check_int64_counts()
    _assert_moduli(q, int(sphere_sizes(ctx).max()))


def test_broken_marginal_raises():
    # an off-by-one in a column sum of the joint histogram
    real_crt = ffharm.varieties._crt

    def off_by_one(*args):
        out = real_crt(*args)
        out[1, 0] += 1
        return out

    with mock.patch.object(ffharm.varieties, "_crt", side_effect=off_by_one):
        with pytest.raises(RoundingMismatch, match="does not sum to the sphere sizes"):
            _radius_counts(FieldCtx(101, 3), paraboloid_expr(3))


@pytest.mark.parametrize("q,d", [(101, 3), (401, 4)])
def test_broken_spectrum_raises(q, d):
    # one entry off at xi = 1 leaves the column sums, which read the row
    # xi = 0 alone, as they are; the counts leave 0..|S_t|, under one
    # modulus at (101, 3) and two at (401, 4)
    real_spectrum = ffharm.varieties._block_spectrum

    def off_by_one(*args):
        out = real_spectrum(*args)
        out[1, 0] += 1
        return out

    with mock.patch.object(ffharm.varieties, "_block_spectrum", side_effect=off_by_one):
        with pytest.raises(RoundingMismatch, match="past their bound"):
            _radius_counts(FieldCtx(q, d), paraboloid_expr(d))


def test_too_few_moduli_raises():
    # the counts at (1009, 4) need two moduli; one leaves them wrapped
    real_moduli = ffharm.varieties._moduli
    assert len(real_moduli(1009, int(sphere_sizes(FieldCtx(1009, 4)).max()))) == 2
    with mock.patch.object(ffharm.varieties, "_moduli", side_effect=lambda *args: real_moduli(*args)[:-1]):
        with pytest.raises(RoundingMismatch):
            _radius_counts(FieldCtx(1009, 4), paraboloid_expr(4))


# q at which the d = 4 counts took each of the routes that the exact DFT
# replaced: a float DFT matrix, rfft2, fft2 and the int64 convolution.  At
# 211 the d = 4 counts need one modulus, from 233 two.
_EARLIER_ROUTE_Q = {"matrix": 211, "real": 401, "complex": 1423, "int64": 1483}


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
    # each modulus has its own transforms, but a block of two or more
    # variables is enumerated once; the oracle is too slow past q = 211
    q = _EARLIER_ROUTE_Q[route]
    ctx = FieldCtx(q, d)
    expr = paraboloid_expr(d) if name == "paraboloid" else parse_poly(name[5:], d)
    moduli = _moduli(q, int(sphere_sizes(ctx).max()))
    assert len(moduli) == (2 if d == 4 and q > 211 else 1)
    with mock.patch.object(ffharm.varieties, "_block_spectrum", side_effect=_block_spectrum) as forward:
        with mock.patch.object(ffharm.varieties, "_block_table", side_effect=_block_table) as tables:
            counts = _radius_counts(ctx, expr)
    assert forward.call_count == transforms * len(moduli)
    assert tables.call_count == sum(n > 1 for n, _ in _distinct_blocks(_blocks(expr, d)[0]))
    if q == 211:
        assert np.array_equal(counts, _int64_counts(ctx, expr))


def test_byte_budget_refuses_before_any_transform():
    # (20011, 3) has moduli, but its arrays would take about 13 GB; no
    # block is enumerated and nothing transformed (build_variety counts the
    # paraboloid through the pencil)
    with mock.patch.object(ffharm.varieties, "_block_table", side_effect=AssertionError):
        with mock.patch.object(ffharm.varieties, "_block_spectrum", side_effect=AssertionError):
            with pytest.raises(TooLarge, match=f"over the budget of {8 * GRID_BUDGET}"):
                _radius_counts(FieldCtx(20011, 3), paraboloid_expr(3))


def test_byte_budget_counts_the_block_enumeration():
    # x1*x2*x3-1 is one block of q^3 points: at q = 463 they fit the point
    # budget, but their int64 arrays would take about 3.2 GB; q = 211
    # builds (test_transform_route_matches_int64_route_at_scale)
    assert 463**3 <= GRID_BUDGET
    assert _route_bytes(211, 3, 1) <= 8 * GRID_BUDGET < _route_bytes(463, 3, 1)
    with mock.patch.object(ffharm.varieties, "_block_table", side_effect=AssertionError):
        with pytest.raises(TooLarge, match=f"over the budget of {8 * GRID_BUDGET}"):
            build_variety(FieldCtx(463, 3), "poly:x1*x2*x3-1")


@pytest.mark.parametrize("q,d", [(2003, 3), (1009, 4), (31, 10)])
def test_byte_budget_admits(q, d):
    assert _route_bytes(q, 1, 0) <= 8 * GRID_BUDGET
    assert _radius_counts(FieldCtx(q, d), paraboloid_expr(d)).sum() == q ** (d - 1)


@pytest.mark.parametrize("src", ["x1^2+x2^2-x3", "x1^2+x2^2+x3^2-x4", "x1^3+x2^3-1", "x1^2+x2^2-x3*x4"])
@pytest.mark.parametrize("route", ["matrix", "real", "complex", "int64"])
def test_route_bytes_bound_the_traced_peak(src, route):
    # numpy reports its arrays to tracemalloc.  The slack, under one q x q
    # table, covers O(q) arrays and a ufunc's fixed casting buffer; the
    # estimate is at most twice the peak.
    import tracemalloc

    q = _EARLIER_ROUTE_Q[route]
    d = src.count("x")
    ctx, expr = FieldCtx(q, d), parse_poly(src, d)
    blocks = _blocks(expr, d)[0]
    kept = sum(n > 1 for n, _ in _distinct_blocks(blocks))
    need = _route_bytes(q, max(len(axes) for axes, _ in blocks), kept)
    tracemalloc.start()
    try:
        _radius_counts(ctx, expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need / 2 <= peak <= need + 2**18


def test_route_bytes_count_every_kept_table():
    # x1*x2+x3^2*x4 keeps two q x q int64 tables through the transforms, so
    # its traced peak is about six tables: past an estimate that leaves out
    # the 8 q^2 per kept table (four tables) or counts it once (five)
    import tracemalloc

    q, d = 401, 4
    ctx, expr = FieldCtx(q, d), parse_poly("x1*x2+x3^2*x4", d)
    assert [n for n, _ in _distinct_blocks(_blocks(expr, d)[0])] == [2, 2]
    tracemalloc.start()
    try:
        _radius_counts(ctx, expr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 40 * q * q + 2**18 < peak <= _route_bytes(q, 2, 2) + 2**18


def test_byte_budget_refuses_the_null_cone_past_4463():
    # 40 q^2 bytes: four transform arrays beside the one kept table; the
    # enumeration of the two-variable block, 32 q^2, ends before them
    assert _route_bytes(4463, 2, 1) <= 8 * GRID_BUDGET < _route_bytes(4481, 2, 1)
    with mock.patch.object(ffharm.varieties, "_block_table", side_effect=AssertionError):
        with pytest.raises(TooLarge, match=f"over the budget of {8 * GRID_BUDGET}"):
            _radius_counts(FieldCtx(4481, 4), parse_poly("x1^2+x2^2-x3*x4", 4))


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


# ---------------------------------------------------------------------------
# Quadrics through the pencil P + lambda ||x||


def _flat_counts(v):
    """|V cap S_t| from the points of V on the whole grid: the oracle of both routes."""
    return np.bincount(v.ctx.grid_norms()[v.flat], minlength=v.ctx.q)


def _pencil_build(ctx, spec):
    """build_variety with the transform route forbidden, so a quadric takes the pencil."""
    with mock.patch.object(ffharm.varieties, "_radius_counts", side_effect=AssertionError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmptyVarietyWarning)
            return build_variety(ctx, spec)


@st.composite
def _quadric_on_grid(draw):
    """Random symmetric A, b and c as a polynomial, at q <= 13, d <= 5 and q^d <= 2e5."""
    q = draw(st.sampled_from([3, 5, 7, 11, 13]))
    d = draw(st.integers(min_value=2, max_value=max(k for k in range(2, 6) if q**k <= 2 * 10**5)))
    coefficient = st.integers(min_value=0, max_value=q - 1)
    expr = Lit(draw(coefficient))
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            expr = Add(expr, Mul(Lit(draw(coefficient)), Mul(Var(i), Var(j))))
        expr = Add(expr, Mul(Lit(draw(coefficient)), Var(i)))
    return q, d, expr


@settings(max_examples=300, deadline=None)
@given(_quadric_on_grid())
@example((3, 2, Lit(0)))
@example((13, 4, parse_poly("x1*x2+x2*x3+x3*x4", 4)))
@example((5, 5, parse_poly("x1^2+x2^2+x3^2+x4^2+x5^2", 5)))
def test_pencil_route_matches_enumeration(case):
    q, d, expr = case
    v = _pencil_build(FieldCtx(q, d), expr)
    assert np.array_equal(v.radius_counts, _flat_counts(v))


def _det(M):
    """The determinant of a small integer matrix by cofactor expansion."""
    if not M:
        return 1
    return sum((-1) ** k * M[0][k] * _det([row[:k] + row[k + 1 :] for row in M[1:]]) for k in range(len(M)))


# quadrics whose pencil A + lambda I drops rank at several lambda, each
# minus an eigenvalue of A over F_q: to rank 0 (A = I at lambda = -1), with
# the linear part on the kernel (every value taken q^(d-1) times) or off it,
# and with only cross terms left to diagonalize
_ROOT_CASES = [
    (7, 3, "x1^2+x2^2+2*x3^2"),
    (7, 3, "x1^2+x2^2+2*x3^2+x3-1"),
    (7, 3, "x1^2+x2^2+2*x3^2+x1"),
    (5, 4, "x1*x2+x2*x3+x3*x4"),
    (7, 4, "x1^2+x2^2-x3*x4+x4"),
    (3, 4, "x1^2+x2^2+x3^2+x4^2"),
    (5, 3, "x1^2+x2^2+x3^2-1"),
    (5, 3, "x1*x2+x3^2+x1-2"),
    (11, 4, "x1^2-x2^2+x3*x4+3*x4+2"),
    (13, 3, "x1*x2+x2*x3+x1*x3"),
    # singular at lambda = 0 with no square left: x1 + x2 replaces x1
    (7, 3, "x1*x2+x1"),
    (5, 3, "x1*x2+x2*x3+x1-x3+2"),
]


@pytest.mark.parametrize("q,d,src", _ROOT_CASES)
def test_pencil_at_every_minus_eigenvalue(q, d, src):
    ctx = FieldCtx(q, d)
    S, b, c = _quadric(parse_poly(src, d), d, q)
    roots = [lam for lam in range(q) if _det([[s + 2 * lam * (i == j) for j, s in enumerate(row)] for i, row in enumerate(S)]) % q == 0]
    assert roots
    with mock.patch.object(ffharm.varieties, "_complete_squares", side_effect=_complete_squares) as squares:
        v = _pencil_build(ctx, "poly:" + src)
    # one diagonalization per lambda with det(A + lambda I) = 0, at A + lambda I itself
    h = pow(2, -1, q)
    assert [call.args[0] for call in squares.call_args_list] == [
        [[(s * h + lam * (i == j)) % q for j, s in enumerate(row)] for i, row in enumerate(S)] for lam in roots
    ]
    assert np.array_equal(v.radius_counts, _flat_counts(v))


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize(
    "name", ["paraboloid", "plane", "sphere:0", "sphere:1", "poly:x1^2+x2^2-x3*x4", "poly:x1*x2+x2*x3+x3*x4-1"]
)
def test_pencil_route_at_q_at_most_d(name, d):
    # Faddeev-LeVerrier divides by k = 1..d over Z, never mod q
    v = _pencil_build(FieldCtx(3, d), name)
    assert np.array_equal(v.radius_counts, _flat_counts(v))


@pytest.mark.parametrize("q,d", [(3, 2), (5, 3), (7, 4), (3, 5)])
@pytest.mark.parametrize("src", ["0", "1", "x1-x1", "2^40", "(x1+x2)^0-1"])
def test_pencil_route_on_constants(q, d, src):
    ctx = FieldCtx(q, d)
    v = _pencil_build(ctx, "poly:" + src)
    want = sphere_sizes(ctx) if eval_poly(v.expr, (0,) * d, q) == 0 else np.zeros(q, dtype=np.int64)
    assert np.array_equal(v.radius_counts, want)
    assert np.array_equal(v.radius_counts, _flat_counts(v))


@pytest.mark.parametrize("q,d", [(5, 3), (7, 3), (7, 4), (3, 5)])
@pytest.mark.parametrize(
    "src",
    ["x1^2+x2-x1^2", "x1*x2-x2*x1+x3-1", "(x1+x2)^2-x1^2-2*x1*x2-x2^2+1", "21*x1^2+x2+x3", "(2*x1-x2)*3-x1", "(x2+1)^2-x2^2"],
)
def test_pencil_route_on_quadrics_that_cancel_to_degree_one(q, d, src):
    v = _pencil_build(FieldCtx(q, d), "poly:" + src)
    assert np.array_equal(v.radius_counts, _flat_counts(v))


def test_route_follows_the_degree():
    # a product adds degrees and a power multiplies them; degree 3 and up
    # takes the transform route even where terms cancel
    assert _quadric(parse_poly("x1^2+x2^2-x3", 3), 3, 7) is not None
    assert _quadric(parse_poly("(x1+x2)^2*1-x3^0", 3), 3, 7) is not None
    assert _quadric(parse_poly("x1^3+x2^3-1", 3), 3, 7) is None
    assert _quadric(parse_poly("x1*x2*x3-x1*x2*x3", 3), 3, 7) is None
    assert _quadric(parse_poly("x1*(x2+1)^2", 3), 3, 7) is None
    ctx = FieldCtx(7, 3)
    with mock.patch.object(ffharm.varieties, "_pencil_counts", side_effect=AssertionError):
        v = build_variety(ctx, "poly:x1^3+x2^3-1")
    assert np.array_equal(v.radius_counts, _flat_counts(v))


# the quadrics of test_restriction's _VARIETIES, the null cone, and chained
# quadrics the transform route admits: x1*x2+x2*x3-1 is one block of q^3
# points, past the byte budget from q = 293
_PENCIL_AT_SCALE = [
    (q, d, name)
    for q in (101, 211, 401)
    for d, name in [
        (2, "sphere:0"),
        (2, "plane"),
        (2, "sphere:1"),
        (3, "paraboloid"),
        (3, "sphere:2"),
        (3, "poly:x1*x2-1"),
        (4, "plane"),
        (4, "poly:x1^2+x2^2-x3*x4"),
        (4, "poly:x1*x2+x3*x4-1"),
        (4, "poly:x1^2-x2^2+x3*x4+x1+x3"),
    ]
] + [(q, 3, "poly:x1*x2+x2*x3-1") for q in (101, 211)]


@pytest.mark.parametrize("q,d,name", _PENCIL_AT_SCALE)
def test_pencil_route_matches_transform_route(q, d, name):
    ctx = FieldCtx(q, d)
    v = _pencil_build(ctx, name)
    assert np.array_equal(v.radius_counts, _radius_counts(ctx, v.expr))


def test_pencil_route_in_python_ints_past_int64_partial_sums():
    # (d + 3) q^d >= 2^63 at (3, 39): the terms are summed as Python ints
    ctx = FieldCtx(3, 39)
    assert (39 + 3) * 3**39 >= 2**63 > 3**39
    v = _pencil_build(ctx, "paraboloid")
    assert np.array_equal(v.radius_counts, _radius_counts(ctx, v.expr))
    assert v.cardinality == 3**38


def test_pencil_route_holds_o_of_q_bytes_at_odd_d():
    # the odd-d correlation reads its q x q circulant through a sliding
    # window; one q x q int64 table would take 128 MB at q = 4001
    import tracemalloc

    q = 4001
    ctx = FieldCtx(q, 3)
    tracemalloc.start()
    try:
        v = _pencil_build(ctx, "paraboloid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.cardinality == q * q
    assert peak < 256 * q


def test_pencil_chained_quadric_past_the_grid_budget():
    # one block of all four variables: 1009^4 points, which the transform
    # route refuses from q = 101
    ctx = FieldCtx(1009, 4)
    with pytest.raises(TooLarge):
        _radius_counts(ctx, parse_poly("x1*x2+x2*x3+x3*x4", 4))
    v = _pencil_build(ctx, "poly:x1*x2+x2*x3+x3*x4")
    assert v.radius_counts.sum() == v.cardinality
    assert (v.radius_counts <= sphere_sizes(ctx)).all()


def test_pencil_remainder_raises():
    # a count off by one leaves a sum not divisible by q
    real = ffharm.varieties.sphere_sizes

    def off_by_one(ctx):
        out = real(ctx).copy()
        out[1] += 1
        return out

    with mock.patch.object(ffharm.varieties, "sphere_sizes", side_effect=off_by_one):
        with pytest.raises(RoundingMismatch, match="not counts of points"):
            _pencil_counts(FieldCtx(101, 3), *_quadric(paraboloid_expr(3), 3, 101))
