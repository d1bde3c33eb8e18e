import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffharm.spheres
from ffharm import (
    DimensionMismatch,
    FieldCtx,
    TooLarge,
    enumerate_sphere,
    eta,
    gauss,
    inv,
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
from ffharm.field import cyclic_convolve, is_odd_prime
from ffharm.spheres import (
    _class_table,
    _closed_tail,
    _kernel_at,
    _line_pair_chunks,
    _lines,
    _pair_class,
)


def test_enumeration_examples():
    assert enumerate_sphere(FieldCtx(3, 2), 1).cardinality == 4
    assert enumerate_sphere(FieldCtx(3, 2), 0).cardinality == 1
    assert enumerate_sphere(FieldCtx(3, 3), 0).cardinality == 9


def test_points_lie_on_sphere_without_duplicates():
    ctx = FieldCtx(5, 3)
    for j in range(5):
        s = enumerate_sphere(ctx, j)
        norms = (s.points**2).sum(axis=1) % 5
        assert (norms == j).all()
        assert len(np.unique(s.flat)) == s.cardinality


def test_naive_ft_examples():
    ctx = FieldCtx(3, 2)
    s1 = enumerate_sphere(ctx, 1)
    assert abs(sphere_ft_naive(s1, (0, 0)) - 4) < 1e-12
    assert abs(sphere_ft_naive(s1, (1, 1)) - (-2)) < 1e-12
    ctx53 = FieldCtx(5, 3)
    s2 = enumerate_sphere(ctx53, 2)
    assert abs(sphere_ft_naive(s2, (0, 0, 0)) - s2.cardinality) < 1e-12


def test_naive_ft_dimension_check():
    s = enumerate_sphere(FieldCtx(3, 2), 1)
    with pytest.raises(DimensionMismatch):
        sphere_ft_naive(s, (1, 1, 1))


def test_closed_ft_examples():
    ctx = FieldCtx(3, 2)
    assert abs(sphere_ft_closed(ctx, 1, (1, 1)) - (-2)) < 1e-9
    assert abs(sphere_ft_closed(ctx, 1, (0, 0)) - 4) < 1e-9
    # d = 4, j = 0: away from the null cone the magnitude is exactly q^{(d-2)/2}
    ctx4 = FieldCtx(3, 4)
    val = sphere_ft_closed(ctx4, 0, (1, 0, 0, 0))
    assert abs(abs(val) - 3.0) < 1e-9


@pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (5, 3)])
def test_closed_matches_naive_exhaustively(q, d):
    max_err, first_bad = verify_closed_form(FieldCtx(q, d))
    assert first_bad is None
    assert max_err < 1e-6


def test_grid_routes_match_single_point_routes():
    ctx = FieldCtx(5, 2)
    s = enumerate_sphere(ctx, 3)
    grid_naive = sphere_ft_naive_grid(s)
    grid_closed = sphere_ft_closed_grid(ctx, 3)
    pts = ctx.grid_points()
    for idx in (0, 7, 13, 24):
        assert abs(grid_naive[idx] - sphere_ft_naive(s, pts[idx])) < 1e-12
        assert abs(grid_closed[idx] - sphere_ft_closed(ctx, 3, pts[idx])) < 1e-12


def test_count_closed_examples():
    assert sphere_count_closed(FieldCtx(3, 2), 1) == 4
    assert sphere_count_closed(FieldCtx(3, 3), 0) == 9
    ctx = FieldCtx(5, 3)
    assert sphere_count_closed(ctx, 1) == enumerate_sphere(ctx, 1).cardinality


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_cardinality_near_hypersurface_size(q, d):
    sizes = sphere_sizes(FieldCtx(q, d))
    hyp = q ** (d - 1)
    assert (sizes >= hyp / 2).all()
    assert (sizes <= 2 * hyp).all()


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_sphere_sizes_match_enumeration_and_closed_form(q, d):
    ctx = FieldCtx(q, d)
    sizes = sphere_sizes(ctx)
    assert sizes.dtype == np.int64
    assert np.array_equal(sizes, np.bincount(ctx.grid_norms(), minlength=q))
    assert sizes.tolist() == [sphere_count_closed(ctx, j) for j in range(q)]


@pytest.mark.parametrize("q,d", [(3, 3), (3, 4), (5, 3), (5, 4)])
def test_decay_bounds(q, d):
    ctx = FieldCtx(q, d)
    for j in range(q):
        vals = np.abs(sphere_ft_closed_grid(ctx, j))[1:]  # x != 0
        if d % 2 == 1 or j != 0:
            assert vals.max() <= 3 * q ** ((d - 1) / 2) + 1e-6
        else:
            assert vals.max() <= 3 * q ** (d / 2) + 1e-6


def test_ft_at_zero_equals_cardinality():
    for q, d in [(3, 2), (3, 5), (7, 3)]:
        ctx = FieldCtx(q, d)
        for j in range(q):
            s = enumerate_sphere(ctx, j)
            assert abs(sphere_ft_closed(ctx, j, [0] * d) - s.cardinality) < 1e-6


def test_budget_guard():
    with pytest.raises(TooLarge):
        enumerate_sphere(FieldCtx(101, 5), 0)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_completed_square_identity(q):
    # per-coordinate step behind the closed form:
    # sum_m chi(s m^2 - x m) = chi(-x^2/(4s)) eta(s) G_1
    ctx = FieldCtx(q, 2)
    chi = ctx.chi_values
    G1 = gauss(ctx, 1)
    m = np.arange(q)
    for s in range(1, q):
        inv4s = inv(ctx, (4 * s) % q)
        for x in range(q):
            lhs = chi[(s * m * m - x * m) % q].sum()
            rhs = chi[(-x * x * inv4s) % q] * eta(ctx, s) * G1
            assert abs(lhs - rhs) < 1e-9


def _check_kernel_rows(ctx, rows):
    """The float64 kernel is the real part of the complex scalar closed form on rows."""
    q = ctx.q
    K = sphere_ft_kernel(ctx)
    assert K.dtype == np.float64 and K.shape == (q, q)
    oracle = np.array([[_closed_tail(ctx, j, t) for t in range(q)] for j in rows])
    scale = float(np.abs(K).max())
    assert np.abs(oracle.imag).max() < 1e-13 * scale
    assert np.abs(K[rows] - oracle.real).max() < 1e-13 * scale


@pytest.mark.parametrize("q", [3, 5, 7, 11])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kernel_matches_scalar_closed_tail(q, d):
    # even d is the Kloosterman branch, odd d the Salie branch
    ctx = FieldCtx(q, d)
    _check_kernel_rows(ctx, range(q))


# d = 2..5, q = 1 (mod 4) and q = 3 (mod 4), where G^d is real or imaginary;
# one row at q = 1009 in both branches, where a row of the scalar oracle takes 0.2 s
@pytest.mark.parametrize(
    "q,d",
    [(7, 3), (11, 2), (13, 4), (17, 5), (19, 3), (29, 2), (31, 4), (37, 3), (41, 4), (43, 5)]
    + [(1009, 3), (1009, 4)],
)
def test_kernel_is_the_real_part_of_the_closed_tail(q, d):
    _check_kernel_rows(FieldCtx(q, d), range(q) if q < 1009 else [1])


_PRIMES_TO_211 = [q for q in range(3, 212) if is_odd_prime(q)]


@pytest.mark.parametrize("q", _PRIMES_TO_211)
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_kernel_matches_the_dense_product(q, d, dense_kernel):
    # rows 0 and 1 and a gather against every row by one O(q^3) product
    ctx = FieldCtx(q, d)
    K, dense = sphere_ft_kernel(ctx), dense_kernel(ctx)
    assert K.dtype == np.float64 and K.shape == (q, q)
    assert np.abs(K - dense).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 101, 211, 1009])
@pytest.mark.parametrize("d", [3, 5])
def test_odd_kernel_vanishes_where_jt_is_a_nonsquare(q, d):
    # S(a, b) = eta(a) G sum_{y^2 = ab} chi(2y) is 0 when ab is a nonsquare
    ctx = FieldCtx(q, d)
    K = sphere_ft_kernel(ctx)
    field = np.arange(q)
    nonsquare = ctx.eta_values[np.outer(field, field) % q] == -1
    assert nonsquare.sum() == (q - 1) ** 2 // 2
    assert np.abs(K[nonsquare]).max() < 1e-13 * np.abs(K).max()


@pytest.mark.parametrize("q,d", [(3, 2), (5, 3), (7, 4), (11, 3), (13, 5)])
def test_closed_grid_is_the_kernel_row_at_each_norm(q, d, dense_kernel):
    ctx = FieldCtx(q, d)
    dense = dense_kernel(ctx)
    for j in range(-1, q):
        want = dense[j % q][ctx.grid_norms()]
        want[0] += q ** (d - 1)
        assert np.abs(sphere_ft_closed_grid(ctx, j) - want).max() <= 1e-13 * np.abs(dense).max()


@pytest.mark.parametrize("q,d", [(1009, 8), (1009, 7), (211, 9)])
def test_sphere_sizes_refuse_int64_overflow(q, d):
    # q^d >= 2^63: |S_0| at (1009, 8) is 1064726746914215548801, past int64
    with pytest.raises(TooLarge):
        sphere_sizes(FieldCtx(q, d))


def test_sphere_sizes_exact_below_int64_limit():
    q, d = 1009, 6
    assert q**d < 2**63
    sizes = sphere_sizes(FieldCtx(q, d))
    # even d, eta((-1)^(d/2)) = eta(-1) = 1 as q = 1 mod 4:
    # |S_0| = q^(d-1) + (q-1) q^((d-2)/2) and |S_j| = q^(d-1) - q^((d-2)/2)
    assert int(sizes[0]) == q**5 + (q - 1) * q**2
    assert (sizes[1:] == q**5 - q**2).all()


def _sphere_sizes_by_convolution(ctx):
    """|S_j| counts d-tuples of squares summing to j: the d-fold cyclic
    convolution of the histogram of m^2 mod q, exact in int64."""
    q = ctx.q
    squares = np.bincount(np.arange(q, dtype=np.int64) ** 2 % q, minlength=q)
    sizes = squares
    for _ in range(ctx.d - 1):
        sizes = cyclic_convolve(sizes, squares)
    return sizes


# every odd prime q <= 23 with d in 2..9, then pairs near q^d = 2^63
_SIZE_CASES = [(q, d) for q in (3, 5, 7, 11, 13, 17, 19, 23) for d in range(2, 10)] + [
    (1009, 6), (1013, 6), (7, 22), (3, 39),
]


@pytest.mark.parametrize("q,d", _SIZE_CASES)
def test_closed_form_sphere_sizes_match_convolution(q, d):
    ctx = FieldCtx(q, d)
    assert ctx.size < 2**63
    sizes = sphere_sizes(ctx)
    assert sizes.dtype == np.int64
    assert np.array_equal(sizes, _sphere_sizes_by_convolution(ctx))


# ---------------------------------------------------------------------------
# the counted brute-force route against the term-by-term one

# every (q, d) with q^{2d} <= 10^9 for q in {3, 5, 7, 11, 13}, d in 2..5
_COUNTED_CASES = [
    (q, d) for q in (3, 5, 7, 11, 13) for d in range(2, 6) if q ** (2 * d) <= 10**9
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_COUNTED_CASES), st.integers(0, 12))
def test_counted_route_matches_naive_grid(case, j):
    q, d = case
    s = enumerate_sphere(FieldCtx(q, d), j % q)
    counted = sphere_ft_counted(s)
    assert counted.shape == (q**d,) and counted.dtype == np.complex128
    assert np.abs(counted - sphere_ft_naive_grid(s)).max() < 1e-11


@pytest.mark.parametrize("q,d", [(3, 2), (5, 3), (7, 3), (3, 5)])
def test_counted_route_matches_naive_grid_for_every_j(q, d):
    ctx = FieldCtx(q, d)
    for j in range(q):
        s = enumerate_sphere(ctx, j)
        assert np.abs(sphere_ft_counted(s) - sphere_ft_naive_grid(s)).max() < 1e-11


@pytest.mark.parametrize("q,d", [(3, 2), (3, 4), (5, 3), (7, 2), (7, 4), (11, 3)])
def test_lines_cover_every_nonzero_x_once(q, d):
    ctx = FieldCtx(q, d)
    reps, flat = _lines(ctx)
    assert reps.shape == ((q**d - 1) // (q - 1), d) and flat.shape == (len(reps), q - 1)
    # first nonzero coordinate 1, lex order
    assert (reps[np.arange(len(reps)), np.argmax(reps != 0, axis=1)] == 1).all()
    rep_flat = [ctx.flat_index(r) for r in reps]
    assert rep_flat == sorted(rep_flat) and np.array_equal(flat[:, 0], rep_flat)
    # row i holds lambda x'_i at column lambda - 1, and every x != 0 appears once
    pts = ctx.grid_points()
    for lam in range(1, q):
        assert np.array_equal(pts[flat[:, lam - 1]], (lam * reps) % q)
    assert np.array_equal(np.sort(flat.ravel()), np.arange(1, q**d))


# ---------------------------------------------------------------------------
# verify_closed_form against the per-j loop it replaced


def _verify_per_j(ctx):
    """The per-j loop verify_closed_form ran before the counted route.

    It compares the term-by-term brute force with a closed-form grid whose
    kernel table is rebuilt for every j, read through the module attribute
    ``ffharm.spheres.sphere_ft_kernel`` as ``verify_closed_form`` reads it.
    Only its failure rule is the new one: an error that is not at most
    CLOSED_FORM_TOL (NaN included) fails.
    """
    errors = []
    first_bad = None
    for j in range(ctx.q):
        naive = sphere_ft_naive_grid(enumerate_sphere(ctx, j))
        closed = ffharm.spheres.sphere_ft_kernel(ctx)[j][ctx.grid_norms()]
        closed[0] += ctx.q ** (ctx.d - 1)  # the origin
        err = np.abs(naive - closed)
        errors.append(err.max())
        bad = ~(err <= ffharm.spheres.CLOSED_FORM_TOL)
        if first_bad is None and bad.any():
            first_bad = (j, tuple(int(c) for c in ctx.grid_points()[int(np.argmax(bad))]))
    return float(np.max(errors)), first_bad


_VERIFY_CASES = [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (3, 4), (7, 3)]


@pytest.mark.parametrize("q,d", _VERIFY_CASES)
def test_verify_matches_per_j_loop(q, d):
    ctx = FieldCtx(q, d)
    max_err, first_bad = verify_closed_form(ctx)
    want_err, want_bad = _verify_per_j(ctx)
    assert first_bad is None and want_bad is None
    assert max_err < 1e-12 and want_err < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(_VERIFY_CASES), st.integers(0, 2**32 - 1), st.sampled_from(["shift", "nan"])
)
def test_tampered_kernel_fails_both_routes_at_the_same_point(case, seed, kind):
    q, d = case
    ctx = FieldCtx(q, d)
    rng = np.random.default_rng(seed)
    j, t = (int(a) for a in rng.integers(0, q, size=2))
    shift = 1e-3 if rng.random() < 0.5 else -1e-3  # the kernel is real
    real_kernel = ffharm.spheres.sphere_ft_kernel

    def tampered(ctx):
        K = real_kernel(ctx)
        K[j, t] = np.nan if kind == "nan" else K[j, t] + shift
        return K

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffharm.spheres, "sphere_ft_kernel", tampered)
        max_err, first_bad = verify_closed_form(ctx)
        want_err, want_bad = _verify_per_j(ctx)
    # only row j changed, and the first x it reaches is the first of norm t
    # (the origin when t = 0)
    x = ctx.grid_points()[int(np.argmax(ctx.grid_norms() == t))]
    assert first_bad == want_bad == (j, tuple(int(c) for c in x))
    if kind == "nan":
        assert math.isnan(max_err) and math.isnan(want_err)
    else:
        assert abs(max_err - 1e-3) < 1e-9 and abs(want_err - 1e-3) < 1e-9


def test_verify_fails_on_a_nan_brute_force_value(monkeypatch):
    # a NaN on the brute-force side is a failure too, never a pass
    real_chunks = ffharm.spheres._line_pair_chunks

    def with_nan(ctx):
        for flat, values in real_chunks(ctx):
            values[flat == 7, 2] = np.nan
            yield flat, values

    monkeypatch.setattr(ffharm.spheres, "_line_pair_chunks", with_nan)
    ctx = FieldCtx(3, 2)
    max_err, first_bad = verify_closed_form(ctx)
    assert math.isnan(max_err)
    assert first_bad == (2, tuple(int(c) for c in ctx.grid_points()[7]))


def test_first_bad_is_the_smallest_j_then_the_first_x(monkeypatch):
    # one line per chunk at (5, 3): flat 100 = (4, 0, 0) lies on the line
    # of (1, 0, 0), which comes before the line of (1, 3, 0) = flat 40
    real_chunks = ffharm.spheres._line_pair_chunks
    shifted = {(3, 1), (2, 100), (2, 40)}

    def with_errors(ctx):
        for flat, values in real_chunks(ctx):
            for j, x in shifted:
                values[flat == x, j] += 1.0
            yield flat, values

    monkeypatch.setattr(ffharm.fourier, "NAIVE_BUDGET", 1)
    monkeypatch.setattr(ffharm.spheres, "_line_pair_chunks", with_errors)
    ctx = FieldCtx(5, 3)
    max_err, first_bad = verify_closed_form(ctx)
    assert abs(max_err - 1.0) < 1e-9
    assert first_bad == (2, (1, 3, 0))


# ---------------------------------------------------------------------------
# every radius at once, from pairs of lines, against the counted route

# every (q, d) with q^{2d-1} <= 10^7 for q in {3, 5, 7, 11, 13}, d in 2..5
_LINE_PAIR_CASES = [
    (q, d) for q in (3, 5, 7, 11, 13) for d in range(2, 6) if q ** (2 * d - 1) <= 10**7
]


def _line_pair_table(ctx):
    """The q x q^d table T[j, x] that _line_pair_chunks yields, each x once."""
    out = np.full((ctx.q, ctx.size), np.nan)
    for flat, values in _line_pair_chunks(ctx):
        assert values.shape == (len(flat), ctx.q) and values.dtype == np.float64
        assert np.isnan(out[:, flat]).all()
        out[:, flat] = values.T
    return out


@pytest.mark.parametrize("q,d", _LINE_PAIR_CASES)
def test_line_pair_route_matches_counted_route(q, d):
    ctx = FieldCtx(q, d)
    counted = np.stack([sphere_ft_counted(enumerate_sphere(ctx, j)) for j in range(q)])
    assert np.abs(_line_pair_table(ctx) - counted).max() < 1e-11  # a NaN fails


def test_line_pair_cases_cover_both_residues_mod_4():
    assert {q % 4 for q, _ in _LINE_PAIR_CASES} == {1, 3}
    assert {d for _, d in _LINE_PAIR_CASES} == {2, 3, 4, 5}


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
def test_class_rows_are_the_line_sums(q):
    # sum_{mu in F_q^*, mu^2 n = j} chi(-mu t), summed directly, at every (n, t)
    ctx = FieldCtx(q, 2)
    table = _class_table(ctx)
    assert table.shape == (q + 3, q)
    n, t = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    classes = _pair_class(ctx, n, t)
    assert set(classes.ravel().tolist()) == set(range(q + 3))
    for a in range(q):
        for b in range(q):
            direct = np.zeros(q, dtype=np.complex128)
            for mu in range(1, q):
                direct[mu * mu * a % q] += cmath.exp(-2j * cmath.pi * mu * b / q)
            assert np.abs(direct.imag).max() < 1e-12
            assert np.abs(table[classes[a, b]] - direct.real).max() < 1e-12


def test_verify_holds_no_table_over_every_x():
    # a q x q^d float64 table at (211, 2) would take 75 MB
    import tracemalloc

    ctx = FieldCtx(211, 2)
    tracemalloc.start()
    try:
        max_err, first_bad = verify_closed_form(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first_bad is None and max_err < 1e-12
    assert peak < 16e6


def test_kernel_rows_hold_no_q_by_q_table():
    # a (q - 1)/2 x q index table and its gathers at (2003, 3) would take 80 MB
    import tracemalloc

    ctx = FieldCtx(2003, 3)
    tracemalloc.start()
    try:
        row = _kernel_at(ctx, 1, np.arange(ctx.q))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.shape == (ctx.q,)
    assert peak < 1e6


def test_kernel_table_holds_one_table_at_peak():
    # a q x q int64 gather index beside the q x q float64 table doubled the
    # peak: 16.4 MB for the 8.1 MB table at (1009, 3)
    import tracemalloc

    ctx = FieldCtx(1009, 3)
    tracemalloc.start()
    try:
        K = sphere_ft_kernel(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.nbytes <= peak < K.nbytes + 2**21


@pytest.mark.parametrize("q,d", [(401, 3), (401, 4), (1009, 3)])
def test_kernel_gathered_in_blocks_matches_its_rows(q, d):
    # the table spans several blocks of rows; each single row is one block
    ctx = FieldCtx(q, d)
    field = np.arange(q)
    K = sphere_ft_kernel(ctx)
    assert np.array_equal(K, np.stack([_kernel_at(ctx, j, field) for j in range(q)]))
    assert np.array_equal(K.T, _kernel_at(ctx, field, field[:, None]))
