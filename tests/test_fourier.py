import cmath
import itertools

import numpy as np
import pytest

from ffharm import (
    DimensionMismatch,
    FieldCtx,
    GridFunction,
    Side,
    SideMismatch,
    enumerate_sphere,
    ft_fast,
    ft_naive,
    ift,
    sphere_ft_counted,
    sphere_ft_naive_grid,
)
from ffharm import fourier
from ffharm.spheres import _line_pair_chunks


def rel_err(a, b):
    scale = max(1.0, float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / scale


def test_delta_transforms_to_constant():
    ctx = FieldCtx(3, 2)
    f = GridFunction.delta(ctx, (0, 0))
    for route in (ft_naive, ft_fast):
        assert rel_err(route(f).values, np.ones(ctx.size)) < 1e-12


def test_constant_transforms_to_point_mass():
    ctx = FieldCtx(5, 2)
    g = ft_naive(GridFunction.constant(ctx, 1.0))
    expected = np.zeros(ctx.size, dtype=complex)
    expected[0] = ctx.size
    assert rel_err(g.values, expected) < 1e-12


def test_sphere_indicator_cross_check():
    ctx = FieldCtx(3, 2)
    s1 = enumerate_sphere(ctx, 1)
    f = GridFunction.indicator(ctx, s1.flat)
    g = ft_naive(f)
    assert abs(g.values[ctx.flat_index((1, 1))] - (-2)) < 1e-12


def test_side_checks():
    ctx = FieldCtx(3, 2)
    dual = GridFunction.zeros(ctx, Side.DualNormalized)
    primal = GridFunction.zeros(ctx, Side.PrimalCounting)
    with pytest.raises(SideMismatch):
        ft_naive(dual)
    with pytest.raises(SideMismatch):
        ft_fast(dual)
    with pytest.raises(SideMismatch):
        ift(primal)


@pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)])
def test_fast_matches_naive_on_random_inputs(q, d):
    ctx = FieldCtx(q, d)
    rng = np.random.default_rng(q * 100 + d)
    for _ in range(5):
        values = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
        f = GridFunction(ctx, values, Side.PrimalCounting)
        assert rel_err(ft_fast(f).values, ft_naive(f).values) < 1e-9


def test_inverse_round_trip():
    ctx = FieldCtx(5, 2)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
    f = GridFunction(ctx, values, Side.PrimalCounting)
    back = ift(ft_naive(f))
    assert rel_err(back.values, values) < 1e-9
    # indicator round trip
    s = enumerate_sphere(ctx, 1)
    ind = GridFunction.indicator(ctx, s.flat)
    assert rel_err(ift(ft_fast(ind)).values, ind.values) < 1e-9


def test_inverse_of_constant_is_origin_delta():
    ctx = FieldCtx(3, 3)
    g = GridFunction.constant(ctx, 1.0, Side.DualNormalized)
    back = ift(g)
    expected = np.zeros(ctx.size, dtype=complex)
    expected[0] = 1.0
    assert rel_err(back.values, expected) < 1e-12


@pytest.mark.parametrize("q,d", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_plancherel(q, d):
    ctx = FieldCtx(q, d)
    rng = np.random.default_rng(q + d)
    values = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
    f = GridFunction(ctx, values, Side.PrimalCounting)
    g = ft_fast(f)
    lhs = (np.abs(g.values) ** 2).sum() / ctx.size
    rhs = (np.abs(values) ** 2).sum()
    assert abs(lhs - rhs) / rhs < 1e-9


def test_linearity():
    ctx = FieldCtx(5, 2)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
    b = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
    alpha, beta = 2.0 - 1.0j, -0.5 + 3.0j
    combo = GridFunction(ctx, alpha * a + beta * b, Side.PrimalCounting)
    fa = ft_fast(GridFunction(ctx, a, Side.PrimalCounting)).values
    fb = ft_fast(GridFunction(ctx, b, Side.PrimalCounting)).values
    assert rel_err(ft_fast(combo).values, alpha * fa + beta * fb) < 1e-9


def test_values_are_immutable_and_copied():
    ctx = FieldCtx(3, 2)
    src = np.ones(ctx.size, dtype=complex)
    f = GridFunction(ctx, src, Side.PrimalCounting)
    src[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 0.0


def test_oracles_independent_of_chunk_budget(monkeypatch):
    ctx = FieldCtx(5, 3)
    rng = np.random.default_rng(3)
    f = GridFunction(ctx, rng.standard_normal(ctx.size), Side.PrimalCounting)
    spheres = [enumerate_sphere(ctx, j) for j in range(ctx.q)]
    m = spheres[2].points
    weights = rng.standard_normal((len(m), 3)) + 1j * rng.standard_normal((len(m), 3))
    # a batch in F order, as ft selftest passes draws.T, and real weights
    batch = (rng.standard_normal((4, ctx.size)) + 1j * rng.standard_normal((4, ctx.size))).T
    real = rng.standard_normal(len(m))

    def line_pairs():
        out = np.full((ctx.q, ctx.size), np.nan)
        for flat, values in _line_pair_chunks(ctx):
            out[:, flat] = values.T
        return out

    def oracles():
        return (
            [ft_naive(f).values]
            + [sphere_ft_naive_grid(s) for s in spheres]
            + [sphere_ft_counted(s) for s in spheres]
            + [fourier.character_sums(ctx, m, weights)]
            + [fourier.character_sums(ctx, ctx.grid_points(), batch)]
            + [fourier.character_sums(ctx, m, real)]
            + [line_pairs()]
        )

    default = oracles()
    # 1 is below one row, so every chunk holds a single x (a single line
    # for sphere_ft_counted and _line_pair_chunks); at 1000 the chunks hold
    # several and the last one is partial, except that the 31 lines of
    # _line_pair_chunks fit one chunk, so at 300 they take four, the last
    # partial.  The values agree to rounding: a one-row chunk's product may
    # take another BLAS path than a many-row one.
    for budget in (1, 300, 1000):
        monkeypatch.setattr(fourier, "NAIVE_BUDGET", budget)
        for a, b in zip(oracles(), default):
            assert a.shape == b.shape
            assert np.allclose(a, b, rtol=0, atol=1e-12)


def _explicit_character_sums(q, d, m, weights):
    """sum_i w_i exp(-2 pi i ((m_i . x) mod q) / q) at every x, lex order."""
    out = []
    for x in itertools.product(range(q), repeat=d):
        total = 0
        for mi, wi in zip(m, weights):
            dot = sum(int(a) * b for a, b in zip(mi, x)) % q
            total = total + wi * cmath.exp(-2j * cmath.pi * dot / q)
        out.append(total)
    return np.array(out)


@pytest.mark.parametrize("q,d", [(3, 2), (5, 3), (3, 4)])
def test_character_sums_match_explicit_loop(q, d):
    ctx = FieldCtx(q, d)
    rng = np.random.default_rng(10 * q + d)
    # entries outside [0, q) and repeated rows are both legal frequencies
    m = rng.integers(-q, 2 * q, size=(6, d))
    m = np.vstack([m, m[[0, 0, 3]]])
    n = len(m)
    for shape in ((n,), (n, 3)):
        weights = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = fourier.character_sums(ctx, m, weights)
        assert got.shape == (ctx.size,) + shape[1:]
        want = _explicit_character_sums(q, d, m, weights)
        assert np.abs(got - want).max() < 1e-12


def test_character_sums_return_no_reused_buffer():
    ctx = FieldCtx(5, 2)
    rng = np.random.default_rng(4)
    m = ctx.grid_points()
    first = fourier.character_sums(ctx, m, rng.standard_normal((ctx.size, 2)))
    kept = first.copy()
    second = fourier.character_sums(ctx, m, rng.standard_normal((ctx.size, 2)))
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept) and not np.allclose(first, second)


def test_character_sums_of_no_points_are_zero():
    ctx = FieldCtx(3, 2)
    m = np.empty((0, 2))
    assert np.array_equal(fourier.character_sums(ctx, m, np.empty(0)), np.zeros(9))
    assert np.array_equal(fourier.character_sums(ctx, m, np.empty((0, 2))), np.zeros((9, 2)))


def test_character_sums_reject_wrong_point_dimension():
    ctx = FieldCtx(3, 3)
    with pytest.raises(DimensionMismatch):
        fourier.character_sums(ctx, np.zeros((4, 2)), np.ones(4))
