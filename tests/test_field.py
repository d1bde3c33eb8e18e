import numpy as np
import pytest

from ffharm import DimensionMismatch, FieldCtx, ZeroInverse, eta, inv, norm_form
from ffharm.field import cyclic_convolve, is_odd_prime

ODD_PRIMES_TO_101 = [p for p in range(3, 102) if is_odd_prime(p)]


@pytest.mark.parametrize("q", [2, 4, 9, 15, 1, 0, -3])
def test_rejects_non_odd_primes(q):
    with pytest.raises(ValueError):
        FieldCtx(q, 2)


@pytest.mark.parametrize("d", [1, 0, -2])
def test_rejects_small_dimension(d):
    with pytest.raises(ValueError):
        FieldCtx(5, d)


def test_inv_examples():
    assert inv(FieldCtx(3, 2), 4) == 1
    assert inv(FieldCtx(5, 2), 1) == 1
    assert inv(FieldCtx(7, 2), 3) == 5  # 3*5 = 15 = 1 mod 7


def test_inv_rejects_zero():
    ctx = FieldCtx(5, 2)
    with pytest.raises(ZeroInverse):
        inv(ctx, 0)
    with pytest.raises(ZeroInverse):
        inv(ctx, 10)  # 10 = 0 mod 5


@pytest.mark.parametrize("q", [3, 7, 31, 101])
def test_inv_table_exhaustive(q):
    ctx = FieldCtx(q, 2)
    for a in range(1, q):
        assert (a * inv(ctx, a)) % q == 1


def test_inv_table_at_every_prime_to_1009():
    # the table comes from the powers of a primitive root, not one pow per element
    for q in filter(is_odd_prime, range(3, 1010)):
        table = FieldCtx(q, 2).inv_table
        a = np.arange(1, q)
        assert table[0] == 0
        assert (a * table[1:] % q == 1).all(), q


def test_eta_examples():
    ctx = FieldCtx(3, 2)
    assert eta(ctx, 1) == 1
    assert eta(ctx, 2) == -1  # squares mod 3 are {1}
    assert eta(ctx, 0) == 0


@pytest.mark.parametrize("q", ODD_PRIMES_TO_101)
def test_eta_partitions_units(q):
    ctx = FieldCtx(q, 2)
    vals = ctx.eta_values
    assert (vals == 1).sum() == (q - 1) // 2
    assert (vals == -1).sum() == (q - 1) // 2
    assert vals[0] == 0
    assert set(np.flatnonzero(vals == 1)) == {a * a % q for a in range(1, q)}
    # multiplicativity on units
    a = np.arange(1, q)
    prod = (a[:, None] * a[None, :]) % q
    assert np.array_equal(vals[prod], vals[a][:, None] * vals[a][None, :])
    assert vals[1:].sum() == 0


@pytest.mark.parametrize("q", ODD_PRIMES_TO_101)
def test_chi_multiplicative_and_orthogonal(q):
    ctx = FieldCtx(q, 2)
    chi = ctx.chi_values
    assert np.abs(np.abs(chi) - 1).max() < 1e-12
    a = np.arange(q)
    lhs = chi[:, None] * chi[None, :]
    rhs = chi[(a[:, None] + a[None, :]) % q]
    assert np.abs(lhs - rhs).max() < 1e-12
    assert abs(chi.sum()) < 1e-12


def test_norm_form_examples():
    assert norm_form(FieldCtx(3, 3), (1, 1, 1)) == 0
    assert norm_form(FieldCtx(5, 2), (0, 0)) == 0
    assert norm_form(FieldCtx(5, 2), (1, 2)) == 0  # 1 + 4 = 5


def test_norm_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        norm_form(FieldCtx(5, 3), (1, 2))


def test_norm_form_symmetries():
    ctx = FieldCtx(7, 3)
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.integers(0, 7, size=3)
        value = norm_form(ctx, m)
        assert norm_form(ctx, m[::-1]) == value
        flipped = m.copy()
        flipped[rng.integers(0, 3)] *= -1
        assert norm_form(ctx, flipped % 7) == value


def test_grid_norms_matches_pointwise():
    ctx = FieldCtx(5, 3)
    norms = ctx.grid_norms()
    pts = ctx.grid_points()
    for idx in (0, 1, 17, 124):
        assert norms[idx] == norm_form(ctx, pts[idx])
        assert ctx.flat_index(pts[idx]) == idx


def test_tables_are_immutable():
    ctx = FieldCtx(5, 2)
    with pytest.raises(ValueError):
        ctx.inv_table[1] = 0
    with pytest.raises(ValueError):
        ctx.eta_values[1] = 0
    with pytest.raises(ValueError):
        ctx.chi_values[0] = 0


def _convolve_by_definition(a, b):
    """out[u] = sum_v a[v] b[u - v], every index mod q, by explicit loops."""
    q = a.shape[0]
    out = np.zeros_like(a)
    for u in np.ndindex(a.shape):
        for v in np.ndindex(a.shape):
            w = tuple((ui - vi) % q for ui, vi in zip(u, v))
            out[u] += a[v] * b[w]
    return out


@pytest.mark.parametrize("shape", [(7,), (11,), (5, 5), (3, 3)])
def test_cyclic_convolve_matches_definition(shape):
    rng = np.random.default_rng(len(shape) * 100 + shape[0])
    for _ in range(5):
        # mostly zeros in b, so the two arguments differ in density
        a = rng.integers(0, 6, size=shape, dtype=np.int64)
        b = rng.integers(0, 6, size=shape, dtype=np.int64) * (rng.random(shape) < 0.3)
        expected = _convolve_by_definition(a, b)
        for left, right in ((a, b), (b, a)):
            out = cyclic_convolve(left, right)
            assert out.dtype == np.int64
            assert np.array_equal(out, expected)
