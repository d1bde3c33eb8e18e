import math

import numpy as np
import pytest

from ffharm import FieldCtx, ZeroParameter, gauss, kloosterman, salie
from ffharm.field import is_odd_prime

PRIMES_TO_61 = [p for p in range(3, 62) if is_odd_prime(p)]


def test_gauss_q3_explicit():
    # two-term sum: chi(1) - chi(2) = i*sqrt(3)
    assert abs(gauss(FieldCtx(3, 2), 1) - 1j * math.sqrt(3)) < 1e-12


def test_gauss_magnitudes():
    assert abs(abs(gauss(FieldCtx(5, 2), 1)) - math.sqrt(5)) < 1e-12
    assert abs(abs(gauss(FieldCtx(7, 2), 3)) - math.sqrt(7)) < 1e-12


def test_gauss_rejects_zero():
    with pytest.raises(ZeroParameter):
        gauss(FieldCtx(5, 2), 0)


@pytest.mark.parametrize("q", [p for p in range(3, 102) if is_odd_prime(p)])
def test_gauss_magnitude_sweep(q):
    ctx = FieldCtx(q, 2)
    root = math.sqrt(q)
    for a in range(1, q):
        assert abs(abs(gauss(ctx, a)) - root) < 1e-6


def test_kloosterman_examples():
    assert abs(kloosterman(FieldCtx(3, 2), 1, 1) - (-1)) < 1e-12
    assert abs(kloosterman(FieldCtx(3, 2), 2, 1) - 2) < 1e-12
    assert abs(kloosterman(FieldCtx(5, 2), 0, 3) - (-1)) < 1e-12


def test_salie_examples():
    assert abs(salie(FieldCtx(3, 2), 1, 1) - (-1j * math.sqrt(3))) < 1e-12
    assert abs(salie(FieldCtx(3, 2), 0, 0)) < 1e-12
    assert abs(salie(FieldCtx(7, 2), 2, 5)) <= 2 * math.sqrt(7) + 1e-6


@pytest.mark.parametrize("q", [p for p in range(3, 102) if is_odd_prime(p)])
def test_salie_matches_its_evaluation_at_the_square_roots(q):
    # for a != 0, S(a, b) = eta(a) G sum_{y^2 = ab} chi(2y), G the Gauss sum at 1
    ctx = FieldCtx(q, 2)
    G = gauss(ctx, 1)
    y = np.arange(q)
    squares = y * y % q
    for a in range(1, q):
        for b in range(q):
            roots = y[squares == a * b % q]
            third = ctx.eta_values[a] * G * ctx.chi_values[2 * roots % q].sum()
            assert abs(salie(ctx, a, b) - third) < 1e-12


@pytest.mark.parametrize("q", PRIMES_TO_61)
def test_kloosterman_real_and_symmetric(q):
    ctx = FieldCtx(q, 2)
    for a in range(1, q, max(1, q // 7)):
        for b in range(1, q, max(1, q // 7)):
            k = kloosterman(ctx, a, b)
            assert abs(k.imag) < 1e-9
            assert abs(k - kloosterman(ctx, b, a)) < 1e-9


@pytest.mark.parametrize("q", PRIMES_TO_61)
def test_kloosterman_zero_row(q):
    ctx = FieldCtx(q, 2)
    for b in range(1, q):
        assert abs(kloosterman(ctx, 0, b) - (-1)) < 1e-9


@pytest.mark.parametrize("q", [3, 7, 13, 31, 61])
def test_weil_bounds_full_grid(q):
    ctx = FieldCtx(q, 2)
    cap = 2 * math.sqrt(q) + 1e-6
    for a in range(q):
        for b in range(q):
            if a != 0 and b != 0:
                assert abs(kloosterman(ctx, a, b)) <= cap
            assert abs(salie(ctx, a, b)) <= cap
            # crude bound from q-1 unit summands
            assert abs(kloosterman(ctx, a, b)) <= q
            assert abs(salie(ctx, a, b)) <= q
