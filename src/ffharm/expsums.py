"""Gauss, Kloosterman, and Salie sums by direct summation over F_q^*.

These are the ground truth for everything downstream: each sum is an
explicit O(q) loop over the nonzero residues, so the classical magnitude
bounds (|G_a| = sqrt(q), |K(a,b)| <= 2 sqrt(q) for ab != 0, |S(a,b)| <=
2 sqrt(q)) can be checked against first principles rather than against a
closed-form shortcut.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroParameter
from .field import FieldCtx


def gauss(ctx: FieldCtx, a: int) -> complex:
    """Quadratic Gauss sum: sum over s != 0 of eta(s) chi(a s).

    Rejects a = 0: the sum would collapse to sum of eta(s) = 0 and none of
    the magnitude statements apply.
    """
    q = ctx.q
    a = a % q
    if a == 0:
        raise ZeroParameter("Gauss sum requires a != 0")
    s = np.arange(1, q)
    return complex((ctx.eta_values[s] * ctx.chi_values[(a * s) % q]).sum())


def _kloosterman_terms(ctx: FieldCtx, a: int, b: int) -> np.ndarray:
    """chi(a s + b s^{-1}) for s = 1, ..., q - 1."""
    q = ctx.q
    a, b = a % q, b % q
    s = np.arange(1, q)
    return ctx.chi_values[(a * s + b * ctx.inv_table[1:]) % q]


def kloosterman(ctx: FieldCtx, a: int, b: int) -> complex:
    """Kloosterman sum: sum over s != 0 of chi(a s + b s^{-1}).

    Always real for this character choice (s -> -s pairs each term with its
    conjugate); the imaginary part is float noise.
    """
    return complex(_kloosterman_terms(ctx, a, b).sum())


def salie(ctx: FieldCtx, a: int, b: int) -> complex:
    """Salie sum: the eta-twisted Kloosterman sum over s != 0."""
    return complex((ctx.eta_values[1:] * _kloosterman_terms(ctx, a, b)).sum())
