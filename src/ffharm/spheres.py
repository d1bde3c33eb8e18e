"""Spheres in F_q^d and their Fourier transforms, two independent ways.

``sphere_ft_naive`` sums characters over an explicitly enumerated point
set.  ``sphere_ft_closed`` evaluates the exponential-sum expression

    q^{d-1} delta_0(x) + q^{-1} G^d * K(-j, -||x||/4)   (d even)
    q^{d-1} delta_0(x) + q^{-1} G^d * S(-j, -||x||/4)   (d odd)

with G the Gauss sum at parameter 1, K the Kloosterman sum and S the
Salie sum.  ``verify_closed_form`` compares the two routes exhaustively;
agreement over all (j, x) is the correctness certificate for the closed
route, which the restriction machinery then relies on for speed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import expsums
from .errors import DimensionMismatch, RoundingMismatch
from .field import FieldCtx, cyclic_convolve, inv, norm_form
from .fourier import character_sums


class Sphere:
    """The solution set of m_1^2 + ... + m_d^2 = j, fully enumerated.

    ``points`` is an (n, d) int array in lexicographic order; ``flat``
    holds the matching lex flat indices (sorted ascending).
    """

    def __init__(self, ctx: FieldCtx, j: int, flat: np.ndarray):
        self.ctx = ctx
        self.j = j % ctx.q
        self.flat = flat
        self.cardinality = int(flat.size)

    @property
    def points(self) -> np.ndarray:
        return self.ctx.grid_points()[self.flat]

    def __repr__(self) -> str:
        return f"Sphere(q={self.ctx.q}, d={self.ctx.d}, j={self.j}, n={self.cardinality})"


def enumerate_sphere(ctx: FieldCtx, j: int) -> Sphere:
    """Enumerate the radius-j sphere by a full scan of the grid."""
    norms = ctx.grid_norms()
    flat = np.nonzero(norms == (j % ctx.q))[0]
    return Sphere(ctx, j, flat)


def sphere_sizes(ctx: FieldCtx) -> np.ndarray:
    """Cardinalities (|S_j|)_{j in F_q}, exactly, without the grid.

    |S_j| counts d-tuples of squares summing to j, so the sizes are the
    d-fold cyclic convolution of the histogram of m^2 mod q (O(d q^2)).
    ``enumerate_sphere`` and ``sphere_count_closed`` are its oracles.
    """
    ctx.check_int64_counts()
    q = ctx.q
    squares = np.bincount(np.arange(q, dtype=np.int64) ** 2 % q, minlength=q)
    sizes = squares
    for _ in range(ctx.d - 1):
        sizes = cyclic_convolve(sizes, squares)
    return sizes


def sphere_ft_naive(sphere: Sphere, x: Sequence[int]) -> complex:
    """Fourier transform of the sphere indicator at one dual point.

    Direct definition: sum over sphere points m of chi(-m . x).
    """
    ctx = sphere.ctx
    if len(x) != ctx.d:
        raise DimensionMismatch(f"expected {ctx.d} coordinates, got {len(x)}")
    xv = np.asarray([int(c) % ctx.q for c in x], dtype=np.int64)
    dots = (sphere.points @ xv) % ctx.q
    return complex(ctx.chars.chi_values[(-dots) % ctx.q].sum())


def sphere_ft_naive_grid(sphere: Sphere) -> np.ndarray:
    """Brute-force transform at every dual point, lex order."""
    return character_sums(sphere.ctx, sphere.points, np.ones(sphere.cardinality))


def _closed_tail(ctx: FieldCtx, j: int, t: int) -> complex:
    """The non-delta part of the closed form, as a function of t = ||x||."""
    q = ctx.q
    G = expsums.gauss(ctx, 1).value
    a = (-j) % q
    b = (-inv(ctx, 4 % q) * t) % q
    if ctx.d % 2 == 0:
        tw = expsums.kloosterman(ctx, a, b).value
    else:
        tw = expsums.salie(ctx, a, b).value
    return (G**ctx.d) * tw / q


def sphere_ft_closed(ctx: FieldCtx, j: int, x: Sequence[int]) -> complex:
    """Closed-form transform of the radius-j sphere indicator at x."""
    if len(x) != ctx.d:
        raise DimensionMismatch(f"expected {ctx.d} coordinates, got {len(x)}")
    j = j % ctx.q
    t = norm_form(ctx, x)
    value = _closed_tail(ctx, j, t)
    if all(int(c) % ctx.q == 0 for c in x):
        value += ctx.q ** (ctx.d - 1)
    return value


def sphere_ft_kernel(ctx: FieldCtx) -> np.ndarray:
    """The q x q table K[j, t] of the non-delta closed form at ||x|| = t.

    Away from the origin the closed form depends on x only through its
    quadratic norm.  Writing the Kloosterman (or, for odd d, Salie) sum as
    a sum over s in F_q^* of chi(-j s) chi(-t s^{-1} / 4) turns the whole
    table into one matrix product; ``_closed_tail`` is its scalar oracle.
    """
    q = ctx.q
    s = np.arange(1, q)
    j_part = ctx.chars.chi_values[(-np.outer(np.arange(q), s)) % q]
    if ctx.d % 2 == 1:
        j_part = j_part * ctx.chars.eta_values[s]
    quarter = (-inv(ctx, 4 % q) * ctx.inv_table[1:]) % q
    t_part = ctx.chars.chi_values[np.outer(quarter, np.arange(q)) % q]
    G = expsums.gauss(ctx, 1).value
    return (G**ctx.d / q) * (j_part @ t_part)


def sphere_ft_closed_grid(ctx: FieldCtx, j: int) -> np.ndarray:
    """Closed-form transform at every dual point, lex order."""
    out = sphere_ft_kernel(ctx)[j % ctx.q][ctx.grid_norms()]
    out[0] += ctx.q ** (ctx.d - 1)  # flat index 0 is the origin
    return out


def sphere_count_closed(ctx: FieldCtx, j: int, tol: float = 1e-6) -> int:
    """Sphere cardinality recovered from the closed form at x = 0."""
    value = sphere_ft_closed(ctx, j, [0] * ctx.d)
    nearest = round(value.real)
    if abs(value - nearest) > tol:
        raise RoundingMismatch(
            f"closed-form count {value} is not within {tol} of an integer"
        )
    return int(nearest)


def verify_closed_form(
    ctx: FieldCtx, tol: float = 1e-6
) -> tuple[float, tuple[int, tuple[int, ...]] | None]:
    """Exhaustive naive-vs-closed comparison over all j and all x.

    Returns the maximum absolute discrepancy and the first (j, x) whose
    error exceeds ``tol`` (None when every point agrees).
    """
    max_err = 0.0
    first_bad = None
    for j in range(ctx.q):
        naive = sphere_ft_naive_grid(enumerate_sphere(ctx, j))
        closed = sphere_ft_closed_grid(ctx, j)
        err = np.abs(naive - closed)
        jmax = float(err.max())
        if jmax > max_err:
            max_err = jmax
        if first_bad is None and jmax > tol:
            flat = int(np.argmax(err > tol))
            x = tuple(int(c) for c in ctx.grid_points()[flat])
            first_bad = (j, x)
    return max_err, first_bad
