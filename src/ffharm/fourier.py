"""Fourier transforms on F_q^d under the asymmetric measure pair.

The function side carries counting measure (sums), the dual side the
normalized counting measure (averages).  ``ft_naive`` applies the full
q^d x q^d character kernel; ``ft_fast`` factors the kernel through the d
axes, one size-q matrix per axis, which is the whole asymptotic win
(O(d q^{d+1}) instead of O(q^{2d})).  Size-q FFTs are pointless at desk
scale, so each axis stage is a plain matrix product.

``character_sums`` is the one brute-force loop behind ``ft_naive`` and
``spheres.sphere_ft_naive_grid``.  It still forms every term chi(-m . x)
on its own and factors nothing through the axes, so it stays independent
of ``ft_fast`` and of the closed form; it only reads each dot from
per-axis tables and each character value from one table, in cache-sized
chunks.  ``verify_closed_form`` runs ``spheres._line_pair_chunks``
instead, which counts pairs of lines through the origin for every radius
at once, in chunks of the same ``NAIVE_BUDGET``; its oracle is
``spheres.sphere_ft_counted``, whose own oracle is
``sphere_ft_naive_grid``.
"""

from __future__ import annotations

import enum

import numpy as np

from .field import FieldCtx
from .errors import DimensionMismatch, SideMismatch

# Entries of the m.x table that character_sums holds at once, and of the
# dot tables of the counted sphere routes in spheres.  At 2^16 the int64
# dots (512 KiB) and their complex character values (1 MiB) stay in a 2 MiB
# L2 cache; on a 2-vCPU Xeon VM the certify workload's sphere sums, then run
# by character_sums, took 1.2 s at 2^16 against 3.4 s at 2^22 (2^15 and
# 2^17 were within 20%).  The line-pair route of verify_closed_form ran
# within noise of its 2^16 time from 2^13 to 2^18.
NAIVE_BUDGET = 1 << 16


class Side(enum.Enum):
    """Which measure convention the values of a GridFunction live under."""

    PrimalCounting = "primal-counting"
    DualNormalized = "dual-normalized"


class GridFunction:
    """Complex values on F_q^d in lex order, tagged with a measure side."""

    def __init__(self, ctx: FieldCtx, values, side: Side):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (ctx.size,):
            raise ValueError(
                f"values must have shape ({ctx.size},), got {values.shape}"
            )
        values = values.copy()
        values.setflags(write=False)
        self.ctx = ctx
        self.values = values
        self.side = side

    @classmethod
    def zeros(cls, ctx: FieldCtx, side: Side = Side.PrimalCounting) -> "GridFunction":
        return cls(ctx, np.zeros(ctx.size), side)

    @classmethod
    def constant(
        cls, ctx: FieldCtx, c: complex = 1.0, side: Side = Side.PrimalCounting
    ) -> "GridFunction":
        return cls(ctx, np.full(ctx.size, c, dtype=np.complex128), side)

    @classmethod
    def delta(cls, ctx: FieldCtx, m, side: Side = Side.PrimalCounting) -> "GridFunction":
        vals = np.zeros(ctx.size, dtype=np.complex128)
        vals[ctx.flat_index(m)] = 1.0
        return cls(ctx, vals, side)

    @classmethod
    def indicator(cls, ctx: FieldCtx, flat_indices, side: Side = Side.PrimalCounting):
        vals = np.zeros(ctx.size, dtype=np.complex128)
        vals[np.asarray(flat_indices, dtype=np.int64)] = 1.0
        return cls(ctx, vals, side)

    def __repr__(self) -> str:
        return f"GridFunction(q={self.ctx.q}, d={self.ctx.d}, side={self.side.name})"


def _require_side(f: GridFunction, side: Side) -> None:
    if f.side is not side:
        raise SideMismatch(f"expected {side.name}, got {f.side.name}")


def character_sums(ctx: FieldCtx, m: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Brute force: sum_i weights_i chi(-m_i . x) at every x, lex order.

    ``m`` is an (n, d) array of frequencies and ``weights`` is (n,) or
    (n, k); the result is (q^d,) or (q^d, k), one column per weight
    column.  Every term chi(-m_i . x) is formed and summed on its own:
    the dot m_i . x is read as sum_j A_j[x_j, i] from d per-axis tables
    A_j[a, i] = a m_ij mod q, so it lies in [0, d(q - 1)], and
    chi(-k mod q) comes from one table over that range.  The x rows go in
    chunks of max(1, NAIVE_BUDGET // n), so the per-chunk temporaries stay
    cache-sized for any n; the tables hold d q n entries.  Both
    term-by-term oracles, ``ft_naive`` and ``sphere_ft_naive_grid``, are
    this loop.
    """
    q, d = ctx.q, ctx.d
    m = np.asarray(m, dtype=np.int64)
    if m.ndim != 2 or m.shape[1] != d:
        raise DimensionMismatch(f"m must have shape (n, {d}), got {m.shape}")
    weights = np.asarray(weights)
    out = np.zeros((ctx.size,) + weights.shape[1:], dtype=np.complex128)
    if len(m) == 0:
        return out
    axis = np.arange(q, dtype=np.int64)
    tables = [np.outer(axis, m[:, j]) % q for j in range(d)]
    chi_neg = ctx.chars.chi_values[-np.arange(d * (q - 1) + 1) % q]
    pts = ctx.grid_points()
    chunk = max(1, NAIVE_BUDGET // len(m))
    for lo in range(0, ctx.size, chunk):
        rows = pts[lo : lo + chunk]
        dots = tables[0][rows[:, 0]]
        for j in range(1, d):
            dots += tables[j][rows[:, j]]
        out[lo : lo + chunk] = chi_neg[dots] @ weights
    return out


def ft_naive(f: GridFunction) -> GridFunction:
    """Transform by the definition: out(x) = sum_m chi(-m.x) f(m).

    Exact but O(q^{2d}) (``character_sums`` over every m of the grid); it
    is the reference the fast path is tested against.
    """
    _require_side(f, Side.PrimalCounting)
    out = character_sums(f.ctx, f.ctx.grid_points(), f.values)
    return GridFunction(f.ctx, out, Side.DualNormalized)


def _axis_transform(values: np.ndarray, ctx: FieldCtx, sign: int, scale: float) -> np.ndarray:
    """Apply the size-q kernel scale * chi(sign * m x) along each of the d axes."""
    q = ctx.q
    grid = np.arange(q)
    kernel = scale * ctx.chars.chi_values[(sign * np.outer(grid, grid)) % q]
    cube = values.reshape((q,) * ctx.d)
    for axis in range(ctx.d):
        cube = np.moveaxis(np.tensordot(kernel, cube, axes=(1, axis)), 0, axis)
    return cube.ravel()


def ft_fast(f: GridFunction) -> GridFunction:
    """Axis-separated transform; identical to ft_naive up to roundoff."""
    _require_side(f, Side.PrimalCounting)
    return GridFunction(f.ctx, _axis_transform(f.values, f.ctx, -1, 1.0), Side.DualNormalized)


def ift(g: GridFunction) -> GridFunction:
    """Inverse transform: f(m) = q^{-d} sum_x chi(m.x) g(x)."""
    _require_side(g, Side.DualNormalized)
    values = _axis_transform(g.values, g.ctx, 1, 1.0 / g.ctx.q)
    return GridFunction(g.ctx, values, Side.PrimalCounting)
