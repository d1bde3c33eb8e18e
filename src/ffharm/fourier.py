"""Fourier transforms on F_q^d under the asymmetric measure pair.

The function side carries counting measure (sums), the dual side the
normalized counting measure (averages).  ``ft_naive`` applies the full
q^d x q^d character kernel; ``ft_fast`` factors the kernel through the d
axes, one size-q matrix per axis, which is the whole asymptotic win
(O(d q^{d+1}) instead of O(q^{2d})).  Each stage is a plain matrix product:
``numpy.fft.fftn`` took 156 against 93 us at (13, 3) and 2.9 against 1.7 ms
at (31, 3) (interleaved medians, one OpenBLAS thread, 2 vCPUs, numpy 2.4.6).

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
# dot tables of the counted sphere routes in spheres.  At 2^16 the int32
# dots (256 KiB) and their complex character values (1 MiB) stay in a 2 MiB
# L2 cache.  On a 2-vCPU Xeon VM, in process, ft selftest --q 13 --d 3
# took about 40 ms a call at 2^16 (median of 10 after warm-up), against
# 53 ms at 2^14, 40 ms at 2^18 and 48 ms at 2^20.  The line-pair route of
# verify_closed_form ran within noise of its 2^16 time from 2^13 to 2^18.
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
    chunks of max(1, NAIVE_BUDGET // n), so the work arrays stay
    cache-sized for any n; the tables hold d q n entries.  One set of work
    arrays (the dots, one axis term, the character values) is allocated
    per call and refilled in place for every chunk, and each chunk's
    product is written straight into the result.  Both term-by-term
    oracles, ``ft_naive`` and ``sphere_ft_naive_grid``, are this loop.
    """
    q, d = ctx.q, ctx.d
    m = np.asarray(m, dtype=np.int64)
    if m.ndim != 2 or m.shape[1] != d:
        raise DimensionMismatch(f"m must have shape (n, {d}), got {m.shape}")
    # cast once, not per chunk: sphere_ft_naive_grid passes real weights.
    # An F-ordered batch (ft selftest passes draws.T) goes to BLAS as it
    # is; a C-ordered copy of it took 0.67 MiB more and no less time.
    weights = np.asarray(weights, dtype=np.complex128)
    out = np.zeros((ctx.size,) + weights.shape[1:], dtype=np.complex128)
    n = len(m)
    if n == 0:
        return out
    axis = np.arange(q, dtype=np.int64)
    tables = [(np.outer(axis, m[:, j]) % q).astype(np.int32) for j in range(d)]
    chi_neg = ctx.chi_values[-np.arange(d * (q - 1) + 1) % q]
    pts = ctx.grid_points()
    chunk = min(ctx.size, max(1, NAIVE_BUDGET // n))
    dots = np.empty((chunk, n), dtype=np.int32)
    term = np.empty((chunk, n), dtype=np.int32)
    values = np.empty((chunk, n), dtype=np.complex128)
    # mode="clip" never clips here: grid coordinates lie in [0, q), the
    # tables are reduced mod q and the dots lie in [0, d(q - 1)].  Under
    # mode="raise", take buffers its result before copying it into out=.
    for lo in range(0, ctx.size, chunk):
        rows = pts[lo : lo + chunk]
        r = len(rows)
        np.take(tables[0], rows[:, 0], axis=0, out=dots[:r], mode="clip")
        for j in range(1, d):
            np.take(tables[j], rows[:, j], axis=0, out=term[:r], mode="clip")
            dots[:r] += term[:r]
        np.take(chi_neg, dots[:r], out=values[:r], mode="clip")
        np.matmul(values[:r], weights, out=out[lo : lo + r])
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
    q, d = ctx.q, ctx.d
    grid = np.arange(q)
    kernel = scale * ctx.chi_values[(sign * np.outer(grid, grid)) % q]
    for i in range(d):
        values = np.matmul(kernel, values.reshape(q**i, q, q ** (d - 1 - i)))
    return values.ravel()


def ft_fast(f: GridFunction) -> GridFunction:
    """Axis-separated transform; identical to ft_naive up to roundoff."""
    _require_side(f, Side.PrimalCounting)
    return GridFunction(f.ctx, _axis_transform(f.values, f.ctx, -1, 1.0), Side.DualNormalized)


def ift(g: GridFunction) -> GridFunction:
    """Inverse transform: f(m) = q^{-d} sum_x chi(m.x) g(x)."""
    _require_side(g, Side.DualNormalized)
    values = _axis_transform(g.values, g.ctx, 1, 1.0 / g.ctx.q)
    return GridFunction(g.ctx, values, Side.PrimalCounting)
