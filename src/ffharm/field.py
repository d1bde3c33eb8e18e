"""Odd-prime-field arithmetic, characters, and the diagonal quadratic form.

Everything downstream runs inside a :class:`FieldCtx`: an odd prime ``q``
and a dimension ``d >= 2``.  The additive character is fixed once and for
all as ``chi(a) = exp(2*pi*i*a/q)``; every nontrivial character is a
coordinate relabeling of this one, so no generality is lost at desk scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatch, TooLarge, ZeroInverse

# Hard cap on the number of points any one enumeration touches: each block
# of variables build_variety enumerates (q^|block| values and norms), and
# any full grid that is materialized (the (q^d, d) point table, the q^d
# norm table, the polynomial values and zero mask behind Variety.flat).
GRID_BUDGET = 10**8


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    for f in range(3, math.isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


class FieldCtx:
    """Arithmetic context for F_q^d with q an odd prime and d >= 2.

    ``chi_values[a] = exp(2*pi*i*a/q)`` is the additive character and
    ``eta_values[a]`` the quadratic one: +1 on nonzero squares, -1 on
    nonsquares, 0 at a = 0.  Immutable after construction (the tables are
    read-only arrays); lazy grid caches are private memos and do not change
    observable state.
    """

    def __init__(self, q: int, d: int):
        if not is_odd_prime(q):
            raise ValueError(f"q must be an odd prime >= 3, got {q}")
        if d < 2:
            raise ValueError(f"dimension d must be >= 2, got {d}")
        self.q = q
        self.d = d
        inv = np.zeros(q, dtype=np.int64)
        inv[1:] = [pow(a, q - 2, q) for a in range(1, q)]
        inv.setflags(write=False)
        self.inv_table = inv
        eta = -np.ones(q, dtype=np.int64)
        eta[0] = 0
        eta[np.arange(1, q, dtype=np.int64) ** 2 % q] = 1
        eta.setflags(write=False)
        self.eta_values = eta
        self.chi_values = np.exp(2j * np.pi * np.arange(q) / q)
        self.chi_values.setflags(write=False)
        self._norms: np.ndarray | None = None
        self._points: np.ndarray | None = None

    @property
    def size(self) -> int:
        """Number of points in the grid F_q^d."""
        return self.q**self.d

    def __repr__(self) -> str:
        return f"FieldCtx(q={self.q}, d={self.d})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and (self.q, self.d) == (other.q, other.d)

    def __hash__(self) -> int:
        return hash((self.q, self.d))

    def check_budget(self, dims: int | None = None) -> None:
        """Raise TooLarge when q^dims points (default: all of F_q^d) exceed GRID_BUDGET."""
        dims = self.d if dims is None else dims
        if self.q**dims > GRID_BUDGET:
            raise TooLarge(
                f"q^{dims} = {self.q**dims} exceeds the enumeration budget {GRID_BUDGET}"
            )

    def check_int64_counts(self) -> None:
        """Raise TooLarge when q^d >= 2^63: counts of F_q^d points may then wrap int64."""
        if self.size >= 2**63:
            raise TooLarge(f"q^d = {self.size} points cannot be counted exactly in int64")

    def grid_norms(self) -> np.ndarray:
        """``m_1^2 + ... + m_d^2 mod q`` for every grid point, lex order.

        Lexicographic flat indexing: ``m = (m_1, ..., m_d)`` maps to
        ``sum(m_i * q**(d-i))``, i.e. the first coordinate is the most
        significant digit.
        """
        if self._norms is None:
            self.check_budget()
            sq = (np.arange(self.q, dtype=np.int64) ** 2) % self.q
            norms = np.zeros(1, dtype=np.int64)
            for _ in range(self.d):
                norms = ((norms[:, None] + sq[None, :]) % self.q).ravel()
            norms.setflags(write=False)
            self._norms = norms
        return self._norms

    def grid_points(self) -> np.ndarray:
        """All points of F_q^d as a (q^d, d) int array in lex order."""
        if self._points is None:
            self.check_budget()
            idx = np.arange(self.size, dtype=np.int64)
            pts = np.empty((self.size, self.d), dtype=np.int64)
            for k in range(self.d - 1, -1, -1):
                idx, pts[:, k] = np.divmod(idx, self.q)
            pts.setflags(write=False)
            self._points = pts
        return self._points

    def flat_index(self, m: Sequence[int]) -> int:
        """Lexicographic flat index of a point (coordinates reduced mod q)."""
        if len(m) != self.d:
            raise DimensionMismatch(f"expected {self.d} coordinates, got {len(m)}")
        idx = 0
        for c in m:
            idx = idx * self.q + (int(c) % self.q)
        return idx


def cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact cyclic convolution of two integer tables of one shape (q, ..., q).

    ``out[u] = sum_v a[v] b[u - v]``, indices mod q: ``a`` is shifted once
    per nonzero of ``b``, so pass the sparser table as ``b``.  Integers
    only, so the result is exact while its entries stay below 2^63.  It is
    the test oracle of ``varieties._radius_counts`` and of the closed-form
    ``spheres.sphere_sizes``.
    """
    axes = tuple(range(a.ndim))
    out = np.zeros_like(a)
    for shift in zip(*np.nonzero(b)):
        out += b[shift] * np.roll(a, shift, axis=axes)
    return out


def inv(ctx: FieldCtx, a: int) -> int:
    """Multiplicative inverse of a nonzero residue."""
    a = a % ctx.q
    if a == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    return int(ctx.inv_table[a])


def eta(ctx: FieldCtx, a: int) -> int:
    """Quadratic character: +1 on nonzero squares, -1 on nonsquares, 0 at 0."""
    return int(ctx.eta_values[a % ctx.q])


def chi(ctx: FieldCtx, a: int) -> complex:
    """Additive character exp(2*pi*i*a/q)."""
    return complex(ctx.chi_values[a % ctx.q])


def norm_form(ctx: FieldCtx, m: Sequence[int]) -> int:
    """Sum of squared coordinates mod q."""
    if len(m) != ctx.d:
        raise DimensionMismatch(f"expected {ctx.d} coordinates, got {len(m)}")
    total = 0
    for c in m:
        c = int(c) % ctx.q
        total += c * c
    return total % ctx.q
