"""Spheres in F_q^d and their Fourier transforms, two independent ways.

``sphere_ft_naive`` sums characters over an explicitly enumerated point
set.  ``sphere_ft_closed`` evaluates the exponential-sum expression

    q^{d-1} delta_0(x) + q^{-1} G^d * K(-j, -||x||/4)   (d even)
    q^{d-1} delta_0(x) + q^{-1} G^d * S(-j, -||x||/4)   (d odd)

with G the Gauss sum at parameter 1, K the Kloosterman sum and S the
Salie sum.  Off the origin it depends on x only through t = ||x||, and
its q x q table over (j, t) is gathered from the rows j = 0 and 1, one
inverse DFT in O(q log q) time and O(q) temporaries (``_kernel_at``).
``verify_closed_form`` compares the two routes exhaustively; agreement
within ``CLOSED_FORM_TOL`` = 1e-6 at every (j, x) certifies the closed
route, which the restriction machinery relies on.  Its brute-force side
``_line_pair_chunks`` counts pairs of lines through the origin exactly,
every radius at once; its oracles are ``sphere_ft_counted`` (exact counts
of the dots m . x, one radius at a time) and, behind that,
``sphere_ft_naive_grid`` (every term chi(-m . x) on its own).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from . import expsums, fourier
from .errors import DimensionMismatch, RoundingMismatch
from .field import FieldCtx, eta, inv, norm_form

# how far a closed-form value may sit from its brute-force twin or its integer
CLOSED_FORM_TOL = 1e-6


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
    """Cardinalities (|S_j|)_{j in F_q}, exactly, without the grid, in O(q).

    The classical count of solutions of a diagonal quadratic form
    (Lidl-Niederreiter, *Finite Fields*, Thms 6.26-6.27), with eta the
    quadratic character:

        d even: |S_j| = q^{d-1} + eta((-1)^{d/2}) q^{(d-2)/2} (q [j = 0] - 1)
        d odd:  |S_j| = q^{d-1} + q^{(d-1)/2} eta((-1)^{(d-1)/2} j)

    in int64, exact since every term is below q^d < 2^63.  The d-fold
    cyclic convolution of the histogram of m^2 mod q, ``enumerate_sphere``
    and ``sphere_count_closed`` are its oracles.
    """
    ctx.check_int64_counts()
    q, d = ctx.q, ctx.d
    half = d // 2
    if d % 2 == 0:
        twist = eta(ctx, (-1) ** half) * q ** (half - 1)
        sizes = np.full(q, q ** (d - 1) - twist, dtype=np.int64)
        sizes[0] += twist * q
    else:
        j = np.arange(q, dtype=np.int64)
        sizes = q ** (d - 1) + q**half * ctx.eta_values[(-1) ** half * j % q]
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
    return complex(ctx.chi_values[(-dots) % ctx.q].sum())


def sphere_ft_naive_grid(sphere: Sphere) -> np.ndarray:
    """Brute-force transform at every dual point, lex order."""
    return fourier.character_sums(sphere.ctx, sphere.points, np.ones(sphere.cardinality))


def _lines(ctx: FieldCtx) -> tuple[np.ndarray, np.ndarray]:
    """The lines through the origin of F_q^d, one row each.

    Returns the representatives x' (first nonzero coordinate 1) as a
    ((q^d - 1)/(q - 1), d) array in lex order, and the lex flat index of
    lambda x' for lambda = 1, ..., q - 1 in the matching rows.  Together
    the rows cover every nonzero point exactly once.
    """
    q, d = ctx.q, ctx.d
    # lines led by coordinate d - 1 - k: lex flat indices q^k .. 2 q^k - 1
    reps = ctx.grid_points()[np.concatenate([q**k + np.arange(q**k) for k in range(d)])]
    scaled = np.outer(np.arange(q), np.arange(1, q)) % q  # [a, lambda - 1] = lambda a mod q
    flat = scaled[reps[:, 0]] * q ** (d - 1)
    for i in range(1, d):
        flat += scaled[reps[:, i]] * q ** (d - 1 - i)
    return reps, flat


def sphere_ft_counted(sphere: Sphere) -> np.ndarray:
    """Brute-force transform at every dual point from exact dot counts, lex order.

    One radius at a time; it is the oracle of ``_line_pair_chunks``, the
    all-radii route that ``verify_closed_form`` runs.

    For x = 0 the value is |S_j|.  Every other x is lambda x' for one
    lambda in F_q^* and one representative x' of its line through the
    origin (``_lines``).  For each x' the count
    c[k] = #{m in S_j : m . x' = k} is taken exactly in integers, and since
    m . (lambda x') = lambda (m . x'), the whole line follows as
    sum_k c[k] chi(-lambda k).  Each dot m . x' is summed term by term from
    d per-axis int32 tables A_i[a, m] = a m_i mod q, so it lies in
    [0, d(q - 1)] and the counts run over that range.  The representatives
    go in chunks of max(1, NAIVE_BUDGET // |S_j|), each counted by one
    bincount and turned into values by one small matrix product.

    No Gauss, Kloosterman or Salie sum enters, and nothing is factored
    through the axes: every pair (m, x') is visited, so the route stays
    independent of the closed form and of ``ft_fast``.  It visits
    q^{d-1} |S_j| pairs where ``sphere_ft_naive_grid`` forms q^d |S_j|
    terms.  The output starts as NaN, so an x the line map missed fails
    any comparison.
    """
    ctx = sphere.ctx
    q, d = ctx.q, ctx.d
    m = sphere.points
    out = np.full(ctx.size, np.nan, dtype=np.complex128)
    out[0] = sphere.cardinality
    reps, line_flat = _lines(ctx)
    span = d * (q - 1) + 1  # dots lie in [0, span)
    chi_line = ctx.chi_values[-np.outer(np.arange(span), np.arange(1, q)) % q]
    tables = [(np.outer(np.arange(q), m[:, i]) % q).astype(np.int32) for i in range(d)]
    chunk = max(1, fourier.NAIVE_BUDGET // len(m))  # S_j is never empty for d >= 2
    for lo in range(0, len(reps), chunk):
        rows = reps[lo : lo + chunk]
        dots = tables[0][rows[:, 0]]
        for i in range(1, d):
            dots += tables[i][rows[:, i]]
        dots += (span * np.arange(len(rows), dtype=np.int32))[:, None]  # one bin range per row
        counts = np.bincount(dots.ravel(), minlength=len(rows) * span)
        out[line_flat[lo : lo + chunk]] = counts.reshape(len(rows), span) @ chi_line
    return out


def _pair_class(ctx: FieldCtx, n, t) -> np.ndarray:
    """The class in 0..q+2 of the pair (n, t) = (||m'||, m' . x') mod q.

    The line sum sum_{mu in F_q^*, mu^2 n = j} chi(-mu t) depends on (n, t)
    only through this class: u = t^2 / n in 1..q-1 when n, t != 0 (put
    s = mu t, so s^2 = j u); 0 for (0, 0); q for n = 0, t != 0; q + 1 and
    q + 2 for t = 0 with eta(n) = +1 and -1.
    """
    q = ctx.q
    n, t = np.asarray(n) % q, np.asarray(t) % q
    u = t * t % q * ctx.inv_table[n] % q
    by_eta = q + (3 - ctx.eta_values[n]) // 2
    return np.where(n == 0, np.where(t == 0, 0, q), np.where(t == 0, by_eta, u))


def _class_table(ctx: FieldCtx) -> np.ndarray:
    """The real (q + 3) x q table of sum_{mu in F_q^*, mu^2 n = j} cos(2 pi mu t / q).

    Row c is that line sum at every j for one pair (n, t) of class c
    (``_pair_class``): (0, 0) for c = 0, (1/u, 1) for c = u in 1..q-1,
    then (0, 1), (1, 0) and (g, 0) with g a nonsquare.  It is real because
    mu and -mu both solve mu^2 n = j.
    """
    q = ctx.q
    nonsquare = int(np.argmax(ctx.eta_values < 0))
    n = np.concatenate([[0], ctx.inv_table[1:], [0, 1, nonsquare]])
    t = np.concatenate([[0], np.ones(q - 1, dtype=np.int64), [1, 0, 0]])
    mu = np.arange(1, q)
    table = np.zeros((q + 3, q))
    cosines = ctx.chi_values.real[np.outer(t, mu) % q]
    np.add.at(table, (np.arange(q + 3)[:, None], np.outer(n, mu * mu) % q), cosines)
    return table


def _line_pair_chunks(ctx: FieldCtx) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Brute-force transforms of every sphere at once, from exact counts over pairs of lines.

    Yields (flat, values) with values[i, j] = T[j, flat[i]], where
    T[j, x] = sum_{m in S_j} chi(-m . x): the origin first, then the lines
    through it in chunks of their representatives x' (``_lines``).  Every
    nonzero m is mu m' for one representative m' and one mu in F_q^*, so

        T[j, x'] = [j = 0] + sum_{m'} sum_{mu: mu^2 ||m'|| = j} chi(-mu (m' . x')),

    whose inner sum is the ``_class_table`` row of the class of
    (||m'||, m' . x') (``_pair_class``).  Each dot is summed term by term
    from d per-axis int32 tables A_i[a, m'] = a m'_i mod q, the first
    offset by ||m'|| span so the sum keys a class lookup; one bincount
    counts the classes of a chunk and one float64 product gives T[j, x'].
    The rest of the line is one gather, T[j, lambda x'] = T[lambda^2 j, x']
    (substitute m -> lambda m).  No Gauss, Kloosterman or Salie sum enters
    and nothing is factored through the axes: every pair (m', x'), about
    q^{2d-2}, is visited.  A chunk holds max(1, NAIVE_BUDGET //
    max(#representatives, q^2)) lines.  ``sphere_ft_counted`` is its oracle.
    """
    q, d = ctx.q, ctx.d
    reps, line_flat = _lines(ctx)
    span = d * (q - 1) + 1  # dots lie in [0, span)
    field = np.arange(q)
    lookup = _pair_class(ctx, field[:, None], field)[:, np.arange(span) % q].ravel()  # [n span + dot]
    table = _class_table(ctx)
    keys = ((reps * reps).sum(axis=1) % q * span).astype(np.int32)  # ||m'|| span
    tables = [(np.outer(np.arange(q), reps[:, i]) % q).astype(np.int32) for i in range(d)]
    tables[0] += keys
    origin = np.bincount(lookup[keys], minlength=q + 3) @ table  # every dot is 0
    origin[0] += 1  # m = 0
    yield np.zeros(1, dtype=np.int64), origin[None, :]
    scaled = np.outer(np.arange(1, q) ** 2, np.arange(q)) % q  # [lambda - 1, j] = lambda^2 j
    chunk = max(1, fourier.NAIVE_BUDGET // max(len(reps), q * q))
    for lo in range(0, len(reps), chunk):
        rows = reps[lo : lo + chunk]
        key = tables[0][rows[:, 0]]
        for i in range(1, d):
            key += tables[i][rows[:, i]]
        classes = lookup[key]
        classes += (q + 3) * np.arange(len(rows))[:, None]  # one bin range per row
        counts = np.bincount(classes.ravel(), minlength=len(rows) * (q + 3))
        line = counts.reshape(len(rows), q + 3).astype(np.float64) @ table
        line[:, 0] += 1  # m = 0
        yield line_flat[lo : lo + chunk].ravel(), line[:, scaled].reshape(-1, q)


def _closed_tail(ctx: FieldCtx, j: int, t: int) -> complex:
    """The non-delta part of the closed form, as a function of t = ||x||."""
    q = ctx.q
    G = expsums.gauss(ctx, 1)
    a = (-j) % q
    b = (-inv(ctx, 4 % q) * t) % q
    tw = (expsums.kloosterman if ctx.d % 2 == 0 else expsums.salie)(ctx, a, b)
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


def _kernel_at(ctx: FieldCtx, j, t) -> np.ndarray:
    """K[j, t] of ``sphere_ft_kernel`` at index arrays j, t in 0..q-1, broadcast together.

    Row j = 0, 1 is sum_u w_j[u] chi(u t), q times the inverse DFT of w_j,
    one ``numpy.fft`` call in O(q log q) time and O(q) temporaries, with
    w_j[u] = G^d / q chi(-j s), times eta(s) for odd d, s = -u^{-1} / 4 and
    w_j[0] = 0.  Other rows are gathers: K(a, b) depends only on ab and
    S(a, b) = eta(a) S(1, ab) (Iwaniec-Kowalski, *Analytic Number Theory*,
    12.3), so K[j, t] = K[1, jt] for j != 0, times eta(j) for odd d.
    """
    q = ctx.q
    twist = ctx.eta_values if ctx.d % 2 == 1 else np.ones(q, dtype=np.int64)
    s = -ctx.inv_table[4 * np.arange(q) % q] % q  # s at u = 0, ..., q - 1
    w = expsums.gauss(ctx, 1) ** ctx.d * twist[s] * ctx.chi_values[-np.outer([0, 1], s) % q]
    w[:, 0] = 0
    row0, row1 = np.fft.ifft(w).real  # adds the terms at u and -u, conjugate up to rounding
    values = row1[j * t % q]
    values *= twist[j]
    np.copyto(values, row0[t], where=j == 0)
    return values


def sphere_ft_kernel(ctx: FieldCtx) -> np.ndarray:
    """The real q x q table K[j, t] of the non-delta closed form at ||x|| = t.

    K is real, since S_j = -S_j, and gathered from its two computed rows
    (``_kernel_at``).  The complex ``_closed_tail`` is its scalar oracle.
    """
    field = np.arange(ctx.q)
    return _kernel_at(ctx, field[:, None], field)


def sphere_ft_closed_grid(ctx: FieldCtx, j: int) -> np.ndarray:
    """Closed-form transform at every dual point, lex order."""
    out = _kernel_at(ctx, j % ctx.q, np.arange(ctx.q))[ctx.grid_norms()]
    out[0] += ctx.q ** (ctx.d - 1)  # flat index 0 is the origin
    return out


def sphere_count_closed(ctx: FieldCtx, j: int) -> int:
    """Sphere cardinality recovered from the closed form at x = 0."""
    value = sphere_ft_closed(ctx, j, [0] * ctx.d)
    nearest = round(value.real)
    if abs(value - nearest) > CLOSED_FORM_TOL:
        raise RoundingMismatch(
            f"closed-form count {value} is not within {CLOSED_FORM_TOL} of an integer"
        )
    return int(nearest)


def verify_closed_form(ctx: FieldCtx) -> tuple[float, tuple[int, tuple[int, ...]] | None]:
    """Exhaustive brute-force-vs-closed comparison over all j and all x.

    The brute-force side is ``_line_pair_chunks``, every radius at once;
    each chunk is compared as it arrives with the closed side, which reads
    one kernel table, built once, at the norm of each x.  No q x q^d table
    is held.  Returns the maximum absolute discrepancy (NaN if any value is
    NaN) and the first (j, x), smallest j first and then x in lex order,
    whose error is not at most ``CLOSED_FORM_TOL`` (None when every point
    agrees), so a NaN anywhere is a failure.  Raises ``TooLarge`` when
    q^(2d-1) exceeds ``GRID_BUDGET``: about the number of (m, x) pairs its
    oracle ``sphere_ft_counted`` visits, where this route visits about
    q^(2d-2) pairs of lines.
    """
    ctx.check_budget(2 * ctx.d - 1)
    by_norm = np.ascontiguousarray(sphere_ft_kernel(ctx).T)  # [t, j]
    norms = ctx.grid_norms()
    worst = []
    first = np.full(ctx.q, ctx.size)  # per j, the smallest bad flat index
    for flat, brute in _line_pair_chunks(ctx):
        err = by_norm[norms[flat]]  # the closed side, then its error in place
        err[flat == 0] += ctx.q ** (ctx.d - 1)  # the origin
        err -= brute
        np.abs(err, out=err)
        worst.append(err.max())
        if not worst[-1] <= CLOSED_FORM_TOL:
            bad = ~(err <= CLOSED_FORM_TOL)
            first = np.minimum(first, np.where(bad, flat[:, None], ctx.size).min(axis=0))
    bad_j = np.flatnonzero(first < ctx.size)
    first_bad = None
    if bad_j.size:
        j = int(bad_j[0])
        first_bad = (j, tuple(int(c) for c in ctx.grid_points()[first[j]]))
    return float(np.max(worst)), first_bad  # np.max keeps a NaN
