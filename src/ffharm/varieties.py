"""Algebraic varieties in the dual grid, defined by one polynomial equation.

Built-ins (paraboloid, plane, sphere of a given radius) and arbitrary
user polynomials over variables x1..xd share a single code path, which
counts V by sphere radius without enumerating F_q^d.  The top-level
additive terms of P split its variables into blocks (variables that share
a term share a block), so P = sum_B f_B(x_B) + c.  Each block is
enumerated on its own, q^|B| points, into a q x q table of (f_B, block
norm) pairs; the cyclic convolution of the tables on Z_q x Z_q is the
joint histogram of (P - c, ||x||), and its row where P = 0 holds
|V cap S_t| for every radius t.  The convolution is a product of 2-D
discrete Fourier transforms, one per distinct block, rounded to integers
under an a-priori error bound: products with the DFT matrix for small q,
real FFTs above, O(d q^2 log q) for a separable P such as the paraboloid;
past that bound it is the exact int64 convolution, O(d q^3).  One block
of all d variables costs one evaluation on the grid.

The points of V themselves (``Variety.flat``, lex flat indices) come from
evaluating P by broadcasting over the d coordinate axes, on demand and
within GRID_BUDGET; they are the test oracle of the counts.

Polynomial grammar (whitespace-insensitive ASCII):

    expr   := term (('+' | '-') term)*        left associative
    term   := unary ('*' unary)*              left associative
    unary  := '-' unary | power
    power  := atom ('^' INT)*
    atom   := INT | 'x' INT | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*'.
Exponents must be nonnegative integer literals.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    EmptyVarietyWarning,
    NegativeExponent,
    ParseError,
    RoundingMismatch,
    TooLarge,
    UnknownVariable,
)
from .field import GRID_BUDGET, FieldCtx, cyclic_convolve
from .spheres import sphere_sizes


# ---------------------------------------------------------------------------
# Polynomial AST


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    operand: "PolyExpr"


@dataclass(frozen=True)
class Add:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Sub:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Mul:
    left: "PolyExpr"
    right: "PolyExpr"


@dataclass(frozen=True)
class Pow:
    base: "PolyExpr"
    exponent: int


PolyExpr = Union[Lit, Var, Neg, Add, Sub, Mul, Pow]

_TOKEN_RE = re.compile(r"(\d+)|x(\d+)|([+\-*^()])|(\S)")


class _Parser:
    def __init__(self, src: str, d: int):
        self.src = src
        self.d = d
        self.tokens: list[tuple[str, object, int]] = []
        for m in _TOKEN_RE.finditer(src):
            pos = m.start()
            if m.group(1) is not None:
                self.tokens.append(("INT", int(m.group(1)), pos))
            elif m.group(2) is not None:
                idx = int(m.group(2))
                if not 1 <= idx <= d:
                    raise UnknownVariable(f"variable x{idx} outside x1..x{d}", pos)
                self.tokens.append(("VAR", idx, pos))
            elif m.group(3) is not None:
                self.tokens.append(("OP", m.group(3), pos))
            else:
                raise ParseError(f"unexpected character {m.group(4)!r}", pos)
        self.tokens.append(("END", None, len(src)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "OP" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> PolyExpr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    # term := unary ('*' unary)*
    def parse_term(self) -> PolyExpr:
        node = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val == "*":
                self.advance()
                node = Mul(node, self.parse_unary())
            else:
                return node

    # unary := '-' unary | power
    def parse_unary(self) -> PolyExpr:
        kind, val, _ = self.peek()
        if kind == "OP" and val == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    # power := atom ('^' INT)*
    def parse_power(self) -> PolyExpr:
        node = self.parse_atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val == "^":
                self.advance()
                ekind, eval_, epos = self.peek()
                if ekind == "OP" and eval_ == "-":
                    raise NegativeExponent("exponent must be nonnegative", epos)
                if ekind != "INT":
                    raise ParseError("exponent must be an integer literal", epos)
                self.advance()
                node = Pow(node, int(eval_))
            else:
                return node

    def parse_atom(self) -> PolyExpr:
        kind, val, pos = self.advance()
        if kind == "INT":
            return Lit(int(val))
        if kind == "VAR":
            return Var(int(val))
        if kind == "OP" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_poly(src: str, d: int) -> PolyExpr:
    """Parse a polynomial over x1..xd; see the module docstring for grammar."""
    if not src or not src.strip():
        raise ParseError("empty polynomial source", 0)
    parser = _Parser(src, d)
    node = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "END":
        raise ParseError(f"trailing input {val!r}", pos)
    return node


# Binding strength used by the printer: values below the context's
# requirement get parenthesized so that parse(pretty_print(e)) == e.
_STRENGTH = {Add: 0, Sub: 0, Mul: 1, Neg: 2, Pow: 3, Lit: 4, Var: 4}


def pretty_print(expr: PolyExpr) -> str:
    """Render an AST to source that reparses to the identical AST."""

    def render(node: PolyExpr, need: int) -> str:
        s = _STRENGTH[type(node)]
        if isinstance(node, Lit):
            text = str(node.value)
        elif isinstance(node, Var):
            text = f"x{node.index}"
        elif isinstance(node, Neg):
            text = "-" + render(node.operand, 2)
        elif isinstance(node, Add):
            text = render(node.left, 0) + " + " + render(node.right, 1)
        elif isinstance(node, Sub):
            text = render(node.left, 0) + " - " + render(node.right, 1)
        elif isinstance(node, Mul):
            text = render(node.left, 1) + "*" + render(node.right, 2)
        elif isinstance(node, Pow):
            text = render(node.base, 4) + "^" + str(node.exponent)
        else:
            raise TypeError(f"not a PolyExpr node: {node!r}")
        return f"({text})" if s < need else text

    return render(expr, 0)


def eval_poly(expr: PolyExpr, point, q: int) -> int:
    """Evaluate at a single point; coordinates are 1-based in the source."""
    if isinstance(expr, Lit):
        return expr.value % q
    if isinstance(expr, Var):
        return int(point[expr.index - 1]) % q
    if isinstance(expr, Neg):
        return (-eval_poly(expr.operand, point, q)) % q
    if isinstance(expr, Add):
        return (eval_poly(expr.left, point, q) + eval_poly(expr.right, point, q)) % q
    if isinstance(expr, Sub):
        return (eval_poly(expr.left, point, q) - eval_poly(expr.right, point, q)) % q
    if isinstance(expr, Mul):
        return (eval_poly(expr.left, point, q) * eval_poly(expr.right, point, q)) % q
    if isinstance(expr, Pow):
        return pow(eval_poly(expr.base, point, q), expr.exponent, q)
    raise TypeError(f"not a PolyExpr node: {expr!r}")


def _pow_mod_vec(base: np.ndarray, k: int, q: int) -> np.ndarray:
    out = np.ones_like(base)
    base = base % q
    while k:
        if k & 1:
            out = (out * base) % q
        base = (base * base) % q
        k >>= 1
    return out


def _eval_axes(expr: PolyExpr, axes, q: int) -> np.ndarray:
    """Evaluate with ``axes[k]`` holding the values of x_{k+1}.

    The axes form an open mesh (``np.ix_``): each node's result has full
    extent only along the axes of the variables it uses.  A constant comes
    back as a scalar; callers broadcast the result.
    """
    if isinstance(expr, Lit):
        return np.int64(expr.value % q)
    if isinstance(expr, Var):
        return axes[expr.index - 1] % q
    if isinstance(expr, Pow):
        return _pow_mod_vec(_eval_axes(expr.base, axes, q), expr.exponent, q)
    if isinstance(expr, Neg):
        out = -_eval_axes(expr.operand, axes, q)
    elif isinstance(expr, (Add, Sub, Mul)):
        left = _eval_axes(expr.left, axes, q)
        right = _eval_axes(expr.right, axes, q)
        if isinstance(expr, Add):
            out = left + right
        elif isinstance(expr, Sub):
            out = left - right
        else:
            out = left * right
    else:
        raise TypeError(f"not a PolyExpr node: {expr!r}")
    # out is a fresh array (or scalar), so reducing in place halves the peak
    out %= q
    return out


# ---------------------------------------------------------------------------
# Varieties


def paraboloid_expr(d: int) -> PolyExpr:
    node: PolyExpr = Pow(Var(1), 2)
    for k in range(2, d):
        node = Add(node, Pow(Var(k), 2))
    return Sub(node, Var(d))


def plane_expr(d: int) -> PolyExpr:
    node: PolyExpr = Var(1)
    for k in range(2, d + 1):
        node = Add(node, Var(k))
    return node


def sphere_expr(d: int, t: int) -> PolyExpr:
    node: PolyExpr = Pow(Var(1), 2)
    for k in range(2, d + 1):
        node = Add(node, Pow(Var(k), 2))
    return Sub(node, Lit(t))


class Variety:
    """A hypersurface in the dual grid: zero set of one polynomial P.

    The restriction routines see V only through ``radius_counts`` (the
    int64 counts ``|V cap S_t|`` for t in F_q), ``cardinality`` and
    ``contains_zero``, which :func:`build_variety` computes without
    enumerating F_q^d.  ``flat``, V's lex flat indices, evaluates P on the
    whole grid when first read, within ``GRID_BUDGET``; it is the oracle of
    the counts (``ctx.grid_norms()[flat]`` are the norms of V).

    ``size_ok`` is the working hypothesis that the variety behaves like a
    hypersurface, quantified as |V| within a factor 4 of q^{d-1}.  We never
    refuse to compute on a variety that violates it; reports carry the flag.
    """

    def __init__(self, ctx: FieldCtx, label: str, expr: PolyExpr, radius_counts: np.ndarray):
        self.ctx = ctx
        self.label = label
        self.expr = expr
        radius_counts.setflags(write=False)
        self.radius_counts = radius_counts
        self.cardinality = int(radius_counts.sum())
        self.contains_zero = eval_poly(expr, (0,) * ctx.d, ctx.q) == 0

    @cached_property
    def flat(self) -> np.ndarray:
        """Lex flat indices of the points of V, from P on the whole grid."""
        ctx = self.ctx
        ctx.check_budget()
        # C order of the (q,)*d mesh is the lex order of flat indices
        axes = np.ix_(*[np.arange(ctx.q, dtype=np.int64)] * ctx.d)
        zero = _eval_axes(self.expr, axes, ctx.q) == 0
        flat = np.flatnonzero(np.broadcast_to(zero, (ctx.q,) * ctx.d))
        flat.setflags(write=False)
        return flat

    @property
    def size_ok(self) -> bool:
        hyp = self.ctx.q ** (self.ctx.d - 1)
        return hyp / 4 <= self.cardinality <= 4 * hyp

    def __repr__(self) -> str:
        return (
            f"Variety({self.label!r}, q={self.ctx.q}, d={self.ctx.d}, "
            f"n={self.cardinality})"
        )


def _signed_terms(expr: PolyExpr, sign: int = 1):
    """The top-level additive terms of expr, each with its sign (+1 or -1)."""
    if isinstance(expr, (Add, Sub)):
        yield from _signed_terms(expr.left, sign)
        yield from _signed_terms(expr.right, -sign if isinstance(expr, Sub) else sign)
    elif isinstance(expr, Neg):
        yield from _signed_terms(expr.operand, -sign)
    else:
        yield sign, expr


def _variables(expr: PolyExpr) -> frozenset[int]:
    """The 0-based axes of the variables expr uses."""
    if isinstance(expr, Var):
        return frozenset([expr.index - 1])
    if isinstance(expr, Lit):
        return frozenset()
    if isinstance(expr, Neg):
        return _variables(expr.operand)
    if isinstance(expr, Pow):
        return _variables(expr.base)
    return _variables(expr.left) | _variables(expr.right)


def _blocks(expr: PolyExpr, d: int):
    """Split P into variable blocks: P = sum over blocks of f_B(x_B) + c.

    Variables that share a top-level additive term share a block.  Returns
    the blocks as (axes, signed terms) pairs, an unused variable being a
    block with no terms (f = 0), and the signed constant terms making up c.
    """
    blocks: list[tuple[frozenset[int], list]] = [(frozenset([k]), []) for k in range(d)]
    constants = []
    for sign, term in _signed_terms(expr):
        used = _variables(term)
        if not used:
            constants.append((sign, term))
            continue
        joined_axes, joined_terms, rest = used, [(sign, term)], []
        for axes, terms in blocks:
            if axes & used:
                joined_axes |= axes
                joined_terms += terms
            else:
                rest.append((axes, terms))
        blocks = rest + [(joined_axes, joined_terms)]
    return blocks, constants


def _block_table(ctx: FieldCtx, axes: frozenset[int], terms) -> np.ndarray:
    """The q x q table F[a, t] = #{y in F_q^axes : f(y) = a, ||y|| = t}.

    f is the sum of the signed terms, evaluated by ``_eval_axes`` on the
    open mesh of the block's axes, so the cost is q^|axes| points.
    """
    q, n = ctx.q, len(axes)
    ctx.check_budget(n)
    mesh = np.ix_(*[np.arange(q, dtype=np.int64)] * n)
    coords: list = [None] * ctx.d
    for k, axis in zip(sorted(axes), mesh):
        coords[k] = axis
    value = sum(sign * _eval_axes(term, coords, q) for sign, term in terms) % q
    squares = np.arange(q, dtype=np.int64) ** 2 % q
    norm = sum(squares[axis] for axis in mesh) % q
    pairs = np.broadcast_to(value, (q,) * n) * q + norm
    return np.bincount(pairs.ravel(), minlength=q * q).reshape(q, q)


# the factor _transform_error_bound's first-order model is multiplied by
_TRANSFORM_SAFETY = 10

_U = 2.0**-53  # unit roundoff of IEEE double
_ETA = _U + 4 * _U / (1 - 4 * _U) * (math.sqrt(2) + _U)


@lru_cache(maxsize=None)
def _direct_pass(q: int, real: bool) -> bool:
    """Whether numpy's pocketfft runs length q by its direct O(q^2) pass.

    Asked of the installed numpy, real or complex transform, rather than
    of a table of its planner's choices.  The direct pass pairs x_j with
    x_{q-j}, so a real input with x_j = x_{q-j} gets an exactly real
    transform from it; Bluestein's chirps leave rounding in the imaginary
    parts.  A Bluestein transform that came out exactly real would only
    be charged the larger direct-pass error.
    """
    y = np.sqrt(np.arange(1.0, q))
    x = np.concatenate(([1.0], y + y[::-1]))
    return not (np.fft.rfft(x) if real else np.fft.fft(x)).imag.any()


def _pass_error(q: int, direct: bool) -> float:
    """Normwise relative error bound of one length-q pocketfft pass; see ``_transform_error_bound``."""
    bluestein = _ETA * (3 * math.ceil(math.log2(2 * q - 1)) + 2)
    if not direct:
        return bluestein
    gamma = q * _U / (1 - q * _U)
    return max(bluestein, math.sqrt(q) * (_ETA + gamma + _ETA * gamma))


# the largest q transformed as products with the DFT matrix: on a 2-vCPU
# VM BLAS took 0.2-0.5 of pocketfft's time from q = 31 to 211, and the two
# crossed over, noisily, between q = 400 and 700
_MATRIX_DFT_MAX_Q = 211

# the largest |computed - exact| of an entry of _dft_matrix: its angle
# 2 pi m / q, with |m| <= q / 2, is off by at most 3 pi u, and np.cos and
# np.sin by at most 4 ulp
_WEIGHT_ERROR = (3 * math.pi + 4 * math.sqrt(2)) * _U


def _dft_matrix(q: int) -> np.ndarray:
    """The q x q matrix of exp(-2 pi i jk / q), each entry within _WEIGHT_ERROR."""
    m = np.arange(q)
    theta = -2 * np.pi * np.where(2 * m > q, m - q, m) / q
    roots = np.cos(theta) + 1j * np.sin(theta)
    return roots[np.outer(m, m) % q]


def _matrix_rfft2(table: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """``np.fft.rfft2(table)`` as two products with the DFT matrix."""
    return dft @ (table @ dft[:, : len(dft) // 2 + 1])


def _matrix_irfft2(half: np.ndarray, dft: np.ndarray) -> np.ndarray:
    """``np.fft.irfft2(half, s=(q, q))`` for odd q as two products with the conjugate DFT matrix."""
    q = len(dft)
    inverse = dft.conj()
    z = inverse @ half
    z[:, 1:] *= 2  # the columns the half spectrum stands for twice
    return (z @ inverse[: q // 2 + 1]).real / (q * q)


def _transform_error_bound(q: int, d: int, route: str = "real") -> float:
    """A-priori bound on max |fl(H) - H| for a transform route of ``_radius_counts``.

    ``route`` is "matrix" (``_matrix_rfft2`` and ``_matrix_irfft2``),
    "real" (``rfft2`` and ``irfft2``) or "complex" (``fft2`` and
    ``ifft2``).  Write u = 2^-53, gamma_k = k u / (1 - k u), and following
    Higham, *Accuracy and Stability of Numerical Algorithms*, Sec. 24.1,
    let eta = u + gamma_4 (sqrt 2 + u), the error of one product by an
    accurately computed weight.  A transform made of t passes has normwise
    relative error at most t eta / (1 - t eta).

    Passes.  Each 2-D transform is a pass along the rows and one along the
    columns, each charged a normwise relative error:

    - pocketfft's Bluestein algorithm: two chirp products and three
      transforms of one length m <= 2^ceil(log2(2q - 1)), each at most
      log2 m passes, so eps_B = eta (3 ceil(log2(2q - 1)) + 2).
    - pocketfft's direct O(q^2) pass, which ``_direct_pass`` asks numpy
      about (on numpy 2.4 it runs primes up to 109 in the complex
      transform and up to 269 in the real one): each output is a sum of
      q products, so its error is at most (eta + gamma_q + eta gamma_q)
      ||x||_1 <= that times sqrt(q) ||x||_2, and over the q outputs, whose
      exact norm is sqrt(q) ||x||_2, eps_D = sqrt(q) (eta + gamma_q +
      eta gamma_q); it is charged max(eps_D, eps_B) (``_pass_error``).
    - a product with ``_dft_matrix``, whose entries are within
      mu = _WEIGHT_ERROR: BLAS forms each output as a complex dot product
      of length q, whose real and imaginary parts are real dot products of
      length 2q, so its error is at most (mu + sqrt(2) gamma_{2q} (1 + mu))
      ||x||_1 and, as above, eps_M = sqrt(q) (mu + sqrt(2) gamma_{2q}
      (1 + mu)).  The last pass sums only q // 2 + 1 terms, which leaves
      room in gamma_{2q} for its division by q^2.

    Norms.  Each block table T_k of n_k variables has entries summing to
    q^{n_k}.  Its column t sums to the n_k-dimensional sphere size
    |S_t| <= 2 q^{n_k - 1} (for n_k = 1, |S_t| = #{y : y^2 = t} <= 2), which
    bounds every entry, so ||T_k||_F <= sqrt(2/q) q^{n_k}; likewise
    ||H||_F <= sqrt(2/q) q^d.  The exact spectrum X_k of T_k has
    ||X_k||_F = q ||T_k||_F and |X_k| <= q^{n_k} entrywise.  The matrix
    and real routes keep the half spectrum of q // 2 + 1 columns, measured
    in the norm N that counts every column but the first twice: N is the
    Frobenius norm of the full spectrum it stands for, so N(X_k) =
    q ||T_k||_F too, and the inverse maps a half spectrum E to an array of
    Frobenius norm at most N(E) / q.

    Routes.  A complex pass along the columns keeps its relative error in
    N, and so does a pass whose outputs are each bounded through ||x||_1,
    as the direct and matrix passes are.  pocketfft's Bluestein real pass
    is a complex one whose first half is kept, and that half can hold all
    of its error, so it is charged sqrt(2) eps_B in N.  With eps_c the
    charge of a complex pocketfft pass and eps_r that of a real one:

    - matrix: eps_f = eps_i = 2 eps_M + eps_M^2.
    - real: rfft2 is a real pass, then a complex one, so eps_f = eps_r' +
      eps_c + eps_r' eps_c, where eps_r' is eps_r, times sqrt(2) for
      Bluestein's; irfft2 is a complex pass, then a real one reading the
      Hermitian extension of each row, so eps_i = eps_r + eps_c + eps_r eps_c.
    - complex: eps_f = eps_i = 2 eps_c + eps_c^2.

    The computed spectra are off by E_k with N(E_k) <= eps_f q ||T_k||_F.
    At most d blocks enter the product P, whose d - 1 complex products
    round by at most 2 sqrt(2) u each (Higham, Lemma 3.5), so to first
    order N(fl(P) - P) <= q sqrt(2/q) q^d (d eps_f + (d - 1) 2 sqrt(2) u).
    The inverse divides that by q and adds its own eps_i ||H||_F.  The
    max norm is at most the Frobenius norm, so

        max |fl(H) - H| <= sqrt(2/q) q^d (d eps_f + eps_i + (d - 1) 2 sqrt(2) u).

    The returned bound is this times _TRANSFORM_SAFETY = 10, which covers
    the second-order terms, Bluestein's convolution (whose growth the
    normwise model does not see) and pocketfft's radices above 2.  It
    depends on q, d, the route and the installed numpy's FFT planner
    alone: on the real route about 1.1e-4 at (1009, 3), 0.14 at (1009, 4)
    and 4.0e-3 at (4001, 3), on the complex route 0.12 at (1009, 4), and
    on the matrix route 4.1e-5 at (61, 4) and 0.019 at (211, 4).
    """
    if route == "matrix":
        gamma = 2 * q * _U / (1 - 2 * q * _U)
        eps_m = math.sqrt(q) * (_WEIGHT_ERROR + math.sqrt(2) * gamma * (1 + _WEIGHT_ERROR))
        eps_f = eps_i = 2 * eps_m + eps_m * eps_m
    else:
        eps_c = _pass_error(q, _direct_pass(q, False))
        if route == "real":
            direct = _direct_pass(q, True)
            eps_r = _pass_error(q, direct)
            eps_rf = eps_r if direct else math.sqrt(2) * eps_r
            eps_f = eps_rf + eps_c + eps_rf * eps_c
            eps_i = eps_r + eps_c + eps_r * eps_c
        else:
            eps_f = eps_i = 2 * eps_c + eps_c * eps_c
    first_order = d * eps_f + eps_i + (d - 1) * 2 * math.sqrt(2) * _U
    return _TRANSFORM_SAFETY * math.sqrt(2 / q) * float(q) ** d * first_order


def _counts_route(q: int, d: int) -> str:
    """The route ``_radius_counts`` takes at (q, d).

    The first of "matrix" (up to q = _MATRIX_DFT_MAX_Q), "real" and
    "complex" whose ``_transform_error_bound`` is below 1/2, else "int64".
    The matrix route is the fastest where it runs.  The complex route's
    bound is the smaller one where pocketfft's real transform is direct
    and its complex one is not, and where the real route pays sqrt(2) for
    its Bluestein pass, so it keeps the transforms up to the same q as
    before the real route: 1483 for d = 4, 293 for d = 5.
    """
    for route in ("matrix", "real", "complex"):
        if route == "matrix" and q > _MATRIX_DFT_MAX_Q:
            continue
        if _transform_error_bound(q, d, route) < 0.5:
            return route
    return "int64"


def _renamed(expr: PolyExpr, index: dict[int, int]) -> PolyExpr:
    """expr with each variable x_k replaced by x_{index[k]}."""
    if isinstance(expr, Var):
        return Var(index[expr.index])
    if isinstance(expr, Lit):
        return expr
    if isinstance(expr, Neg):
        return Neg(_renamed(expr.operand, index))
    if isinstance(expr, Pow):
        return Pow(_renamed(expr.base, index), expr.exponent)
    return type(expr)(_renamed(expr.left, index), _renamed(expr.right, index))


def _distinct_blocks(blocks) -> dict:
    """Count the blocks that are one polynomial once renamed in axis order.

    A block on axes a_1 < ... < a_n becomes a block on x1..xn with
    x_{a_i + 1} renamed x_i.  Its table depends on nothing else, so blocks
    with equal renamings have equal tables.  Returns {(n, signed terms):
    number of blocks}, in the order the blocks first appear.
    """
    counts: dict = {}
    for axes, terms in blocks:
        index = {k + 1: i + 1 for i, k in enumerate(sorted(axes))}
        key = (len(axes), tuple((sign, _renamed(term, index)) for sign, term in terms))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _route_bytes(q: int, blocks: int, route: str) -> int:
    """Peak bytes of the arrays one route of ``_radius_counts`` holds at once.

    A q x q int64 or float64 table takes 8 q^2 bytes, a complex128
    spectrum 16 q^2, and a half spectrum 16 q (q // 2 + 1).  A pocketfft
    route holds at most the spectrum and one block table while the
    forward transform holds the spectra of its two passes; after it, the
    inverse holds two spectra and its output, then that output and its
    rounded int64 copy.  The matrix route's inverse holds the DFT matrix
    and its conjugate, two half spectra, and the complex q x q product
    with its real part.  The int64 route holds every block table and
    ``cyclic_convolve``'s output and its two temporaries.  The enumeration
    of a block is bounded by GRID_BUDGET points on its own.
    """
    table, full, half = 8 * q * q, 16 * q * q, 16 * q * (q // 2 + 1)
    if route == "int64":
        return (blocks + 3) * table
    if route == "matrix":
        return 3 * full + 2 * half + table
    return table + 3 * (half if route == "real" else full)


def _radius_counts(ctx: FieldCtx, expr: PolyExpr) -> np.ndarray:
    """``|V cap S_t|`` for every t, from the joint histogram of the block tables.

    The joint histogram H[a, t] = #{x : P(x) - c = a, ||x|| = t} is the
    cyclic convolution on Z_q x Z_q of the block tables, and V is its row
    a = -c.  Its entries sum to q^d < 2^63.  ``_counts_route`` picks the
    route from q, d and the installed numpy's FFT planner alone:

    - a transform route: the product of the tables' half spectra, by
      products with the DFT matrix ("matrix", O(q^3) per transform, but
      the fastest up to q = _MATRIX_DFT_MAX_Q) or by ``np.fft.rfft2``
      ("real"), inverted likewise, or the product of their ``fft2``
      spectra, inverted by ``ifft2`` ("complex"), rounded to int64.  Its
      ``_transform_error_bound`` is below 1/2, so every entry is within
      1/2 of its integer and rounding returns it exactly.  Blocks that are one polynomial once renamed
      (``_distinct_blocks``), such as the paraboloid's d - 1 squares, share
      one table and one transform, by which the spectrum is multiplied
      once per block.
    - otherwise the exact int64 ``cyclic_convolve`` of the tables, each
      block enumerated on its own, O(q^3) per block.

    Before any route allocates, its peak bytes (``_route_bytes``) are checked
    against 8 GRID_BUDGET, the bytes of the int64 grid the budget admits;
    more raises TooLarge.  On every route the column sums of H must equal
    ``sphere_sizes``, an exact invariant checked in integers; a mismatch
    raises RoundingMismatch.
    """
    q = ctx.q
    blocks, constants = _blocks(expr, ctx.d)
    route = _counts_route(q, ctx.d)
    need = _route_bytes(q, len(blocks), route)
    if need > 8 * GRID_BUDGET:
        raise TooLarge(
            f"counting {pretty_print(expr)} at q={q}, d={ctx.d} needs about {need} bytes, "
            f"over the budget of {8 * GRID_BUDGET}"
        )
    if route != "int64":
        if route == "matrix":
            dft = _dft_matrix(q)
        forward = {
            "matrix": lambda table: _matrix_rfft2(table, dft),
            "real": np.fft.rfft2,
            "complex": np.fft.fft2,
        }[route]
        spectrum = None
        for (n, terms), count in _distinct_blocks(blocks).items():
            factor = forward(_block_table(ctx, frozenset(range(n)), terms))
            if spectrum is None:
                # the first factor, copied when it multiplies the spectrum again
                spectrum = factor.copy() if count > 1 else factor
                count -= 1
            for _ in range(count):
                spectrum *= factor
            del factor
        if route == "matrix":
            joint = _matrix_irfft2(spectrum, dft)
        elif route == "real":
            joint = np.fft.irfft2(spectrum, s=(q, q))
        else:
            joint = np.fft.ifft2(spectrum).real
        del spectrum
        joint = np.rint(joint, out=joint).astype(np.int64)
    else:
        tables = (_block_table(ctx, axes, terms) for axes, terms in blocks)
        # densest first: the accumulator only grows denser, so it stays cyclic_convolve's shifted a
        tables = sorted(tables, key=np.count_nonzero)
        joint = tables.pop()
        for table in tables:
            joint = cyclic_convolve(joint, table)
    if not np.array_equal(joint.sum(axis=0), sphere_sizes(ctx)):
        raise RoundingMismatch(
            f"joint histogram of {pretty_print(expr)} at q={q}, d={ctx.d} "
            "does not sum to the sphere sizes"
        )
    c = sum(sign * eval_poly(term, (), q) for sign, term in constants)
    return joint[-c % q].copy()


def build_variety(ctx: FieldCtx, spec: Union[str, PolyExpr]) -> Variety:
    """Build a variety from a name or a polynomial.

    Accepted names: ``"paraboloid"``, ``"plane"``, ``"sphere:<t>"``, or
    ``"poly:<source>"``; a bare :data:`PolyExpr` is used directly.  Counts
    come from the polynomial's variable blocks, so only each block is
    enumerated; a block over ``GRID_BUDGET`` points, or q^d >= 2^63 (past
    exact int64 counts), raises TooLarge.
    """
    ctx.check_int64_counts()
    if isinstance(spec, str):
        name = spec.strip().lower()
        if name == "paraboloid":
            label, expr = "paraboloid", paraboloid_expr(ctx.d)
        elif name == "plane":
            label, expr = "plane", plane_expr(ctx.d)
        elif name.startswith("sphere:"):
            radius = name.split(":", 1)[1]
            try:
                t = int(radius) % ctx.q
            except ValueError:
                raise ParseError(f"sphere radius must be an integer, got {radius!r}", 7)
            label, expr = f"sphere({t})", sphere_expr(ctx.d, t)
        elif name.startswith("poly:"):
            src = spec.strip()[5:]
            label, expr = f"poly({src.strip()})", parse_poly(src, ctx.d)
        else:
            label, expr = f"poly({spec.strip()})", parse_poly(spec, ctx.d)
    else:
        label, expr = f"poly({pretty_print(spec)})", spec
    v = Variety(ctx, label, expr, _radius_counts(ctx, expr))
    if v.cardinality == 0:
        warnings.warn(f"variety {label} is empty", EmptyVarietyWarning, stacklevel=2)
    return v


class IntersectionReport(NamedTuple):
    count: int
    threshold: float
    passes: bool


def zero_sphere_intersection(v: Variety) -> IntersectionReport:
    """Count |V intersect S_0| and compare against q^{(d^2-d-1)/d}.

    The pass flag is the one-sample proxy for the sparse-intersection
    hypothesis; scans across q reveal whether it persists.
    """
    ctx = v.ctx
    count = int(v.radius_counts[0])
    threshold = float(ctx.q ** ((ctx.d**2 - ctx.d - 1) / ctx.d))
    return IntersectionReport(count, threshold, count <= threshold)
