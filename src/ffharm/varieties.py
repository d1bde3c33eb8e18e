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
FFTs, rounded to integers under an a-priori error bound, O(d q^2 log q)
for a separable P such as the paraboloid; past that bound it is the exact
int64 convolution, O(d q^3).  One block of all d variables costs one
evaluation on the grid.

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
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    EmptyVarietyWarning,
    NegativeExponent,
    ParseError,
    RoundingMismatch,
    UnknownVariable,
)
from .field import FieldCtx, cyclic_convolve
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


def _transform_error_bound(q: int, d: int) -> float:
    """A-priori bound on max |fl(H) - H| for the transform route of ``_radius_counts``.

    Write u = 2^-53, gamma_k = k u / (1 - k u), and following Higham,
    *Accuracy and Stability of Numerical Algorithms*, Sec. 24.1, let
    eta = u + gamma_4 (sqrt 2 + u): a transform made of t passes, with
    accurately computed weights, has normwise relative error at most
    t eta / (1 - t eta).  pocketfft runs the prime length q by Bluestein's
    algorithm: two chirp products and three transforms of one length
    m <= 2^ceil(log2(2q - 1)), each at most log2 m passes.  So every
    length-q transform is charged eps1 = eta (3 ceil(log2(2q - 1)) + 2),
    and a 2-D transform of the q x q table (rows, then columns)
    eps2 = 2 eps1 + eps1^2 in the Frobenius norm.

    Each block table T_k of n_k variables has entries summing to q^{n_k}.
    Its column t sums to the n_k-dimensional sphere size |S_t| <= 2 q^{n_k - 1}
    (for n_k = 1, |S_t| = #{y : y^2 = t} <= 2), which bounds every entry, so
    ||T_k||_F <= sqrt(2/q) q^{n_k}; likewise ||H||_F <= sqrt(2/q) q^d.  The
    exact transform X_k = fft2(T_k) has ||X_k||_F = q ||T_k||_F and
    |X_k| <= q^{n_k} entrywise; the computed one is off by E_k with
    ||E_k||_F <= eps2 ||X_k||_F.  At most d blocks enter the product P,
    whose d - 1 complex products round by at most 2 sqrt(2) u each
    (Higham, Lemma 3.5), so to first order

        ||fl(P) - P||_F <= q sqrt(2/q) q^d (d eps2 + (d - 1) 2 sqrt(2) u).

    ifft2 divides the Frobenius norm by q and adds its own eps2 ||H||_F,
    and the max norm is at most the Frobenius norm, so

        max |fl(H) - H| <= sqrt(2/q) q^d ((d + 1) eps2 + (d - 1) 2 sqrt(2) u).

    The returned bound is this times _TRANSFORM_SAFETY = 10, which covers
    the second-order terms, Bluestein's convolution (whose growth the
    normwise model does not see), pocketfft's radices above 2, and the
    direct O(q^2) pass it takes instead for q below about 70, whose
    normwise bound is about q^{3/2} u (Higham, Sec. 24.1).  It depends on
    q and d alone: about 0.12 at (1009, 4), 3.5e-3 at (4001, 3) and 680 at
    (31, 10).
    """
    u = 2.0**-53  # unit roundoff of IEEE double
    eta = u + 4 * u / (1 - 4 * u) * (math.sqrt(2) + u)
    eps1 = eta * (3 * math.ceil(math.log2(2 * q - 1)) + 2)
    eps2 = 2 * eps1 + eps1 * eps1
    first_order = (d + 1) * eps2 + (d - 1) * 2 * math.sqrt(2) * u
    return _TRANSFORM_SAFETY * math.sqrt(2 / q) * float(q) ** d * first_order


def _radius_counts(ctx: FieldCtx, expr: PolyExpr) -> np.ndarray:
    """``|V cap S_t|`` for every t, from the joint histogram of the block tables.

    The joint histogram H[a, t] = #{x : P(x) - c = a, ||x|| = t} is the
    cyclic convolution on Z_q x Z_q of the block tables, and V is its row
    a = -c.  Its entries sum to q^d < 2^63.  Two routes compute it, chosen
    by q and d alone:

    - the transform route, when ``_transform_error_bound(q, d)`` is below
      1/2: the product of the tables' ``np.fft.fft2`` transforms, inverted
      by ``ifft2`` and rounded to int64.  Every entry is then within 1/2 of
      its integer, so rounding returns it exactly; O(d q^2 log q).
    - otherwise the exact int64 ``cyclic_convolve`` of the tables,
      O(q^3) per block.

    On either route the column sums of H must equal ``sphere_sizes``, an
    exact invariant checked in integers; a mismatch raises
    RoundingMismatch.
    """
    q = ctx.q
    blocks, constants = _blocks(expr, ctx.d)
    tables = (_block_table(ctx, axes, terms) for axes, terms in blocks)
    if _transform_error_bound(q, ctx.d) < 0.5:
        spectrum = np.fft.fft2(next(tables))
        for table in tables:
            spectrum *= np.fft.fft2(table)
        joint = np.rint(np.fft.ifft2(spectrum).real).astype(np.int64)
    else:
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
