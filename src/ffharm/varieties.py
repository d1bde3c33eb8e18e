"""Algebraic varieties in the dual grid, defined by one polynomial equation.

Built-ins (paraboloid, plane, sphere of a given radius) and arbitrary
user polynomials over variables x1..xd share a single code path: evaluate
the defining polynomial by broadcasting over the d coordinate axes, so
each variable is a length-q axis and no (q^d, d) point grid is built, and
keep the lex flat indices of the zeros.  Point coordinates and norms are
recovered from those indices for the points of V only.

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
    UnknownVariable,
)
from .field import FieldCtx


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

    The axes only need to broadcast against each other: the columns of an
    (n, d) point array, or the open mesh of ``np.ix_``, where each node's
    result has full extent only along the axes of the variables it uses.
    A constant comes back as a scalar; callers broadcast the result.
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


def eval_poly_grid(expr: PolyExpr, pts: np.ndarray, q: int) -> np.ndarray:
    """Vectorized evaluation over an (n, d) array of points."""
    return np.broadcast_to(_eval_axes(expr, pts.T, q), pts.shape[:1]).copy()


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
    """A hypersurface in the dual grid: zero set of one polynomial.

    ``size_ok`` is the working hypothesis that the variety behaves like a
    hypersurface, quantified as |V| within a factor 4 of q^{d-1}.  We never
    refuse to compute on a variety that violates it; reports carry the flag.
    """

    def __init__(self, ctx: FieldCtx, label: str, expr: PolyExpr, flat: np.ndarray):
        self.ctx = ctx
        self.label = label
        self.expr = expr
        self.flat = flat
        self.cardinality = int(flat.size)

    def _coords(self) -> tuple[np.ndarray, ...]:
        return np.unravel_index(self.flat, (self.ctx.q,) * self.ctx.d)

    @property
    def points(self) -> np.ndarray:
        """The (|V|, d) coordinates, lex order."""
        return np.stack(self._coords(), axis=1)

    @cached_property
    def norms(self) -> np.ndarray:
        """``||x|| = x_1^2 + ... + x_d^2 mod q`` for each point of V, lex order."""
        q = self.ctx.q
        squares = np.arange(q, dtype=np.int64) ** 2 % q
        norms = sum(squares[c] for c in self._coords()) % q
        norms.setflags(write=False)
        return norms

    @property
    def size_ok(self) -> bool:
        hyp = self.ctx.q ** (self.ctx.d - 1)
        return hyp / 4 <= self.cardinality <= 4 * hyp

    @property
    def contains_zero(self) -> bool:
        return self.cardinality > 0 and int(self.flat[0]) == 0

    def __repr__(self) -> str:
        return (
            f"Variety({self.label!r}, q={self.ctx.q}, d={self.ctx.d}, "
            f"n={self.cardinality})"
        )


def build_variety(ctx: FieldCtx, spec: Union[str, PolyExpr]) -> Variety:
    """Build a variety from a name or a polynomial.

    Accepted names: ``"paraboloid"``, ``"plane"``, ``"sphere:<t>"``, or
    ``"poly:<source>"``; a bare :data:`PolyExpr` is used directly.
    """
    ctx.check_budget()
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
    # C order of the (q,)*d mesh is the lex order of flat indices
    axes = np.ix_(*[np.arange(ctx.q, dtype=np.int64)] * ctx.d)
    zero = _eval_axes(expr, axes, ctx.q) == 0
    flat = np.flatnonzero(np.broadcast_to(zero, (ctx.q,) * ctx.d))
    if flat.size == 0:
        warnings.warn(f"variety {label} is empty", EmptyVarietyWarning, stacklevel=2)
    return Variety(ctx, label, expr, flat)


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
    count = int(np.count_nonzero(v.norms == 0))
    threshold = float(ctx.q ** ((ctx.d**2 - ctx.d - 1) / ctx.d))
    return IntersectionReport(count, threshold, count <= threshold)
