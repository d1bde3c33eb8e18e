"""Algebraic varieties in the dual grid, defined by one polynomial equation.

Built-ins (paraboloid, plane, sphere of a given radius) and arbitrary
user polynomials over variables x1..xd share a single code path, which
counts V by sphere radius without enumerating F_q^d.  The top-level
additive terms of P split its variables into blocks (variables that share
a term share a block), so P = sum_B f_B(x_B) + c.  The cyclic convolution
on Z_q x Z_q of the blocks' tables of (f_B, block norm) pairs is the
joint histogram of (P - c, ||x||), and its row where P = 0 holds
|V cap S_t| for every radius t.  The convolution is a product of exact
2-D discrete Fourier transforms modulo word-size primes p = 1 (mod q),
one per distinct block, joined by the CRT: a one-variable block costs
one q x q float64 matrix product per prime, so a separable P such as the
paraboloid costs O(q^3) per prime at any d.  A block of k >= 2 variables is enumerated on its own, q^k
points; one block of all d variables costs one evaluation on the grid.

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
from .field import GRID_BUDGET, FieldCtx, is_odd_prime
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


def _sum_terms(terms, coords, q: int):
    """The sum of the signed terms mod q, evaluated by ``_eval_axes`` on the open mesh coords."""
    return sum(sign * _eval_axes(term, coords, q) for sign, term in terms) % q


def _block_table(ctx: FieldCtx, axes: frozenset[int], terms) -> np.ndarray:
    """The q x q table F[a, t] = #{y in F_q^axes : f(y) = a, ||y|| = t}.

    f is the sum of the signed terms, evaluated on the open mesh of the
    block's axes, so the cost is q^|axes| points.
    """
    q, n = ctx.q, len(axes)
    mesh = np.ix_(*[np.arange(q, dtype=np.int64)] * n)
    coords: list = [None] * ctx.d
    for k, axis in zip(sorted(axes), mesh):
        coords[k] = axis
    value = _sum_terms(terms, coords, q)
    squares = np.arange(q, dtype=np.int64) ** 2 % q
    norm = sum(squares[axis] for axis in mesh) % q
    pairs = np.broadcast_to(value, (q,) * n) * q + norm
    return np.bincount(pairs.ravel(), minlength=q * q).reshape(q, q)


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


@lru_cache(maxsize=None)
def _moduli(q: int, bound: int) -> tuple[tuple[int, int], ...]:
    """The fewest primes p = 1 (mod q) whose product exceeds bound, each with a w of order q mod p.

    Each p is the largest left with q (p/2 + 2)^2 + p < 2^53.  ``_reduce``
    leaves residues within p/2 + 2 of 0, so a dot product of q of them,
    its partial sums and the multiple of p that ``_reduce`` subtracts from
    it are integers below 2^53, which float64, and so BLAS, holds exactly
    (the word-size prime fields of Dumas, Giorgi and Pernet, ACM TOMS
    35(3), 2008).
    """
    moduli, product = [], 1
    top = math.isqrt(2**55 // q) // q  # p = 1 + kq < 2 sqrt(2^53 / q)
    for k in range(top - top % 2, 0, -2):  # p odd
        p = 1 + k * q
        if q * (p + 4) ** 2 + 4 * p < 2**55 and is_odd_prime(p):
            # w != 1 with w^q = 1 has order q, as q is prime
            w = next(w for g in range(2, p) if (w := pow(g, (p - 1) // q, p)) != 1)
            moduli.append((p, w))
            product *= p
            if product > bound:
                return tuple(moduli)
    raise TooLarge(f"too few primes p = 1 mod {q} below 2 sqrt(2^53 / {q})")


def _power_matrix(powers: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrix of w^(u_i v_j) mod p, from the powers w^k mod p for k = 0..q-1."""
    exponents = np.multiply.outer(u, v)
    exponents %= len(powers)
    return powers[exponents]


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Subtract from x, in place, the multiples of p nearest it; returns x.

    x holds integers of magnitude below 2^53 - p.  fl(x fl(1/p)) lies within
    2/p of x/p, so each result lies within p/2 + 2 of 0.
    """
    nearest = x * (1 / p)
    np.rint(nearest, out=nearest)
    nearest *= p
    x -= nearest
    return x


def _block_source(ctx: FieldCtx, n: int, terms) -> np.ndarray:
    """What ``_block_spectrum`` transforms for a block on x1..xn, under every modulus.

    For one variable, the q values f(y); for a wider block, its q x q
    table (``_block_table``), so it is enumerated once, not once per modulus.
    """
    q = ctx.q
    if n == 1:
        return np.broadcast_to(_sum_terms(terms, [np.arange(q, dtype=np.int64)], q), (q,))
    return _block_table(ctx, frozenset(range(n)), terms)


def _block_spectrum(source: np.ndarray, powers: np.ndarray, p: int) -> np.ndarray:
    """The 2-D DFT mod p of a block's table, in residues within p/2 + 2 of 0.

    X[xi, s] = sum_y w^(xi f(y) + s ||y||), from the block's
    ``_block_source``.  For one variable that is the product of the
    matrices w^(xi f(y)) and w^(y^2 s), and the table is never formed; a
    wider block's table T is transformed as W T W, with W[j, k] = w^(jk).
    """
    q = len(powers)
    m = np.arange(q, dtype=np.int64)
    if source.ndim == 1:
        by_norm = _power_matrix(powers, m * m % q, m)
        spectrum = _power_matrix(powers, m, source) @ by_norm
        del by_norm
    else:
        table = _reduce(source.astype(np.float64), p)
        dft = _power_matrix(powers, m, m)
        spectrum = dft @ table
        del table
        _reduce(spectrum, p)
        spectrum = spectrum @ dft
    return _reduce(spectrum, p)


def _crt(residues, moduli, bound: np.ndarray) -> np.ndarray:
    """The x with x = residues[i] mod moduli[i] and 0 <= x <= bound, by Garner's CRT in int64.

    x is built one mixed-radix digit at a time (Knuth, TAOCP vol. 2,
    Sec. 4.3.2).  A partial sum past the bound puts x past it, so that
    raises RoundingMismatch before any product can leave int64.
    """
    x, m = np.zeros_like(residues[0]), 1
    for r, p in zip(residues, moduli):
        digit = (r - x) % p * pow(m, -1, p) % p
        if (digit > (bound - x) // m).any():
            raise RoundingMismatch(f"residues mod {list(moduli)} past their bound")
        x += m * digit
        m *= p
    return x


def _route_bytes(q: int, widest: int, kept: int) -> int:
    """Peak bytes of the arrays ``_radius_counts`` holds at once.

    The transforms hold four q x q float64 arrays, 32 q^2 bytes: the
    product of the spectra, and for a one-variable block its two power
    matrices and their product, or for a wider block W, its table and
    their products, or the temporary of a ``_reduce``.  Each block of two
    or more variables keeps its q x q int64 table for every modulus, 8 q^2
    bytes for each of the ``kept`` tables.  Enumerating a block of k >= 2
    variables holds about four q^k int64 arrays (values, norms, pairs and
    their bincount), 32 q^k bytes, while at most kept - 1 tables are kept.
    The enumerations end before the transforms begin, so the peak is the
    larger of the two phases.
    """
    return max(32 * q**widest + 8 * q * q * (kept - 1), 32 * q * q + 8 * q * q * kept)


def _radius_counts(ctx: FieldCtx, expr: PolyExpr) -> np.ndarray:
    """``|V cap S_t|`` for every t, from the joint histogram of the block tables.

    The joint histogram H[a, t] = #{x : P(x) - c = a, ||x|| = t} is the
    cyclic convolution on Z_q x Z_q of the block tables, and V is its row
    a = -c.  Each entry is at most its column sum |S_t|, so H is computed
    modulo the word-size primes of ``_moduli``, whose product exceeds
    max |S_t|, and the residues are joined by Garner's CRT (``_crt``).

    Modulo each p = 1 (mod q), with w of order q, H is the inverse 2-D DFT
    over F_p (Pollard, Math. Comp. 25, 1971) of the product of the blocks'
    spectra (``_block_spectrum``).  Blocks that are one polynomial once
    renamed (``_distinct_blocks``), such as the paraboloid's d - 1 squares,
    share one spectrum, by which the product is multiplied once per block.
    Only two rows of the inverse are formed, each an O(q^2) product: the
    row a = -c, and the column sums, which are 1/q times the inverse 1-D
    DFT of the spectrum's row 0 because sum_a w^(-a xi) = 0 for xi != 0.
    All arithmetic is on integers below 2^53 in float64, so it is exact.

    Before anything is allocated, a block over GRID_BUDGET points raises
    TooLarge, and so do peak bytes (``_route_bytes``) over 8 GRID_BUDGET,
    the bytes of the int64 grid the budget admits.  The counts must lie in
    0..|S_t| and the column sums must equal ``sphere_sizes``, both checked
    in integers; else RoundingMismatch.
    """
    q, d = ctx.q, ctx.d
    blocks, constants = _blocks(expr, d)
    widest = max(len(axes) for axes, _ in blocks)
    ctx.check_budget(widest)
    distinct = _distinct_blocks(blocks)
    need = _route_bytes(q, widest, sum(n > 1 for n, _ in distinct))
    if need > 8 * GRID_BUDGET:
        raise TooLarge(
            f"counting {pretty_print(expr)} at q={q}, d={d} needs about {need} bytes, "
            f"over the budget of {8 * GRID_BUDGET}"
        )
    sizes = sphere_sizes(ctx)
    moduli = _moduli(q, int(sizes.max()))
    c = sum(sign * eval_poly(term, (), q) for sign, term in constants)
    m = np.arange(q, dtype=np.int64)
    sources = [(_block_source(ctx, n, terms), count) for (n, terms), count in distinct.items()]
    residues = []
    for p, w in moduli:
        # w^k mod p for k = 0..q-1, within p/2 of 0
        powers = np.array([pow(w, k, p) for k in range(q)], dtype=np.float64)
        powers[2 * powers > p] -= p
        spectrum = None
        for source, count in sources:
            factor = _block_spectrum(source, powers, p)
            if spectrum is None:
                # the first factor, copied when it multiplies the spectrum again
                spectrum = factor.copy() if count > 1 else factor
                count -= 1
            for _ in range(count):
                spectrum *= factor
                _reduce(spectrum, p)
            del factor
        # sum_xi w^(c xi) X[xi, s] for the row a = -c, and X[0, s] for the column sums
        rows = np.stack([powers[c * m % q] @ spectrum, spectrum[0]])
        del spectrum
        rows = _reduce(_reduce(rows, p) @ _power_matrix(powers, m, -m % q), p)
        residues.append(rows.astype(np.int64) % p * [[pow(q, -2, p)], [pow(q, -1, p)]] % p)
    counts, sums = _crt(residues, [p for p, _ in moduli], sizes)
    if not np.array_equal(sums, sizes):
        raise RoundingMismatch(
            f"joint histogram of {pretty_print(expr)} at q={q}, d={d} "
            "does not sum to the sphere sizes"
        )
    return counts


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
