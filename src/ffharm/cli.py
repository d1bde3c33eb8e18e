"""Command-line front end: exponential sums, sphere checks, varieties,
restriction norms, scans with CSV output, and the Fourier self-test.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
errors.  Scans run their primes one after another on the calling thread,
each row seeded, so output is byte-identical for identical spec and seed.
The search's q + 5 starts, the certificate's tolerance
(``spheres.CLOSED_FORM_TOL``) and the self-test's trial count are fixed,
not options.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import fourier
from .errors import FFHarmError, ZeroParameter
from .expsums import gauss, kloosterman, salie
from .field import FieldCtx, is_odd_prime
from .restriction import (
    ExponentPair,
    RestrictionReport,
    SearchConfig,
    parse_exponent,
    region_conjecture,
    region_lewko,
    rnorm_exact_22,
    rnorm_search,
    suf2_check,
    witness_lower_bound,
)
from .spheres import (
    enumerate_sphere,
    sphere_count_closed,
    sphere_ft_closed,
    sphere_ft_naive,
    verify_closed_form,
)
from .varieties import build_variety, zero_sphere_intersection

PASS, FAIL = "PASS", "FAIL"
_SUM_KINDS = ("gauss", "kloosterman", "salie")
_METHODS = ("search", "exact22", "witness")
_SIGN_MODES = ("signed", "nonneg")
_SELFTEST_TRIALS = 20


def _fmt(x: float) -> str:
    """12 significant digits, '.' decimal separator."""
    return format(float(x), ".12g")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}i"


# ---------------------------------------------------------------------------
# argparse plumbing


def _odd_prime(text: str) -> int:
    try:
        q = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"q must be an integer, got {text!r}")
    if not is_odd_prime(q):
        raise argparse.ArgumentTypeError(f"q must be an odd prime, got {q}")
    return q


def _int_at_least(name: str, low: int):
    """An argparse type for integers >= low, named in its error messages."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


_dimension = _int_at_least("d", 2)
_seed = _int_at_least("seed", 0)


def _distinct_list(item, noun: str):
    """An argparse type for a comma-separated list of distinct items, each read by item."""

    def parse(text: str) -> list[int]:
        values = [item(part) for part in text.split(",") if part.strip()]
        if not values or len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"need distinct comma-separated {noun}, got {text!r}")
        return values

    return parse


_odd_prime_list = _distinct_list(_odd_prime, "primes")
_dimension_list = _distinct_list(_dimension, "dimensions")


def _vector(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _exponent(text: str):
    try:
        return parse_exponent(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


# ---------------------------------------------------------------------------
# sum


def cmd_sum(kind: str, q: int, a: int, b: Optional[int] = None) -> int:
    """Print one sum and check its bound; an unknown kind, no b for a
    Kloosterman or Salie sum, or a Kloosterman sum with a = b = 0 mod q,
    where no bound holds (the sum is q - 1), raises ``ValueError``, and a
    Gauss sum with a = 0 mod q ``ZeroParameter``, before any output."""
    if kind not in _SUM_KINDS:
        raise ValueError(f"unknown sum kind {kind!r}")
    if kind != "gauss" and b is None:
        raise ValueError(f"{kind} requires --b")
    ctx = FieldCtx(q, 2)
    if kind == "kloosterman" and a % q == b % q == 0:
        raise ValueError("kloosterman needs --a or --b nonzero mod q")
    if kind == "gauss":
        value = gauss(ctx, a)
        bound, bound_label = math.sqrt(q), "sqrt(q)"
        ok = abs(abs(value) - math.sqrt(q)) < 1e-6
        relation = "="
    else:
        value = (kloosterman if kind == "kloosterman" else salie)(ctx, a, b)
        bound, bound_label = 2 * math.sqrt(q), "2*sqrt(q)"
        ok = abs(value) <= bound + 1e-6
        relation = "<="
    verdict = PASS if ok else FAIL
    print(
        f"{_fmt_complex(value)}  |{kind[0].upper()}|={abs(value):.6f} "
        f"{relation} {bound_label}={bound:.6f}  {verdict}"
    )
    return 0 if ok else 1


def _run_sum(args) -> int:
    try:
        return cmd_sum(args.kind, args.q, args.a, args.b)
    except (ValueError, ZeroParameter) as e:
        args.parser.error(str(e))


# ---------------------------------------------------------------------------
# sphere


def _run_sphere_count(args) -> int:
    ctx = FieldCtx(args.q, args.d)
    sphere = enumerate_sphere(ctx, args.j)
    closed = sphere_count_closed(ctx, args.j)
    ok = sphere.cardinality == closed
    print(
        f"q={args.q} d={args.d} j={args.j % args.q}  enumerated={sphere.cardinality} "
        f"closed={closed}  {PASS if ok else FAIL}"
    )
    return 0 if ok else 1


def _run_sphere_ft(args) -> int:
    ctx = FieldCtx(args.q, args.d)
    if len(args.x) != args.d:
        args.parser.error(f"--x needs {args.d} coordinates")
    sphere = enumerate_sphere(ctx, args.j)
    naive = sphere_ft_naive(sphere, args.x)
    closed = sphere_ft_closed(ctx, args.j, args.x)
    err = abs(naive - closed)
    ok = err < 1e-6
    print(f"naive ={_fmt_complex(naive)}")
    print(f"closed={_fmt_complex(closed)}")
    print(f"|diff|={err:.3e}  {PASS if ok else FAIL}")
    return 0 if ok else 1


def cmd_verify_lemma1(q_list: Sequence[int], d_list: Sequence[int]) -> int:
    """Exhaustive brute-force-vs-closed sphere transform comparison per (q, d).

    Every pair's budget is checked before any pair runs: a request with
    one pair whose q^(2d-1), the budget in brute-force pairs that
    ``verify_closed_form`` keeps, exceeds ``GRID_BUDGET`` raises
    ``TooLarge`` with nothing printed.  An empty or repeated list of q or
    d raises ``ValueError`` up front too.
    """
    for name, values in (("q", q_list), ("d", d_list)):
        if not values or len(set(values)) < len(values):
            raise ValueError(f"need a nonempty list of distinct {name} values, got {list(values)}")
    contexts = [FieldCtx(q, d) for q in q_list for d in d_list]
    for ctx in contexts:
        ctx.check_budget(2 * ctx.d - 1)
    errors = []
    failed = False
    for ctx in contexts:
        max_err, first_bad = verify_closed_form(ctx)
        errors.append(max_err)
        if first_bad is None:
            print(f"q={ctx.q} d={ctx.d}  max_err={max_err:.3e}  {PASS}")
        else:
            failed = True
            j, x = first_bad
            print(f"q={ctx.q} d={ctx.d}  max_err={max_err:.3e}  {FAIL}  first j={j} x={x}")
    print(f"overall max_err={np.max(errors, initial=0.0):.3e}")  # NaN if any pair's is
    return 1 if failed else 0


def _run_verify_lemma1(args) -> int:
    return cmd_verify_lemma1(args.q, args.d)


# ---------------------------------------------------------------------------
# variety


def _variety_for(args):
    ctx = FieldCtx(args.q, args.d)
    return ctx, build_variety(ctx, args.variety)


def _run_variety_info(args) -> int:
    ctx, v = _variety_for(args)
    inter = zero_sphere_intersection(v)
    hyp = "" if v.size_ok else "  [hypothesis violated: |V| far from q^(d-1)]"
    print(f"variety={v.label} q={ctx.q} d={ctx.d}")
    print(f"|V|={v.cardinality} (q^(d-1)={ctx.q ** (ctx.d - 1)}) size_ok={v.size_ok}{hyp}")
    print(f"contains_zero={v.contains_zero}")
    print(
        f"|V cap S_0|={inter.count}  threshold=q^((d^2-d-1)/d)={_fmt(inter.threshold)}  "
        f"{'passes' if inter.passes else 'fails'}"
    )
    return 0


def _run_variety_intersect(args) -> int:
    ctx, v = _variety_for(args)
    inter = zero_sphere_intersection(v)
    verdict = PASS if inter.passes else FAIL
    print(
        f"variety={v.label} q={ctx.q} d={ctx.d}  count={inter.count} "
        f"threshold={_fmt(inter.threshold)}  {verdict}"
    )
    return 0 if inter.passes else 1


# ---------------------------------------------------------------------------
# restrict


def _check_request(pair: ExponentPair, method: str, seed: int, sign_mode: str) -> None:
    """Reject an unknown method or sign mode, or a pair or seed it cannot run."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    if sign_mode not in _SIGN_MODES:
        raise ValueError(f"unknown sign mode {sign_mode!r}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    if method == "exact22" and not (pair.p == 2 and pair.r == 2):
        raise ValueError("method exact22 requires --p 2 --r 2")
    if method == "search" and not pair.is_finite:
        raise ValueError("method search needs finite --p and --r")


def _report_for(v, pair, method, seed, sign_mode) -> RestrictionReport:
    if method == "search":
        return rnorm_search(v, pair, SearchConfig(seed=seed, sign_mode=sign_mode))
    if method == "exact22":
        name, value = "Exact22", rnorm_exact_22(v)
    else:  # _check_request admits no other method
        name, value = "Witness", witness_lower_bound(v, pair)
    return RestrictionReport(v.label, v.ctx.q, v.ctx.d, pair, name, value, 0, seed)


def _run_restrict_norm(args) -> int:
    pair = ExponentPair(args.p, args.r)
    try:
        _check_request(pair, args.method, args.seed, args.sign_mode)
    except ValueError as e:
        args.parser.error(str(e))
    v = build_variety(FieldCtx(args.q, args.d), args.variety)
    rep = _report_for(v, pair, args.method, args.seed, args.sign_mode)
    if not v.size_ok:
        print("[hypothesis violated: |V| far from q^(d-1)]")
    print(
        f"variety={rep.variety} q={rep.q} d={rep.d} pair={rep.pair} "
        f"method={rep.method} sign_mode={rep.sign_mode}"
    )
    print(f"estimate={_fmt(rep.estimate)}  iterations={rep.iterations}  seed={rep.seed}")
    if args.method == "search":
        print(f"capped={rep.capped}  tied={rep.tied}")
    return 0


@dataclass
class ScanSpec:
    """One restriction scan: a variety, exponent pair, and list of primes."""

    variety: str
    d: int
    qs: list[int]
    pair: ExponentPair
    method: str = "search"
    seed: int = 0
    sign_mode: str = "signed"
    out: str = "scan.csv"

    def __post_init__(self):
        if not self.qs or len(set(self.qs)) < len(self.qs):
            raise ValueError(f"scan needs a nonempty list of distinct q values, got {self.qs}")
        for q in self.qs:
            if not is_odd_prime(q):
                raise ValueError(f"scan q values must be odd primes, got {q}")
        if self.d < 2:
            raise ValueError("scan needs d >= 2")
        _check_request(self.pair, self.method, self.seed, self.sign_mode)
        self.qs = sorted(self.qs)


_CSV_HEADER = "q,d,variety,p,r,method,sign_mode,estimate,iters,seed,v_size,v_cap_s0,threshold"


def _scan_row(spec: ScanSpec, q: int) -> str:
    ctx = FieldCtx(q, spec.d)
    v = build_variety(ctx, spec.variety)
    inter = zero_sphere_intersection(v)
    rep = _report_for(v, spec.pair, spec.method, spec.seed, spec.sign_mode)
    fields = [  # the columns of _CSV_HEADER; str(math.inf) is "inf"
        q, spec.d, v.label, spec.pair.p, spec.pair.r, rep.method, rep.sign_mode,
        _fmt(rep.estimate), rep.iterations, rep.seed, v.cardinality, inter.count,
        _fmt(inter.threshold),
    ]
    return ",".join(map(str, fields))


def fit_loglog_slope(qs: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) against log(q)."""
    x = np.log(np.asarray(qs, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def cmd_restrict_scan(spec: ScanSpec) -> int:
    """Run the scan, write the CSV, print the fitted log-log slope.

    Rows run in ascending q on the calling thread; a failed row is reported
    on stderr and the scan goes on with the next prime.
    """
    done: list[int] = []
    estimates: list[float] = []
    with open(spec.out, "w", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for q in spec.qs:
            try:
                row = _scan_row(spec, q)
            except Exception as e:
                print(f"q={q}: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            fh.write(row + "\n")
            done.append(q)
            estimates.append(float(row.split(",")[7]))
    print(f"wrote {spec.out} ({len(done)} rows)")
    if len(done) >= 2:
        print(f"slope log(estimate) vs log(q): {fit_loglog_slope(done, estimates):+.4f}")
    return 0 if len(done) == len(spec.qs) else 1


def _run_restrict_scan(args) -> int:
    try:
        spec = ScanSpec(
            variety=args.variety,
            d=args.d,
            qs=args.q,
            pair=ExponentPair(args.p, args.r),
            method=args.method,
            seed=args.seed,
            sign_mode=args.sign_mode,
            out=args.out,
        )
    except ValueError as e:
        args.parser.error(str(e))
    try:
        return cmd_restrict_scan(spec)
    except OSError as e:  # --out cannot be written, e.g. its directory is missing
        print(f"error: {e}", file=sys.stderr)
        return 2


def _run_restrict_region(args) -> int:
    pair = ExponentPair(args.p, args.r)
    point = pair.inverse_point()
    print(f"pair={pair}  point (1/p, 1/r) = ({point[0]}, {point[1]})")
    print(f"necessary region (d={args.d}): {region_conjecture(args.d, point)}")
    if args.d >= 3:
        print(f"endpoint region (d={args.d}): {region_lewko(args.d, point)}")
    if pair.is_finite:
        value, ok = suf2_check(args.d, pair)
        print(f"exponent gate r*d*(1-1/p)-d+1 = {value}  ({'<= 0' if ok else '> 0'})")
    return 0


# ---------------------------------------------------------------------------
# ft selftest


def cmd_ft_selftest(q: int, d: int, seed: int = 0) -> int:
    """Check ``ft_fast`` against the brute force, Plancherel and the inverse
    on ``_SELFTEST_TRIALS`` seeded complex Gaussian vectors."""
    ctx = FieldCtx(q, d)
    rng = np.random.default_rng(seed)
    ok = True
    worst_fast = worst_plancherel = worst_roundtrip = 0.0
    normal = rng.standard_normal
    draws = np.array([normal(ctx.size) + 1j * normal(ctx.size) for _ in range(_SELFTEST_TRIALS)])
    # every trial's naive transform in one brute-force pass, one column each
    slow_all = fourier.character_sums(ctx, ctx.grid_points(), draws.T)
    for values, slow in zip(draws, slow_all.T):
        f = fourier.GridFunction(ctx, values, fourier.Side.PrimalCounting)
        fast = fourier.ft_fast(f)
        scale = max(1.0, float(np.abs(slow).max()))
        worst_fast = max(worst_fast, float(np.abs(fast.values - slow).max()) / scale)
        lhs = float((np.abs(fast.values) ** 2).sum()) / ctx.size
        rhs = float((np.abs(values) ** 2).sum())
        worst_plancherel = max(worst_plancherel, abs(lhs - rhs) / rhs)
        back = fourier.ift(fast)
        worst_roundtrip = max(
            worst_roundtrip,
            float(np.abs(back.values - values).max()) / max(1.0, float(np.abs(values).max())),
        )
    for label, err in (
        ("fast vs naive", worst_fast),
        ("plancherel", worst_plancherel),
        ("round-trip", worst_roundtrip),
    ):
        good = err < 1e-9
        ok = ok and good
        print(f"{label}: max rel err {err:.3e}  {PASS if good else FAIL}")
    return 0 if ok else 1


def _run_ft_selftest(args) -> int:
    return cmd_ft_selftest(args.q, args.d, seed=args.seed)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    """The ffharm parser: all 15 parsers, from ffharm down to each leaf command."""
    parser = argparse.ArgumentParser(
        prog="ffharm",
        description="Exponential sums, sphere transforms, and restriction scans over F_q^d.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("sum", help="compute one exponential sum and check its bound")
    p_sum.add_argument("kind", choices=_SUM_KINDS)
    p_sum.add_argument("--q", type=_odd_prime, required=True)
    p_sum.add_argument("--a", type=int, required=True)
    p_sum.add_argument("--b", type=int, default=None)
    p_sum.set_defaults(func=_run_sum, parser=p_sum)

    p_sphere = sub.add_parser("sphere", help="sphere cardinalities and transforms")
    sphere_sub = p_sphere.add_subparsers(dest="subcommand", required=True)

    p_count = sphere_sub.add_parser("count")
    p_count.add_argument("--q", type=_odd_prime, required=True)
    p_count.add_argument("--d", type=_dimension, required=True)
    p_count.add_argument("--j", type=int, required=True)
    p_count.set_defaults(func=_run_sphere_count, parser=p_count)

    p_ft = sphere_sub.add_parser("ft")
    p_ft.add_argument("--q", type=_odd_prime, required=True)
    p_ft.add_argument("--d", type=_dimension, required=True)
    p_ft.add_argument("--j", type=int, required=True)
    p_ft.add_argument("--x", type=_vector, required=True, help="comma-separated coordinates")
    p_ft.set_defaults(func=_run_sphere_ft, parser=p_ft)

    p_vl = sphere_sub.add_parser("verify-lemma1")
    p_vl.add_argument("--q", type=_odd_prime_list, required=True, help="comma-separated primes")
    p_vl.add_argument("--d", type=_dimension_list, required=True, help="comma-separated dimensions")
    p_vl.set_defaults(func=_run_verify_lemma1, parser=p_vl)

    p_var = sub.add_parser("variety", help="build varieties and check the S_0 intersection")
    var_sub = p_var.add_subparsers(dest="subcommand", required=True)
    for name, func in (("info", _run_variety_info), ("intersect", _run_variety_intersect)):
        pv = var_sub.add_parser(name)
        pv.add_argument("--q", type=_odd_prime, required=True)
        pv.add_argument("--d", type=_dimension, required=True)
        pv.add_argument(
            "--variety",
            required=True,
            help="paraboloid | plane | sphere:<t> | poly:<source>",
        )
        pv.set_defaults(func=func, parser=pv)

    p_res = sub.add_parser("restrict", help="restriction norms, scans, region tests")
    res_sub = p_res.add_subparsers(dest="subcommand", required=True)

    # norm and scan share every option but --q (one prime vs a list) and scan's --out
    for name, q_type, q_help, func in (
        ("norm", _odd_prime, None, _run_restrict_norm),
        ("scan", _odd_prime_list, "comma-separated primes", _run_restrict_scan),
    ):
        pr = res_sub.add_parser(name)
        pr.add_argument("--d", type=_dimension, required=True)
        pr.add_argument("--variety", required=True)
        pr.add_argument("--p", type=_exponent, required=True, help="fraction a/b or inf")
        pr.add_argument("--r", type=_exponent, required=True, help="fraction a/b or inf")
        pr.add_argument("--method", choices=_METHODS, default="search")
        pr.add_argument("--seed", type=_seed, default=0)
        pr.add_argument("--sign-mode", dest="sign_mode", choices=_SIGN_MODES, default="signed")
        pr.add_argument("--q", type=q_type, required=True, help=q_help)
        if name == "scan":
            pr.add_argument("--out", required=True)
        pr.set_defaults(func=func, parser=pr)

    p_region = res_sub.add_parser("region")
    p_region.add_argument("--d", type=_dimension, required=True)
    p_region.add_argument("--p", type=_exponent, required=True)
    p_region.add_argument("--r", type=_exponent, required=True)
    p_region.set_defaults(func=_run_restrict_region, parser=p_region)

    p_ftm = sub.add_parser("ft", help="Fourier engine self-test")
    ft_sub = p_ftm.add_subparsers(dest="subcommand", required=True)
    p_self = ft_sub.add_parser("selftest")
    p_self.add_argument("--q", type=_odd_prime, required=True)
    p_self.add_argument("--d", type=_dimension, required=True)
    p_self.add_argument("--seed", type=_seed, default=0)
    p_self.set_defaults(func=_run_ft_selftest, parser=p_self)

    return parser


# built by the first main call and kept: a build costs about 15 parses
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)  # args.parser is the leaf's, for its usage errors
    try:
        return args.func(args)
    except FFHarmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
