"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from ffharm import (
    ExponentPair,
    FieldCtx,
    GridFunction,
    SearchConfig,
    Side,
    build_variety,
    ft_fast,
    ft_naive,
    gauss,
    ift,
    kloosterman,
    region_conjecture,
    region_lewko,
    rnorm_search,
    salie,
    sphere_count_closed,
    sphere_ft_closed_grid,
    sphere_sizes,
    suf2_check,
    verify_closed_form,
    witness_lower_bound,
    zero_sphere_intersection,
)
from ffharm.cli import ScanSpec, cmd_restrict_scan, fit_loglog_slope
from ffharm.field import is_odd_prime


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_01_closed_form_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    bad = []
    for q in (3, 5, 7):
        for d in (2, 3, 4, 5):
            max_err, first_bad = verify_closed_form(FieldCtx(q, d))
            worst = max(worst, max_err)
            if first_bad is not None:
                bad.append((q, d, first_bad))
    elapsed = time.monotonic() - t0
    ok = not bad and worst < 1e-6 and elapsed < 60.0
    _report(1, "sphere transform closed form == brute force", ok,
            f"max_err={worst:.2e} over q in (3,5,7) x d in (2..5), {elapsed:.1f}s")
    assert not bad, f"closed form disagreed at {bad}"
    assert worst < 1e-6
    assert elapsed < 60.0


def test_02_exponential_sum_bounds():
    primes = [p for p in range(3, 62) if is_odd_prime(p)]
    worst_gauss = worst_kzero = 0.0
    for q in primes:
        ctx = FieldCtx(q, 2)
        root = math.sqrt(q)
        cap = 2 * root + 1e-6
        for a in range(q):
            if a != 0:
                worst_gauss = max(worst_gauss, abs(abs(gauss(ctx, a)) - root))
            for b in range(q):
                if a != 0 and b != 0:
                    assert abs(kloosterman(ctx, a, b)) <= cap, (q, a, b)
                if a == 0 and b != 0:
                    worst_kzero = max(
                        worst_kzero, abs(kloosterman(ctx, 0, b) - (-1))
                    )
                assert abs(salie(ctx, a, b)) <= cap, (q, a, b)
    ok = worst_gauss < 1e-6 and worst_kzero < 1e-9
    _report(2, "Gauss/Kloosterman/Salie bounds for q <= 61", ok,
            f"max | |G|-sqrt(q) |={worst_gauss:.2e}, max |K(0,b)+1|={worst_kzero:.2e}")
    assert ok


def test_03_zero_radius_exact_decay():
    worst = 0.0
    for q in (3, 5, 7):
        ctx = FieldCtx(q, 4)
        vals = np.abs(sphere_ft_closed_grid(ctx, 0))
        mask = ctx.grid_norms() != 0
        worst = max(worst, float(np.abs(vals[mask] - q).max()))  # q^{(d-2)/2} = q
    ok = worst < 1e-6
    _report(3, "d=4 zero-radius transform magnitude exactly q^{(d-2)/2}", ok,
            f"max deviation {worst:.2e}")
    assert ok


def test_04_decay_bounds():
    violations = []
    for q in (3, 5, 7):
        for d in (3, 4, 5):
            ctx = FieldCtx(q, d)
            for j in range(q):
                mags = np.abs(sphere_ft_closed_grid(ctx, j))[1:]  # exclude x = 0
                cap = 3 * q ** (d / 2) if (d % 2 == 0 and j == 0) else 3 * q ** ((d - 1) / 2)
                excess = float(mags.max()) - cap
                if excess > 1e-6:
                    violations.append((q, d, j, excess))
    ok = not violations
    _report(4, "off-origin decay bounds 3q^{(d-1)/2} / 3q^{d/2}", ok,
            f"{'no violations' if ok else violations} over q in (3,5,7) x d in (3,4,5)")
    assert ok


def test_05_sphere_sizes():
    mismatches = []
    out_of_range = []
    for q in (3, 5, 7):
        for d in (2, 3, 4, 5):
            ctx = FieldCtx(q, d)
            sizes = sphere_sizes(ctx)
            for j in range(q):
                if sphere_count_closed(ctx, j) != int(sizes[j]):
                    mismatches.append((q, d, j))
            if d >= 3:
                hyp = q ** (d - 1)
                if not ((sizes >= hyp / 2).all() and (sizes <= 2 * hyp).all()):
                    out_of_range.append((q, d))
    ok = not mismatches and not out_of_range
    _report(5, "sphere sizes: closed form exact, within [q^{d-1}/2, 2q^{d-1}]", ok,
            f"mismatches={mismatches or 'none'}, range failures={out_of_range or 'none'}")
    assert ok


def test_06_fourier_engine():
    worst_pair = worst_planch = worst_round = 0.0
    for q in (3, 5, 7):
        for d in (2, 3):
            ctx = FieldCtx(q, d)
            rng = np.random.default_rng(1000 * q + d)
            for _ in range(100):
                values = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
                f = GridFunction(ctx, values, Side.PrimalCounting)
                slow = ft_naive(f).values
                fast = ft_fast(f).values
                scale = float(np.abs(slow).max())
                worst_pair = max(worst_pair, float(np.abs(fast - slow).max()) / scale)
                lhs = float((np.abs(fast) ** 2).sum()) / ctx.size
                rhs = float((np.abs(values) ** 2).sum())
                worst_planch = max(worst_planch, abs(lhs - rhs) / rhs)
                back = ift(GridFunction(ctx, fast, Side.DualNormalized)).values
                worst_round = max(
                    worst_round,
                    float(np.abs(back - values).max()) / float(np.abs(values).max()),
                )
    ok = worst_pair < 1e-9 and worst_planch < 1e-9 and worst_round < 1e-9
    _report(6, "fast transform == naive, Plancherel, round trip (100 draws each)", ok,
            f"rel errs: pair={worst_pair:.2e} plancherel={worst_planch:.2e} roundtrip={worst_round:.2e}")
    assert ok


def test_07_critical_pair_flat_trend():
    t0 = time.monotonic()
    qs = [3, 5, 7, 11, 13]
    pair = ExponentPair(F(3, 2), F(2))
    estimates = []
    for q in qs:
        v = build_variety(FieldCtx(q, 3), "paraboloid")
        estimates.append(rnorm_search(v, pair, SearchConfig(seed=0)).estimate)
    slope = fit_loglog_slope(qs, estimates)
    ratio = max(estimates) / min(estimates)
    elapsed = time.monotonic() - t0
    ok = slope <= 0.1 and ratio <= 2.0 and elapsed < 600.0
    _report(7, "paraboloid d=3 pair (3/2,2): flat estimate trend", ok,
            f"slope={slope:+.4f} max/min={ratio:.4f} estimates={[f'{e:.4f}' for e in estimates]} {elapsed:.1f}s")
    assert ok


def test_08_sparse_intersection_hypothesis_and_conclusion():
    qs = [3, 5, 7, 11]
    failures = []
    details = []

    # hypothesis: per-q intersection check for plane and paraboloid in d = 4
    for name in ("plane", "paraboloid"):
        for q in qs:
            rep = zero_sphere_intersection(build_variety(FieldCtx(q, 4), name))
            details.append(f"{name} q={q}: {rep.count} vs {rep.threshold:.2f}")
            if not rep.passes:
                failures.append(
                    f"{name} d=4 q={q}: |V cap S_0| = {rep.count} exceeds "
                    f"q^((d^2-d-1)/d) = {rep.threshold:.4f}"
                )

    # conclusion: the (8/5, 2) scans stay flat
    pair = ExponentPair(F(8, 5), F(2))
    for name in ("plane", "paraboloid"):
        estimates = [
            rnorm_search(build_variety(FieldCtx(q, 4), name), pair, SearchConfig(seed=0)).estimate
            for q in qs
        ]
        slope = fit_loglog_slope(qs, estimates)
        details.append(f"{name} scan slope={slope:+.4f}")
        if slope > 0.1:
            failures.append(f"{name} d=4 scan slope {slope:.4f} > 0.1")

    # the zero sphere itself must fail the hypothesis at every tested q
    for q in qs:
        rep = zero_sphere_intersection(build_variety(FieldCtx(q, 4), "sphere:0"))
        if rep.passes:
            failures.append(f"sphere:0 d=4 q={q} unexpectedly passes the check")

    ok = not failures
    _report(8, "d=4 sparse-intersection hypothesis + flat conclusion", ok,
            "; ".join(details))
    # Known defect in this criterion as stated: at q=3 the paraboloid meets
    # S_0 in 21 points (= |S_0^2| + |S_2^2| = 9 + 12 over the two admissible
    # last coordinates), while 3^(11/4) = 20.5156; the strict per-q
    # inequality only holds from q = 5 upward.  The asymptotic containment
    # count <= 3 q^{d-2} < q^{(d^2-d-1)/d} is verified in the module suite.
    assert not failures, "; ".join(failures)


def test_09_outside_region_growth():
    qs = [3, 5, 7, 11, 13]
    pair = ExponentPair(F(2), F(2))
    wit, est = [], []
    for q in qs:
        v = build_variety(FieldCtx(q, 3), "paraboloid")
        wit.append(witness_lower_bound(v, pair))
        est.append(rnorm_search(v, pair, SearchConfig(seed=0)).estimate)
    wit_slope = fit_loglog_slope(qs, wit)
    est_slope = fit_loglog_slope(qs, est)
    ok = wit_slope >= 0.4 and est_slope >= 0.4
    _report(9, "paraboloid d=3 pair (2,2): estimates grow like sqrt(q)", ok,
            f"witness slope={wit_slope:.4f} search slope={est_slope:.4f}")
    assert ok


def test_10_exact_rational_gates():
    checks = [
        suf2_check(3, ExponentPair(F(3, 2), F(2))) == (F(0), True),
        suf2_check(4, ExponentPair(F(3, 2), F(9, 4))) == (F(0), True),
        suf2_check(3, ExponentPair(F(2), F(2))) == (F(1), False),
        region_conjecture(3, (F(2, 3), F(1, 2))) is True,
        region_conjecture(3, (F(1, 2), F(1, 2))) is False,
        region_conjecture(3, (F(1), F(1))) is True,
        region_lewko(4, (F(11, 16), F(1))) is True,
        region_lewko(3, (F(13, 18), F(1, 2))) is True,
        region_lewko(3, (F(0), F(0))) is False,
        region_lewko(5, (F(0), F(0))) is False,
    ]
    ok = all(checks)
    _report(10, "exact rational exponent gates and region membership", ok,
            f"{sum(checks)}/{len(checks)} checks")
    assert ok


def test_11_scan_determinism(tmp_path):
    def spec(name):
        return ScanSpec(
            variety="paraboloid",
            d=3,
            qs=[3, 5, 7, 11, 13],
            pair=ExponentPair(F(3, 2), F(2)),
            method="search",
            seed=42,
            sign_mode="signed",
            out=str(tmp_path / name),
        )

    assert cmd_restrict_scan(spec("first.csv")) == 0
    assert cmd_restrict_scan(spec("second.csv")) == 0
    first = (tmp_path / "first.csv").read_bytes()
    second = (tmp_path / "second.csv").read_bytes()
    ok = first == second and len(first.decode().strip().split("\n")) == 6
    _report(11, "identical scan spec + seed gives byte-identical CSV", ok,
            f"{len(first)} bytes per file")
    assert ok
