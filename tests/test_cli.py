import math
import os
import re
import subprocess
import sys
import threading
from unittest import mock
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ffharm.cli
import ffharm.expsums
import ffharm.spheres
import ffharm.varieties
from ffharm import (
    ExponentPair,
    FieldCtx,
    GridFunction,
    SearchConfig,
    Side,
    TooLarge,
    Variety,
    ZeroParameter,
    build_variety,
    rnorm_search,
    verify_closed_form,
)
from ffharm import fourier
from ffharm.cli import (
    ScanSpec,
    _scan_row,
    build_parser,
    cmd_restrict_scan,
    cmd_sum,
    cmd_verify_lemma1,
    main,
)


def test_sum_kloosterman_output(capsys):
    assert main(["sum", "kloosterman", "--q", "3", "--a", "1", "--b", "1"]) == 0
    out = capsys.readouterr().out
    assert "-1.000000" in out
    assert "PASS" in out


def test_sum_gauss_magnitude(capsys):
    assert main(["sum", "gauss", "--q", "5", "--a", "1"]) == 0
    out = capsys.readouterr().out
    assert f"{math.sqrt(5):.6f}" in out


def test_sum_rejects_composite_q():
    with pytest.raises(SystemExit) as info:
        main(["sum", "gauss", "--q", "4", "--a", "1"])
    assert info.value.code == 2


@pytest.mark.parametrize("q,a,b", [(7, 0, 0), (11, 0, 0), (7, 7, 14)])
def test_sum_refuses_kloosterman_at_a_and_b_zero(capsys, q, a, b):
    # K(0, 0) = q - 1: no bound holds there, so there is nothing to check
    with pytest.raises(SystemExit) as info:
        main(["sum", "kloosterman", "--q", str(q), "--a", str(a), "--b", str(b)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("ffharm sum: error: kloosterman needs --a or --b nonzero mod q\n")


@pytest.mark.parametrize("q,a", [(7, 0), (11, 0), (7, -14)])
def test_sum_refuses_gauss_at_a_zero(monkeypatch, capsys, q, a):
    # the sum is 0 there, and |G| = sqrt(q) is stated for a != 0
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as info:
        main(["sum", "gauss", "--q", str(q), "--a", str(a)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage: ffharm sum {_USAGE['sum']}\nffharm sum: error: Gauss sum requires a != 0\n"
    )


def test_sum_requires_b_for_kloosterman(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sum", "kloosterman", "--q", "3", "--a", "1"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("ffharm sum: error: kloosterman requires --b\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["gauss", "--a", "3"], "-0.000000-2.645751i  |G|=2.645751 = sqrt(q)=2.645751  PASS"),
        (
            ["kloosterman", "--a", "1", "--b", "2"],
            "-2.356896+0.000000i  |K|=2.356896 <= 2*sqrt(q)=5.291503  PASS",
        ),
        (
            ["salie", "--a", "1", "--b", "2"],
            "+0.000000+3.299198i  |S|=3.299198 <= 2*sqrt(q)=5.291503  PASS",
        ),
        # one of a, b zero mod q is in the Weil bound's range; Salie at (0, 0) is 0
        (
            ["kloosterman", "--a", "0", "--b", "1"],
            "-1.000000+0.000000i  |K|=1.000000 <= 2*sqrt(q)=5.291503  PASS",
        ),
        (
            ["salie", "--a", "0", "--b", "0"],
            "+0.000000+0.000000i  |S|=0.000000 <= 2*sqrt(q)=5.291503  PASS",
        ),
    ],
)
def test_sum_prints_one_whole_line(argv, line, capsys):
    assert main(["sum", *argv, "--q", "7"]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_sphere_count_and_ft(capsys):
    assert main(["sphere", "count", "--q", "3", "--d", "2", "--j", "1"]) == 0
    assert "enumerated=4" in capsys.readouterr().out
    assert main(["sphere", "ft", "--q", "3", "--d", "2", "--j", "1", "--x", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "-2.000000" in out


def test_verify_lemma1_passes(capsys):
    assert cmd_verify_lemma1([3, 5], [2, 3]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_verify_lemma1_catches_tampered_gauss(monkeypatch, capsys):
    original = ffharm.expsums.gauss

    def negated(ctx, a):
        return -original(ctx, a)

    monkeypatch.setattr(ffharm.expsums, "gauss", negated)
    assert cmd_verify_lemma1([3], [3]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "first j=" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6", "x"])
def test_verify_lemma1_bad_tol_exits_2(tol, capsys):
    # the tolerance is fixed (spheres.CLOSED_FORM_TOL), so any --tol is refused
    with pytest.raises(SystemExit) as info:
        main(["sphere", "verify-lemma1", "--q", "3", "--d", "2", "--tol", tol])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: unrecognized arguments: --tol" in captured.err


def test_verify_lemma1_checks_every_budget_before_any_pair(monkeypatch, capsys):
    def no_verify(*args, **kwargs):
        raise AssertionError("a pair ran before the budget check")

    monkeypatch.setattr(ffharm.cli, "verify_closed_form", no_verify)
    assert main(["sphere", "verify-lemma1", "--q", "3,10007", "--d", "2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q^3 = 1002101470343 exceeds the enumeration budget" in captured.err


def test_verify_lemma1_refuses_a_pair_whose_check_would_run_for_days(monkeypatch, capsys):
    # 17^4 points fit the grid budget, but the check visits about 17^7 pairs
    def no_verify(*args, **kwargs):
        raise AssertionError("a pair ran before the budget check")

    monkeypatch.setattr(ffharm.cli, "verify_closed_form", no_verify)
    assert main(["sphere", "verify-lemma1", "--q", "3,17", "--d", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q^7 = 410338673 exceeds the enumeration budget" in captured.err


def test_verify_closed_form_refuses_q_to_the_2d_minus_1_over_budget():
    with pytest.raises(TooLarge, match="q\\^7"):
        verify_closed_form(FieldCtx(17, 4))


_EMPTY_OR_REPEATED = [",", "", "5,5", "5,7,5"]


@pytest.mark.parametrize(
    "q,d,flag",
    [(bad, "2", "--q") for bad in _EMPTY_OR_REPEATED]
    + [("3", bad.replace("5", "3"), "--d") for bad in _EMPTY_OR_REPEATED],
)
def test_verify_lemma1_empty_or_repeated_list_exits_2(q, d, flag, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sphere", "verify-lemma1", "--q", q, "--d", d])
    assert info.value.code == 2
    captured = capsys.readouterr()
    noun, value = ("primes", q) if flag == "--q" else ("dimensions", d)
    assert captured.out == ""
    assert f"argument {flag}: need distinct comma-separated {noun}, got {value!r}\n" in captured.err


@pytest.mark.parametrize("bad", _EMPTY_OR_REPEATED)
def test_restrict_scan_empty_or_repeated_q_exits_2(tmp_path, bad, capsys):
    out = tmp_path / "x.csv"
    argv = ["restrict", "scan", "--variety", "paraboloid", "--d", "3", "--q", bad,
            "--p", "3/2", "--r", "2", "--out", str(out)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--q" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("qs,ds", [([], [2]), ([3], []), ([3, 3], [2]), ([3], [2, 3, 2])])
def test_cmd_verify_lemma1_rejects_empty_or_repeated_lists(qs, ds, capsys):
    with pytest.raises(ValueError, match="distinct"):
        cmd_verify_lemma1(qs, ds)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("qs", [[], [5, 5], [5, 7, 5]])
def test_scan_spec_rejects_empty_or_repeated_q(tmp_path, qs):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="distinct"):
        ScanSpec("paraboloid", 3, qs, ExponentPair(Fraction(3, 2), Fraction(2)), out=str(out))
    assert not out.exists()


def test_verify_lemma1_nan_is_a_failure(monkeypatch, capsys):
    real_kernel = ffharm.spheres.sphere_ft_kernel

    def with_nan(ctx):
        K = real_kernel(ctx)
        if ctx.q == 5:
            K[1, 2] = np.nan
        return K

    monkeypatch.setattr(ffharm.spheres, "sphere_ft_kernel", with_nan)
    assert cmd_verify_lemma1([3, 5], [2]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("q=3 d=2  max_err=") and out[0].endswith("  PASS")
    # (1, 1) is the first point of norm 2 in lex order at q = 5
    assert out[1] == "q=5 d=2  max_err=nan  FAIL  first j=1 x=(1, 1)"
    # a NaN after a finite error still shows in the overall line
    assert out[2] == "overall max_err=nan"


def test_variety_info_and_intersect(capsys):
    assert main(["variety", "info", "--q", "3", "--d", "3", "--variety", "paraboloid"]) == 0
    out = capsys.readouterr().out
    assert "|V|=9" in out and "|V cap S_0|=5" in out
    assert main(["variety", "intersect", "--q", "3", "--d", "3", "--variety", "plane"]) == 0
    assert main(["variety", "intersect", "--q", "3", "--d", "3", "--variety", "sphere:0"]) == 1


def test_restrict_norm_methods(capsys):
    base = ["restrict", "norm", "--q", "5", "--d", "3", "--variety", "paraboloid"]
    assert main(base + ["--p", "3/2", "--r", "2"]) == 0
    assert main(base + ["--p", "2", "--r", "2", "--method", "exact22"]) == 0
    assert main(base + ["--p", "2", "--r", "2", "--method", "witness"]) == 0
    with pytest.raises(SystemExit) as info:
        main(base + ["--p", "3/2", "--r", "2", "--method", "exact22"])
    assert info.value.code == 2


def test_restrict_norm_prints_search_telemetry(capsys):
    base = ["restrict", "norm", "--q", "7", "--d", "3", "--variety", "paraboloid", "--r", "2"]
    assert main(base + ["--p", "3/2", "--seed", "2"]) == 0
    rep = rnorm_search(
        build_variety(FieldCtx(7, 3), "paraboloid"), ExponentPair(Fraction(3, 2), Fraction(2)),
        SearchConfig(seed=2),
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"capped={rep.capped}  tied={rep.tied}"
    assert rep.capped == 0 and 1 <= rep.tied <= 7 + 5
    assert main(base + ["--p", "2", "--method", "exact22"]) == 0
    assert "capped=" not in capsys.readouterr().out


def test_restrict_norm_rejects_decimal_exponent():
    with pytest.raises(SystemExit) as info:
        main(
            ["restrict", "norm", "--q", "5", "--d", "3", "--variety", "plane",
             "--p", "1.5", "--r", "2"]
        )
    assert info.value.code == 2


def test_restrict_region_output(capsys):
    assert main(["restrict", "region", "--d", "3", "--p", "3/2", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "(2/3, 1/2)" in out
    assert "necessary region (d=3): True" in out
    assert "= 0" in out


@pytest.mark.parametrize("p,r", [("1/0", "2"), ("3/2", "2/0")])
def test_restrict_region_zero_denominator_is_a_usage_error(capsys, p, r):
    with pytest.raises(SystemExit) as info:
        main(["restrict", "region", "--d", "3", "--p", p, "--r", r])
    assert info.value.code == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("p", ["15e-1", "1E1", "3e0", "1.5"])
def test_restrict_region_refuses_scientific_and_decimal_exponents(capsys, p):
    with pytest.raises(SystemExit) as info:
        main(["restrict", "region", "--d", "3", "--p", p, "--r", "2"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exponents are a/b fractions, integers or inf, got {p!r}" in captured.err


def test_ft_selftest(capsys):
    assert main(["ft", "selftest", "--q", "3", "--d", "2"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3


# the trial count is fixed, so any --trials is refused like a negative seed
@pytest.mark.parametrize("extra", [["--trials", "0"], ["--trials", "-1"], ["--seed", "-1"]])
def test_ft_selftest_bad_count_or_seed_exits_2(monkeypatch, capsys, extra):
    def no_sums(*args):
        raise AssertionError("self-test ran for a request that cannot run")

    monkeypatch.setattr(fourier, "character_sums", no_sums)
    with pytest.raises(SystemExit) as info:
        main(["ft", "selftest", "--q", "5", "--d", "2"] + extra)
    assert info.value.code == 2
    assert "PASS" not in capsys.readouterr().out


def test_ft_selftest_catches_a_wrong_fast_transform(monkeypatch, capsys):
    real = fourier.ft_fast

    def off_by_one_entry(f):
        values = real(f).values.copy()
        values[1] += 1.0
        return GridFunction(f.ctx, values, Side.DualNormalized)

    monkeypatch.setattr(fourier, "ft_fast", off_by_one_entry)
    assert main(["ft", "selftest", "--q", "5", "--d", "2"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^fast vs naive: max rel err \S+\s+FAIL$", out, re.M)


def test_ft_selftest_takes_every_naive_transform_in_one_pass(monkeypatch, capsys):
    q, d, trials, seed = 5, 2, ffharm.cli._SELFTEST_TRIALS, 7
    real = fourier.character_sums
    passes = []

    def recording(ctx, m, weights):
        passes.append(real(ctx, m, weights))
        return passes[-1]

    monkeypatch.setattr(fourier, "character_sums", recording)
    argv = ["ft", "selftest", "--q", str(q), "--d", str(d)]
    assert main(argv + ["--seed", str(seed)]) == 0
    monkeypatch.undo()
    (batched,) = passes
    assert batched.shape == (q**d, trials)
    # column t is the naive transform of the t-th vector drawn from the seed
    ctx = FieldCtx(q, d)
    rng = np.random.default_rng(seed)
    for column in batched.T:
        values = rng.standard_normal(ctx.size) + 1j * rng.standard_normal(ctx.size)
        naive = fourier.ft_naive(GridFunction(ctx, values, Side.PrimalCounting)).values
        assert np.abs(column - naive).max() < 1e-12


def _spec(tmp_path, name, seed=7):
    return ScanSpec(
        variety="paraboloid",
        d=3,
        qs=[3, 5, 7],
        pair=ExponentPair(Fraction(3, 2), Fraction(2)),
        method="search",
        seed=seed,
        sign_mode="signed",
        out=str(tmp_path / name),
    )


def test_scan_deterministic(tmp_path, capsys):
    spec_a = _spec(tmp_path, "a.csv")
    spec_b = _spec(tmp_path, "b.csv")
    assert cmd_restrict_scan(spec_a) == 0
    assert cmd_restrict_scan(spec_b) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b
    assert a.startswith(b"q,d,variety,p,r,method,sign_mode,estimate,")
    assert b"\r" not in a  # LF endings


def test_scan_rows_run_on_the_calling_thread(tmp_path, monkeypatch):
    seen = []

    def recording_row(spec, q):
        seen.append((q, threading.get_ident()))
        return _scan_row(spec, q)

    monkeypatch.setattr(ffharm.cli, "_scan_row", recording_row)
    assert cmd_restrict_scan(_spec(tmp_path, "serial.csv")) == 0
    assert seen == [(q, threading.get_ident()) for q in (3, 5, 7)]


def test_scan_rows_match_single_runs(tmp_path):
    spec = _spec(tmp_path, "match.csv", seed=3)
    cmd_restrict_scan(spec)
    lines = (tmp_path / "match.csv").read_text().strip().split("\n")[1:]
    for line in lines:
        fields = line.split(",")
        q, estimate = int(fields[0]), float(fields[7])
        v = build_variety(FieldCtx(q, 3), "paraboloid")
        rep = rnorm_search(v, spec.pair, SearchConfig(seed=3, sign_mode="signed"))
        assert abs(rep.estimate - estimate) < 1e-9


def test_scan_flushes_partial_results_on_failure(tmp_path, capsys):
    spec = ScanSpec(
        variety="poly:1",  # empty variety: every q fails
        d=2,
        qs=[3, 5],
        pair=ExponentPair(Fraction(2), Fraction(2)),
        method="search",
        out=str(tmp_path / "fail.csv"),
    )
    with pytest.warns(UserWarning):
        assert cmd_restrict_scan(spec) == 1
    text = (tmp_path / "fail.csv").read_text()
    assert text.startswith("q,d,")
    assert len(text.strip().split("\n")) == 1  # header only


def test_scan_spec_rejects_bad_q():
    with pytest.raises(ValueError):
        ScanSpec(
            variety="plane",
            d=3,
            qs=[4],
            pair=ExponentPair(Fraction(2), Fraction(2)),
            out="x.csv",
        )


@pytest.mark.parametrize(
    "field,value,message",
    [("seed", -1, "seed"), ("method", "bogus", "unknown method"), ("sign_mode", "bogus", "sign mode")],
    ids=["seed", "method", "sign_mode"],
)
def test_scan_spec_rejects_a_bad_request(tmp_path, field, value, message):
    out = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=message):
        ScanSpec(
            variety="paraboloid",
            d=3,
            qs=[3, 5],
            pair=ExponentPair(Fraction(3, 2), Fraction(2)),
            out=str(out),
            **{field: value},
        )
    assert not out.exists()


def test_restrict_scan_out_in_a_missing_directory_exits_2(tmp_path, monkeypatch, capsys):
    def no_row(*args, **kwargs):
        raise AssertionError("a row ran before the CSV was opened")

    monkeypatch.setattr(ffharm.cli, "_scan_row", no_row)
    out = tmp_path / "missing" / "x.csv"
    argv = ["restrict", "scan", "--variety", "paraboloid", "--d", "3", "--q", "5,7"]
    assert main([*argv, "--p", "2", "--r", "2", "--method", "exact22", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_cmd_sum_direct(capsys):
    assert cmd_sum("gauss", 7, 3) == 0
    assert cmd_sum("salie", 7, 2, 5) == 0
    capsys.readouterr()
    with pytest.raises(ValueError, match="unknown sum kind 'bogus'"):
        cmd_sum("bogus", 7, 1, 2)
    for kind in ("kloosterman", "salie"):
        with pytest.raises(ValueError, match=f"^{kind} requires --b$"):
            cmd_sum(kind, 7, 1)
    with pytest.raises(ValueError, match="nonzero mod q"):
        cmd_sum("kloosterman", 7, -7, 0)
    with pytest.raises(ZeroParameter, match="^Gauss sum requires a != 0$"):
        cmd_sum("gauss", 7, 7)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sphere", "count", "--q", "5", "--d", "1", "--j", "0"],
        ["ft", "selftest", "--q", "5", "--d", "1"],
        ["sphere", "verify-lemma1", "--q", "3", "--d", "2,1"],
        ["restrict", "norm", "--q", "5", "--d", "x", "--variety", "plane", "--p", "2", "--r", "2"],
    ],
)
def test_bad_dimension_exits_2(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_non_integer_sphere_radius_exits_2(capsys):
    assert main(["variety", "info", "--q", "5", "--d", "3", "--variety", "sphere:x"]) == 2
    assert "sphere radius" in capsys.readouterr().err


# the first is refused at parsing: the search always runs q + 5 starts
_BAD_REQUESTS = [
    ["--p", "3/2", "--r", "2", "--starts", "0"],
    ["--p", "inf", "--r", "2"],
    ["--p", "3/2", "--r", "2", "--method", "exact22"],
    ["--p", "3/2", "--r", "2/0"],
    ["--p", "3/2", "--r", "2", "--seed", "-1"],
]


@pytest.mark.parametrize("extra", _BAD_REQUESTS)
@pytest.mark.parametrize("command", ["norm", "scan"])
def test_bad_request_exits_2_before_any_row(tmp_path, monkeypatch, extra, command):
    def no_build(*args):
        raise AssertionError("variety built for a request that cannot run")

    monkeypatch.setattr(ffharm.cli, "build_variety", no_build)
    out = tmp_path / "x.csv"
    where = ["--q", "5"] if command == "norm" else ["--q", "5,7", "--out", str(out)]
    argv = ["restrict", command, "--variety", "paraboloid", "--d", "3"] + where + extra
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert not out.exists()


def _no_grid(owner):
    raise AssertionError(f"full grid of {owner} built on the restriction path")


@pytest.mark.parametrize(
    "variety,d",
    [("paraboloid", 3), ("paraboloid", 4), ("poly:x1^2-x2*x3", 3), ("poly:x1^2+x2^2-x3*x4", 4)],
)
@pytest.mark.parametrize(
    "method,p", [("exact22", "2"), ("search", "3/2"), ("witness", "3/2")]
)
@pytest.mark.parametrize("q", [3, 7])
def test_restriction_path_never_builds_the_grid(monkeypatch, capsys, variety, d, method, p, q):
    monkeypatch.setattr(FieldCtx, "grid_points", _no_grid)
    monkeypatch.setattr(FieldCtx, "grid_norms", _no_grid)
    monkeypatch.setattr(Variety, "flat", property(_no_grid))
    spec = ScanSpec(variety, d, [q], ExponentPair(Fraction(p), Fraction(2)), method=method)
    assert _scan_row(spec, q).startswith(f"{q},{d},")
    for sub in ("info", "intersect"):
        main(["variety", sub, "--q", str(q), "--d", str(d), "--variety", variety])
    assert "|V cap S_0|=" in capsys.readouterr().out


def test_variety_info_past_the_grid_budget(capsys):
    assert main(["variety", "info", "--q", "211", "--d", "4", "--variety", "paraboloid"]) == 0
    assert "|V|=9393931 " in capsys.readouterr().out


def test_block_over_budget_exits_2(capsys):
    argv = ["variety", "info", "--q", "101", "--d", "5", "--variety", "poly:x1*x2*x3*x4*x5-1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds the enumeration budget" in err
    assert "Traceback" not in err


def test_refused_over_the_byte_budget_exits_2(capsys):
    # (20011, 3) has moduli, but the transform route's arrays would take
    # about 13 GB; no block is enumerated and nothing transformed.  A cubic
    # takes that route, where a quadric would be counted through the pencil
    argv = ["variety", "info", "--q", "20011", "--d", "3", "--variety", "poly:x1^2+x2^2-x3^3"]
    with mock.patch.object(ffharm.varieties, "_block_table", side_effect=AssertionError):
        with mock.patch.object(ffharm.varieties, "_block_spectrum", side_effect=AssertionError):
            assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: counting")
    assert "over the budget of 800000000" in captured.err


# ---------------------------------------------------------------------------
# main parses every line on one parser tree, built by its first call


def _split(*lines):
    return [line.split() for line in lines]


# every leaf command line of these tests, the CI workflow, the demos (none)
# and the benchmark workloads
_LEAF_LINES = _split(
    "sum kloosterman --q 3 --a 1 --b 1",
    "sum gauss --q 5 --a 1",
    "sum kloosterman --q 7 --a 0 --b 0",
    "sum gauss --q 7 --a 0",
    "sphere count --q 3 --d 2 --j 1",
    "sphere ft --q 3 --d 2 --j 1 --x 1,1",
    "sphere verify-lemma1 --q 3,10007 --d 2,3",
    "sphere verify-lemma1 --q 3,5,7,11,13,17 --d 2,3",
    "sphere verify-lemma1 --q 3,5,7,11 --d 4",
    "sphere verify-lemma1 --q 13 --d 4",
    "sphere verify-lemma1 --q 5,7 --d 5",
    "variety info --q 3 --d 3 --variety paraboloid",
    "variety intersect --q 3 --d 3 --variety sphere:0",
    "variety info --q 1009 --d 4 --variety poly:x1^2+x2^2-x3*x4",
    "variety info --q 31 --d 10 --variety paraboloid",
    "restrict norm --q 5 --d 3 --variety paraboloid --p 2 --r 2 --method exact22",
    "restrict norm --q 7 --d 3 --variety paraboloid --r 2 --p 3/2 --seed 2",
    "restrict norm --q 101 --d 3 --variety paraboloid --p 3/2 --r 2",
    "restrict region --d 3 --p 3/2 --r 2",
    "restrict scan --variety paraboloid --d 3 --q 13,31,61,101 --p 3/2 --r 2 --method search"
    " --seed 0 --out search_d3.csv",
    "restrict scan --variety paraboloid --d 4 --q 11,31 --p 8/5 --r 2 --method search --seed 1"
    " --out search_d4.csv",
    "restrict scan --variety paraboloid --d 4 --q 41,47,53,61 --p 2 --r 2 --method exact22"
    " --seed 0 --out exact_d4_paraboloid.csv",
    "restrict scan --variety poly:x1^2+x2^2-x3*x4 --d 4 --q 41,47,53,61 --p 2 --r 2"
    " --method exact22 --seed 3 --out exact_d4_null_cone.csv",
    "restrict scan --method exact22 --variety paraboloid --d 3 --q 1009 --p 2 --r 2 --out x.csv",
    "restrict scan --method search --sign-mode nonneg --variety paraboloid --d 3 --q 1009"
    " --p 3/2 --r 2 --out x.csv",
    "ft selftest --q 3 --d 2",
    "ft selftest --q 5 --d 2 --seed 7",
    "ft selftest --q 13 --d 3 --seed 2",
)


def test_main_builds_one_tree_and_reuses_it(capsys):
    ffharm.cli._parser.cache_clear()
    assert main(["sum", "gauss", "--q", "5", "--a", "1"]) == 0
    assert main(["restrict", "region", "--d", "3", "--p", "3/2", "--r", "2"]) == 0
    info = ffharm.cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # in order, so a line that leaves out an option (--b after --b 1, --seed
    # after --seed 2 or --seed 3) must get its default on the reused tree
    parser = ffharm.cli._parser()
    for argv in _LEAF_LINES:
        got, want = vars(parser.parse_args(argv)), vars(build_parser().parse_args(argv))
        # each tree has its own leaf parsers, so those compare by name
        assert got.pop("parser").prog == want.pop("parser").prog == "ffharm " + " ".join(
            argv[: 1 if argv[0] == "sum" else 2]
        )
        assert got == want


def test_import_builds_no_parser():
    # a fresh interpreter, where ArgumentParser fails if anything builds one
    code = (
        "import argparse\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('parser built on import')\n"
        "argparse.ArgumentParser.__init__ = refuse\n"
        "import ffharm.cli\n"
        "assert ffharm.cli._parser.cache_info().currsize == 0\n"
    )
    src = str(Path(ffharm.cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


# the order of each leaf's arguments and the commands' help texts, which
# the tests above cannot see
_USAGE = {
    "sum": "[-h] --q Q --a A [--b B] {gauss,kloosterman,salie}",
    "sphere count": "[-h] --q Q --d D --j J",
    "sphere ft": "[-h] --q Q --d D --j J --x X",
    "sphere verify-lemma1": "[-h] --q Q --d D",
    "variety info": "[-h] --q Q --d D --variety VARIETY",
    "variety intersect": "[-h] --q Q --d D --variety VARIETY",
    "restrict norm": "[-h] --d D --variety VARIETY --p P --r R [--method {search,exact22,witness}]"
    " [--seed SEED] [--sign-mode {signed,nonneg}] --q Q",
    "restrict scan": "[-h] --d D --variety VARIETY --p P --r R [--method {search,exact22,witness}]"
    " [--seed SEED] [--sign-mode {signed,nonneg}] --q Q --out OUT",
    "restrict region": "[-h] --d D --p P --r R",
    "ft selftest": "[-h] --q Q --d D [--seed SEED]",
}


@pytest.mark.parametrize("command", list(_USAGE))
def test_leaf_usage_line(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(command.split() + ["--help"])
    assert capsys.readouterr().out.splitlines()[0] == f"usage: ffharm {command} {_USAGE[command]}"


# usage errors that the commands raise after parsing
_LATE_USAGE_ERRORS = {
    "sum": ("sum kloosterman --q 3 --a 1", "kloosterman requires --b"),
    "sphere ft": ("sphere ft --q 3 --d 2 --j 1 --x 1", "--x needs 2 coordinates"),
    "restrict norm": (
        "restrict norm --q 5 --d 3 --variety paraboloid --p 3/2 --r 2 --method exact22",
        "method exact22 requires --p 2 --r 2",
    ),
    "restrict scan": (
        "restrict scan --q 5 --d 3 --variety paraboloid --p 3/2 --r 2 --method exact22"
        " --out x.csv",
        "method exact22 requires --p 2 --r 2",
    ),
}


@pytest.mark.parametrize("command", list(_LATE_USAGE_ERRORS))
def test_late_usage_error_prints_the_leaf_usage(monkeypatch, capsys, tmp_path, command):
    # as argparse's own errors do: the leaf's usage line, then its prog
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.chdir(tmp_path)
    line, message = _LATE_USAGE_ERRORS[command]
    with pytest.raises(SystemExit) as info:
        main(line.split())
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage: ffharm {command} {_USAGE[command]}\nffharm {command}: error: {message}\n"
    )
    assert not (tmp_path / "x.csv").exists()


def test_help_lists_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["--help"])
    assert """
  {sum,sphere,variety,restrict,ft}
    sum                 compute one exponential sum and check its bound
    sphere              sphere cardinalities and transforms
    variety             build varieties and check the S_0 intersection
    restrict            restriction norms, scans, region tests
    ft                  Fourier engine self-test
""" in capsys.readouterr().out
