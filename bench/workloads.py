"""The benchmark's workloads and the correctness gate on their outputs.

Each workload is a fixed list of ``ffharm`` command lines; the benchmark's
``--seed`` reaches the program only as ``restrict scan --seed`` and
``ft selftest --seed``.  Why each workload was chosen, and which per-layer
figure should move which end-to-end metric on it, is in README.md.

The gate compares every output against ``reference.json``: values that
``reference.py`` computed at the commit that defined the benchmark, by the
program's independent routes (closed-form witnesses, a dense singular value
decomposition).  Each call's ``check`` returns the operations it attempted
and failed: one operation is one CSV row, one verified ``(q, d)`` pair or
one self-test check.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CSV_HEADER = "q,d,variety,p,r,method,sign_mode,estimate,iters,seed,v_size,v_cap_s0,threshold"
NULL_CONE = "poly:x1^2+x2^2-x3*x4"
# the seed whose search estimates reference.json records
REFERENCE_SEED = 0

# a search estimate may sit below its witness by rounding only
WITNESS_TOL = 1e-9
SEARCH_REL_TOL = 1e-9
EXACT22_ABS_TOL = 1e-8
CERTIFY_MAX_ERR = 1e-9

_PAIR_RE = re.compile(r"^q=(\d+) d=(\d+)\s+max_err=(\S+)\s+(PASS|FAIL)", re.M)
_OVERALL_RE = re.compile(r"^overall max_err=(\S+)$", re.M)


@dataclass(frozen=True)
class Scan:
    variety: str
    d: int
    qs: tuple[int, ...]
    p: str
    r: str
    method: str = "search"

    def argv(self, seed: int, out: str) -> list[str]:
        return [
            "restrict", "scan", "--variety", self.variety, "--d", str(self.d),
            "--q", ",".join(map(str, self.qs)), "--p", self.p, "--r", self.r,
            "--method", self.method, "--seed", str(seed), "--out", out,
        ]

    @property
    def ops(self) -> int:
        return len(self.qs)

    def key(self, q: int) -> str:
        return f"{self.variety}|d={self.d}|q={q}|p={self.p}|r={self.r}|{self.method}"

    def check(self, seed: int, rc: int, stdout: str, csv_text: str, ref: dict):
        """(operations attempted, operations failed) of one call's output."""
        if rc != 0 or not csv_text.startswith(CSV_HEADER + "\n"):
            return self.ops, self.ops
        rows = {}
        for row in csv.DictReader(io.StringIO(csv_text)):
            rows.setdefault(row["q"], row)
        failed = sum(
            1 for q in self.qs
            if str(q) not in rows or not self._row_ok(q, rows[str(q)], seed, ref)
        )
        return self.ops, failed

    def _row_ok(self, q: int, row: dict, seed: int, ref: dict) -> bool:
        want = ref.get(self.key(q))
        if want is None:
            return False
        try:
            estimate = float(row["estimate"])
            if (int(row["q"]), int(row["d"]), row["p"], row["r"], int(row["seed"])) != (
                q, self.d, self.p, self.r, seed,
            ):
                return False
            if (int(row["v_size"]), int(row["v_cap_s0"])) != (want["v_size"], want["v_cap_s0"]):
                return False
        except (KeyError, ValueError):
            return False
        if self.method == "exact22":
            return abs(estimate - want["dense_sigma"]) <= EXACT22_ABS_TOL
        if estimate < want["witness"] - WITNESS_TOL:
            return False
        if seed == REFERENCE_SEED:
            ref_est = want["estimate_seed0"]
            return abs(estimate - ref_est) <= SEARCH_REL_TOL * abs(ref_est)
        return True


@dataclass(frozen=True)
class Verify:
    qs: tuple[int, ...]
    ds: tuple[int, ...]

    def argv(self, seed: int, out: str) -> list[str]:
        return [
            "sphere", "verify-lemma1",
            "--q", ",".join(map(str, self.qs)), "--d", ",".join(map(str, self.ds)),
        ]

    @property
    def ops(self) -> int:
        return len(self.qs) * len(self.ds)

    def check(self, seed: int, rc: int, stdout: str, csv_text: str, ref: dict):
        overall = _OVERALL_RE.search(stdout)
        if rc != 0 or overall is None or not float(overall.group(1)) < CERTIFY_MAX_ERR:
            return self.ops, self.ops
        good = {
            (int(q), int(d))
            for q, d, err, verdict in _PAIR_RE.findall(stdout)
            if verdict == "PASS" and float(err) < CERTIFY_MAX_ERR
        }
        failed = sum(1 for q in self.qs for d in self.ds if (q, d) not in good)
        return self.ops, failed


@dataclass(frozen=True)
class Selftest:
    q: int
    d: int

    CHECKS = ("fast vs naive", "plancherel", "round-trip")

    def argv(self, seed: int, out: str) -> list[str]:
        return ["ft", "selftest", "--q", str(self.q), "--d", str(self.d), "--seed", str(seed)]

    @property
    def ops(self) -> int:
        return len(self.CHECKS)

    def check(self, seed: int, rc: int, stdout: str, csv_text: str, ref: dict):
        if rc != 0:
            return self.ops, self.ops
        failed = 0
        for label in self.CHECKS:
            m = re.search(rf"^{re.escape(label)}: max rel err (\S+)\s+PASS$", stdout, re.M)
            if m is None or not float(m.group(1)) < CERTIFY_MAX_ERR:
                failed += 1
        return self.ops, failed


def _exact_d4(qs):
    return [Scan(v, 4, qs, "2", "2", "exact22") for v in ("paraboloid", NULL_CONE)]


WORKLOADS = {
    "search": {
        "full": [
            Scan("paraboloid", 3, (13, 31, 61, 101), "3/2", "2"),
            Scan("paraboloid", 4, (11, 31), "8/5", "2"),
        ],
        "tiny": [
            Scan("paraboloid", 3, (3, 5, 7), "3/2", "2"),
            Scan("paraboloid", 4, (3, 5), "8/5", "2"),
        ],
    },
    "exact_d4": {
        "full": _exact_d4((41, 47, 53, 61)),
        "tiny": _exact_d4((3, 5, 7)),
    },
    "certify": {
        "full": [
            Verify((3, 5, 7, 11, 13, 17), (2, 3)),
            Verify((3, 5, 7, 11), (4,)),
            Selftest(13, 3),
        ],
        "tiny": [Verify((3, 5), (2, 3)), Verify((3,), (4,)), Selftest(5, 3)],
    },
}


def load_reference() -> dict:
    """Reference values per scan row, keyed by ``Scan.key``."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["rows"]


def iters_sums(calls, outputs) -> tuple[int, int]:
    """Summed CSV ``iters`` of search rows and of exact22 rows of one pass."""
    steps = exact = 0
    for call, out in zip(calls, outputs):
        if not isinstance(call, Scan) or not out["csv"]:
            continue
        total = sum(int(row["iters"]) for row in csv.DictReader(io.StringIO(out["csv"])))
        if call.method == "exact22":
            exact += total
        else:
            steps += total
    return steps, exact
