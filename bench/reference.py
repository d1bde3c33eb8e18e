"""Write reference.json: the values the correctness gate compares against.

    python3 bench/reference.py

For every scan row of every workload (full and tiny sizes) it records the
exact ``|V|`` and ``|V cap S_0|``; for search rows the closed-form witness
lower bound and the search estimate at the reference seed; for exact22
rows the top singular value of the dense measure-weighted radial matrix
(the route ``tests/test_restriction.py`` checks power iteration against).
The file is regenerated only on purpose: later commits are gated against
the values of the commit that wrote it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from ffharm import (  # noqa: E402
    ExponentPair,
    FieldCtx,
    SearchConfig,
    build_variety,
    radial_matrix,
    rnorm_search,
    sphere_sizes,
    witness_lower_bound,
    zero_sphere_intersection,
)
from run import _git_commit  # noqa: E402
from workloads import REFERENCE_PATH, REFERENCE_SEED, WORKLOADS, Scan  # noqa: E402


def dense_sigma(v) -> float:
    A = radial_matrix(v)
    weighted = A / math.sqrt(v.cardinality) / np.sqrt(sphere_sizes(v.ctx))[None, :]
    return float(np.linalg.svd(weighted, compute_uv=False)[0])


def reference_row(call: Scan, q: int) -> dict:
    v = build_variety(FieldCtx(q, call.d), call.variety)
    row = {"v_size": v.cardinality, "v_cap_s0": zero_sphere_intersection(v).count}
    if call.method == "exact22":
        row["dense_sigma"] = dense_sigma(v)
    else:
        pair = ExponentPair.parse(call.p, call.r)
        row["witness"] = witness_lower_bound(v, pair)
        row["estimate_seed0"] = rnorm_search(v, pair, SearchConfig(seed=REFERENCE_SEED)).estimate
    return row


def main() -> int:
    rows = {}
    for sizes in WORKLOADS.values():
        for calls in sizes.values():
            for call in calls:
                if isinstance(call, Scan):
                    for q in call.qs:
                        rows[call.key(q)] = reference_row(call, q)
                        print(call.key(q), rows[call.key(q)], flush=True)
    doc = {"generated_by": "python3 bench/reference.py", "commit": _git_commit(), "rows": rows}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
