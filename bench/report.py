"""Run the benchmark over workloads and seeds and print every metric.

    python3 bench/report.py                          # every workload, seed 0, trace 0 and 1
    python3 bench/report.py --seeds 1-10 --trace 0   # run-to-run spread per metric
    python3 bench/report.py --seeds 1-10 --trace 0 --out bench/baseline.json
    python3 bench/report.py --seeds 1,1 --trace 1 --out bench/baseline.json

Each run is ``bench/run.py`` in its own process, for BENCHMARK.json's
``run_seconds``.  Per workload and metric it prints the median over seeds,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``; for end-to-end metrics it flags a spread that is
not below a third of the metric's bound.  Traced runs also print each
layer's share of the summed span self time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer self-time metrics by layer; together with the self time of
# cli.row spans (the remainder) they add up to trace.span_s
LAYER_TIMES = {
    "restriction": ["restriction.search_s", "restriction.radial_matrix_s", "restriction.exact22_s"],
    "varieties": ["varieties.build_s", "varieties.eval_poly_grid_s", "varieties.intersect_s"],
    "field": ["field.grid_points_s", "field.grid_norms_s"],
    "spheres": ["spheres.naive_grid_s", "spheres.closed_grid_s", "spheres.verify_s",
                "spheres.closed_by_norm_s", "spheres.sphere_sizes_s"],
    "expsums": ["expsums.s"],
    "fourier": ["fourier.ft_naive_s", "fourier.ft_fast_s", "fourier.ift_s"],
}


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["machine"] = json.loads(next(l for l in lines if l.startswith("machine "))[8:])
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def layer_shares(per_layer: dict) -> dict[str, float]:
    total = per_layer["trace.span_s"]["median"]
    shares = {
        layer: sum(per_layer[n]["median"] for n in names) / total
        for layer, names in LAYER_TIMES.items()
    }
    shares["cli"] = 1.0 - sum(shares.values())
    return shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    ap.add_argument("--seeds", type=_seeds, default=[0])
    ap.add_argument("--trace", default="0,1")
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = ap.parse_args(argv)

    specs = {0: BENCHMARK["end_to_end"], 1: BENCHMARK["per_layer"]}
    summary = {"run_seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        entry = summary["workloads"].setdefault(workload, {})
        for trace in map(int, args.trace.split(",")):
            results = [run_once(workload, s, trace, args.seconds) for s in args.seeds]
            summary.setdefault("machine", results[0]["machine"])
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            table = {}
            entry["per_layer" if trace else "end_to_end"] = {
                "seeds": args.seeds, "failed_frac": failed / attempted, "metrics": table,
            }
            for spec in specs[trace]:
                stats = summarize([r["metrics"][spec["name"]]["value"] for r in results])
                stats["unit"] = spec["unit"]
                table[spec["name"]] = stats
                flag = ""
                if spec["unit"] == "count":
                    flag = "repeats exactly" if len(set(stats["values"])) == 1 else "VARIES"
                if "bound" in spec:
                    ok = stats["spread"] < spec["bound"] / 3
                    steady &= ok or spec["name"] == "setup_s"
                    flag = f"bound={spec['bound']}  {'ok' if ok else 'WIDE'}"
                print(f"{workload:9s} {spec['name']:30s} median={stats['median']:<12.6g} "
                      f"q1={stats['q1']:<12.6g} q3={stats['q3']:<12.6g} "
                      f"spread={stats['spread']:<8.3%} {spec['unit']:6s} {flag}")
            if trace:
                entry["layer_shares"] = layer_shares(table)
                print(f"{workload:9s} layer shares of trace.span_s: " + ", ".join(
                    f"{k}={v:.1%}" for k, v in entry["layer_shares"].items()))
            print(f"{workload:9s} failed_frac = {failed}/{attempted} = {failed / attempted:.3g} frac")
    if args.out:
        # a second report (say, the traced runs) adds to the same file
        if args.out.exists():
            old = json.loads(args.out.read_text())
            for workload, entry in summary.pop("workloads").items():
                old["workloads"].setdefault(workload, {}).update(entry)
            summary = {**summary, **old}
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
