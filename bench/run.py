"""ffharm benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload search --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src``.  A
fresh child process imports ``ffharm.cli`` and calls ``main`` with the
workload's command lines in a closed loop (one caller, each call waits for
the previous one) until ``--seconds`` are spent; every output then goes
through the correctness gate in ``workloads.py``, outside the timed region.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the median of several set-up times (child start until ``ffharm.cli`` is
imported) and the child's peak resident memory over its first two passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``spans.py``) plus the tracing
overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(operations, see ``workloads.py``) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from spans import layer_metrics  # noqa: E402
from workloads import WORKLOADS, iters_sums, load_reference  # noqa: E402

# set-up is short and noisy, so each run samples it this many times
SETUP_SAMPLES = 7
# every run makes at least this many passes, and peak memory is read after
# exactly this many: freed heap the process keeps grows with each pass, so
# a peak read after however many passes fit in the time would vary with
# the machine's speed
MIN_PASSES = 2
# a traced run makes at least the passes untraced, traced, untraced, so
# the untraced median brackets the traced pass; later passes of a process
# can run slower than the first, which a single untraced-then-traced pair
# would count as tracing overhead
MIN_PASSES_TRACED = 3
# a run must end within this many seconds, whatever the program does
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "restriction.search_s": "s",
    "restriction.ascent_steps": "count",
    "restriction.s_per_step": "s",
    "restriction.radial_matrix_s": "s",
    "restriction.matrix_mb": "MB",
    "restriction.exact22_s": "s",
    "restriction.exact22_iters": "count",
    "varieties.build_s": "s",
    "varieties.eval_poly_grid_s": "s",
    "varieties.intersect_s": "s",
    "varieties.points": "count",
    "field.grid_points_s": "s",
    "field.grid_norms_s": "s",
    "field.grid_mb": "MB",
    "spheres.naive_grid_s": "s",
    "spheres.closed_grid_s": "s",
    "spheres.verify_s": "s",
    "spheres.closed_by_norm_calls": "count",
    "spheres.closed_by_norm_s": "s",
    "spheres.sphere_sizes_s": "s",
    "expsums.calls": "count",
    "expsums.s": "s",
    "fourier.ft_naive_s": "s",
    "fourier.ft_fast_s": "s",
    "fourier.ift_s": "s",
    "fourier.naive_macs": "count",
    "cli.row_s_max": "s",
    "cli.row_s_sum": "s",
    "cli.pool_idle_frac": "frac",
    "cli.cpu_s": "s",
    "cli.cpu_per_wall": "frac",
    "trace.span_s": "s",
    "trace.overhead_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def _start_child(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a child; return it once it reports ready, with its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchError(f"child did not start (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> int:
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _sample_setups(n: int, deadline: float) -> list[float]:
    setups = []
    for _ in range(n):
        proc, setup = _start_child(["--setup-only"], deadline)
        if _finish(proc, deadline) != 0:
            raise BenchError("set-up child failed")
        setups.append(setup)
    return setups


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int, program: dict) -> dict:
    try:
        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e6
    except (ValueError, OSError):
        mem = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem,
        "python": platform.python_version(),
        **program,
        "FFHARM_THREADS": os.environ.get("FFHARM_THREADS"),
        "seed": seed,
        "commit": _git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Set-up samples plus one closed-loop child; returns the child's result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        # set-up samples come from before and after the workload, so that
        # a slow spell of the machine does not set all of them
        setups = _sample_setups(SETUP_SAMPLES // 2, deadline)
        job = work / "job.json"
        job.write_text(json.dumps(
            {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
             "min_passes": MIN_PASSES_TRACED if trace else MIN_PASSES}
        ))
        proc, setup = _start_child([str(job)], deadline)
        setups.append(setup)
        if _finish(proc, deadline) != 0:
            raise BenchError(f"workload child failed (exit {proc.returncode})")
        result = json.loads((work / "result.json").read_text())
        setups += _sample_setups(SETUP_SAMPLES - len(setups), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    result["setups"] = setups
    return result


def gate(calls, passes, seed: int, reference: dict) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        for call, out in zip(calls, p["outputs"]):
            a, f = call.check(seed, out["rc"], out["stdout"], out["csv"], reference)
            attempted += a
            failed += f
    return attempted, failed


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p["wall"] for p in result["passes"] if not p["traced"]),
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mb": result["passes"][MIN_PASSES - 1]["rss_kb"] * 1024 / 1e6,
    }


def per_layer(calls, result: dict) -> dict[str, float]:
    traced = []
    for p in result["passes"]:
        if not p["traced"]:
            continue
        p["ascent_steps"], p["exact22_iters"] = iters_sums(calls, p["outputs"])
        traced.append(layer_metrics(p["spans"], p))
    # median_low keeps each figure one that a traced pass produced
    metrics = {name: statistics.median_low(m[name] for m in traced) for name in traced[0]}
    wall = lambda flag: statistics.median(p["wall"] for p in result["passes"] if p["traced"] == flag)
    metrics["trace.overhead_frac"] = wall(True) / wall(False) - 1.0
    return metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny runs every workload at q <= 7 (for the smoke test)",
    )
    return ap.parse_args(argv)


def main(argv=None, reference: dict | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ffharm" / "cli.py").is_file():
        print(f"error: no ffharm sources under {SRC}", file=sys.stderr)
        return 2
    if reference is None:
        reference = load_reference()
    calls = WORKLOADS[args.workload][args.size]
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    attempted, failed = gate(calls, result["passes"], args.seed, reference)
    if args.trace:
        metrics, units = per_layer(calls, result), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(result), END_TO_END_UNITS

    print("machine " + json.dumps(machine_facts(args.seed, result["program"])))
    walls = [round(p["wall"], 3) for p in result["passes"]]
    rss = [round(p["rss_kb"] * 1024 / 1e6, 1) for p in result["passes"]]
    print(f"workload {args.workload} size={args.size} passes={len(walls)} pass_walls_s={walls} "
          f"peak_rss_mb_after_pass={rss}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
