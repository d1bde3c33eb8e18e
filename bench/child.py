"""One benchmark child process: a single caller of ``ffharm.cli.main``.

    python3 bench/child.py --setup-only
    python3 bench/child.py JOB.json

The child imports ``ffharm.cli`` from the checkout's ``src`` and prints
``ready`` (the parent times set-up up to that line).  With a job file it
then runs the workload's command lines in a closed loop, each call waiting
for the previous one, until the job's time is spent, and writes the
outputs, timings, peak memory so far and (for traced passes) the spans of
every pass next to the job file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import ffharm.cli

    if Path(ffharm.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"ffharm was imported from {ffharm.cli.__file__}, not {SRC}")
    return ffharm.cli


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _worker_count(n_tasks: int) -> int:
    """The scan's thread count: min(#q, nproc), capped by FFHARM_THREADS."""
    cap = os.cpu_count() or 1
    try:
        cap = max(1, int(os.environ.get("FFHARM_THREADS", "")))
    except ValueError:
        pass
    return max(1, min(n_tasks, cap))


def run_pass(cli, calls, seed: int, work: Path, tag: str) -> dict:
    outputs, scans = [], []
    wall = cpu = 0.0
    for k, call in enumerate(calls):
        out = work / f"{tag}-{k}.csv"
        argv = call.argv(seed, str(out))
        buf = io.StringIO()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as e:  # argparse rejected the command line
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # the gate counts the call's operations as failed
            traceback.print_exc()
            rc = 1
        elapsed = time.perf_counter() - t0
        cpu += _cpu_s() - cpu0
        wall += elapsed
        csv_text = ""
        if out.exists():
            csv_text = out.read_text()
            out.unlink()
        if argv[:2] == ["restrict", "scan"]:
            scans.append({"wall": elapsed, "workers": _worker_count(len(call.qs))})
        outputs.append({"rc": rc, "stdout": buf.getvalue(), "csv": csv_text})
    return {"wall": wall, "cpu": cpu, "outputs": outputs, "scans": scans}


def main(argv: list[str]) -> int:
    cli = _import_program()
    print("ready", flush=True)
    if argv == ["--setup-only"]:
        return 0
    job_path = Path(argv[0])
    job = json.loads(job_path.read_text())
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer
    from workloads import WORKLOADS

    calls = WORKLOADS[job["workload"]][job["size"]]
    work = job_path.parent
    deadline = time.perf_counter() + job["seconds"]
    passes = []
    while True:
        traced = job["trace"] and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            result = run_pass(cli, calls, job["seed"], work, f"pass{len(passes)}")
        finally:
            if tracer:
                tracer.uninstall()
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["traced"] = bool(traced)
        result["spans"] = tracer.dump() if tracer else None
        passes.append(result)
        if len(passes) >= job["min_passes"] and time.perf_counter() + result["wall"] > deadline:
            break
    (work / "result.json").write_text(json.dumps({"passes": passes, "program": _program_facts()}))
    return 0


def _program_facts() -> dict:
    """Versions and thread settings of the numerical stack the program ran on."""
    import ctypes

    import numpy as np

    facts = {"numpy": np.__version__, "openblas": None, "openblas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                facts["openblas"] = get_config().decode()
                facts["openblas_threads"] = int(get_threads())
                return facts
    return facts


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
