"""fectek benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout.  It imports fectek from `src/` there,
writes only under `.perfbench/`, and removes its working files on exit.  The
last line of standard output is `{"correct", "attempted", "failed",
"metrics"}`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1` (the spans themselves go to
`.perfbench/trace-<workload>-seed<n>.jsonl`).  The line before it records the
environment.
"""

from __future__ import annotations

import os

# One process, one client, at most nproc threads: BLAS runs single-threaded,
# and the encode command's pool already starts one thread per CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The process runs on one CPU at a time (see workloads.Run.pin).
CPUS = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, CPUS[:1])

import argparse
import json
import math
import platform
import resource
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train-desk", "index-scale")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(CPUS),
        "cpus": CPUS,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"), help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fectek" / "__init__.py").is_file():
        print(f"error: no fectek sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import fectek
    import workloads

    if Path(fectek.__file__).resolve().parent != SRC / "fectek":
        print(f"error: fectek imported from {fectek.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench"
    work = out / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    trace_path = out / f"trace-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    run = workloads.Run(work, args.seed, args.seconds, workloads.SIZES[args.size], CPUS)
    try:
        metrics = workloads.run_workload(args.workload, run, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if not math.isfinite(metrics.get(m["name"], math.nan))]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print("env: " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
