"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the directory that holds ``src/`` and
``bench/``.  It imports fracctrl from that ``src/`` and nothing else, and
exits with code 2 when the sources are not there.

``--trace 0`` measures the end-to-end metrics.  It first times set-up
(a fresh interpreter that imports fracctrl and builds the workload's
inputs) ``SETUP_SAMPLES`` times, then runs jobs until ``--seconds`` have
passed and at least the workload's ``min_jobs`` ran, but never more than
its ``max_jobs`` (None: no cap).

``--trace 1`` gives the per-layer metrics: it runs job 0 untraced, then
job 0 again with every layer wrapped, and reports the difference of the two
wall times as the tracing overhead.  The spans go to
``.bench_out/<workload>-seed<N>.spans`` (see ``Tracer.write``).

Every output is checked after the timed region.  The last line of standard
output is the result JSON; the line before it holds the environment, the
per-part medians under their own names and any failed checks, and is also
written to ``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the workload's inputs and exit (timed by the parent run)")
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
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
    return None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with scipy, if it is that BLAS."""
    import ctypes
    import scipy

    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def time_setup(args) -> list[float]:
    """Wall time of SETUP_SAMPLES fresh interpreters that import fracctrl and
    build the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    return samples


def _total(parts: dict[str, list[float]]) -> float:
    return math.fsum(s for vals in parts.values() for s in vals)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fracctrl" / "__init__.py").is_file():
        sys.stderr.write(f"error: no fracctrl sources in {src}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(src))
    import fracctrl
    from tracer import Layers, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload '{args.workload}'; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2
    cls = WORKLOADS[args.workload]
    workdir = OUT / args.workload
    if args.setup_only:
        cls(args.seed, workdir)
        return 0

    setup = [] if args.trace else time_setup(args)
    workload = cls(args.seed, workdir)
    outputs = []
    samples: dict[str, list[float]] = defaultdict(list)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    if args.trace:
        out, parts = workload.job(0)
        outputs.append(out)
        untraced = _total(parts)
        tracer = Tracer()
        with Layers(fracctrl, tracer):
            out, parts = workload.job(0)
        outputs.append(out)
        metrics = layer_metrics(tracer, _total(parts) - untraced)
        detail = {"untraced_s": untraced, "traced_s": _total(parts)}
    else:
        deadline = time.perf_counter() + args.seconds
        while len(outputs) < cls.min_jobs or (
                time.perf_counter() < deadline and len(outputs) != cls.max_jobs):
            out, parts = workload.job(len(outputs))
            outputs.append(out)
            for name, vals in parts.items():
                samples[name].extend(vals)
        # job_s is the mean job, not a median: on a shared host speed can
        # switch between levels for seconds at a time (1.6x apart on a 2-vCPU
        # VM), and a median of samples jumps between the levels while the mean
        # follows the share of time spent in each.
        job_s = _total(samples) / len(outputs)
        detail = {name: statistics.median(vals) for name, vals in samples.items()}
        detail["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "job_s": {"value": job_s, "unit": "s"}}

    attempted, failed, problems = workload.check(outputs)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": len(outputs), "failed_frac": failed / attempted, "detail": detail,
        "samples": dict(samples), "setup_samples": setup, "problems": problems,
        "environment": environment(),
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer.write(stem)
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
