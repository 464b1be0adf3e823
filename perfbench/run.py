#!/usr/bin/env python3
"""gner benchmark: one workload per run, timed end to end or layer by layer.

    python3 perfbench/run.py --workload serve-oov|train-b16|tag-b64 \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds its inputs from the seed, runs
the package in ``src/`` against them, checks the outputs and prints, as its
last stdout line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the workload's measured shape and
the environment.  See README.md in this directory for what each workload
and metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = "1"
ENVIRONMENT = {
    # One BLAS thread in this process and every process it starts: the server
    # and the client of serve-oov share the machine's cores, and OpenBLAS
    # would otherwise start one thread per core in each.
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    # glibc malloc keeps freed memory in the process instead of unmapping it.
    # With the defaults, re-faulting the graph's freed arrays took a third of
    # tag-b64's time in a 2-vCPU VM, and its throughput's quartile spread
    # over ten runs was 25%, following the host's memory traffic.
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(4 << 30),
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("serve-oov", "train-b16", "tag-b64")


def source_digest(*dirs: Path) -> str:
    digest = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})",
        "blas_threads": int(BLAS_THREADS),
        "process_environment": ENVIRONMENT,
        "git_sha": git_sha(),
        "source_sha256": source_digest(SRC / "gner"),
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD's commit when the checkout is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # glibc reads the malloc settings at start-up, so apply them by
    # re-executing; numpy is not imported before this point.
    if any(os.environ.get(k) != v for k, v in ENVIRONMENT.items()):
        os.environ.update(ENVIRONMENT)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC / "gner" / "__init__.py").is_file():
        print(f"error: no gner package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    # Let a terminated run unwind, so its finally blocks stop the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    import tracing
    import workloads

    tracer = tracing.Tracer()
    if args.trace and args.workload != "serve-oov":
        # serve-oov traces inside the server process, through the launcher.
        tracing.install(tracer)
    runs = ROOT / ".bench_run"
    workdir = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    artifacts = runs / f"artifacts-{source_digest(SRC / 'gner', HERE)[:16]}"
    try:
        run = workloads.Run(args.seed, args.seconds, bool(args.trace), workdir, artifacts, tracer)
        workload = {"serve-oov": workloads.serve_oov, "train-b16": workloads.train_b16, "tag-b64": workloads.tag_b64}
        outcome = workload[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = tracing.layer_metrics(tracer.export())
        values["trace.tokens_per_s"] = outcome.metrics["tokens_per_s"]
    else:
        values = dict(outcome.metrics)
        values["success_rate"] = 1.0 - outcome.failed / outcome.attempted
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json's {sorted(units)}")
    detail = {"workload": args.workload, "trace": args.trace, "attempted": outcome.attempted,
              "failed": outcome.failed, **outcome.detail, "environment": environment(args.seed)}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
