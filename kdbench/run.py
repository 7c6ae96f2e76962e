"""Benchmark for the kdesign library.

    python3 kdbench/run.py --workload decay-n5 --seed 1 --seconds 10 --trace 0

Runs one workload (see workloads.py) from the root of a source checkout,
against the library in ./src.  Rounds of the workload's fixed operations
run until --seconds have passed; each operation's output is checked
outside the timed region.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, which are the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
A record of the run, and with --trace 1 its spans, go to kdbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MODULES = ["f2", "pauli", "dense", "commutant", "ensembles", "moments", "attack", "cli"]
SETUP_PROBES = 5
BLAS_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up as a run would, report readiness on stdout, and exit
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "kdesign", "__init__.py")):
        raise SystemExit(f"kdbench: no kdesign sources under {SRC}")


def load_library():
    """Import kdesign from this checkout's src/ and return its modules by name."""
    require_sources()
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"kdesign.{name}") for name in MODULES}
    if not mods["f2"].__file__.startswith(SRC):
        raise SystemExit(f"kdbench: imported kdesign from {mods['f2'].__file__}, not {SRC}")
    return mods


def setup(args):
    """Imports, inputs from the seed, and warm-up: what setup_s measures."""
    mods = load_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload](SimpleNamespace(**mods), args.seed)
    workload.warm_up()
    return mods, workload


def measure_setup(argv) -> float:
    """Median time from process start to ready, over fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv, "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"kdbench: setup probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def library_caches(mods) -> list:
    seen = {}
    for m in mods.values():
        for v in vars(m).values():
            if callable(getattr(v, "cache_clear", None)):
                seen[id(v)] = v
    return list(seen.values())


def run_rounds(workload, seconds: float, caches: list):
    """Whole rounds until `seconds` of wall time have passed.

    Returns per-round op wall and CPU times, attempted, failed, and the
    output-check failures (a subset of the failed operations)."""
    round_wall, round_cpu = [], []
    attempted = failed = rejected = 0
    started = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - started < seconds:
        wall = cpu = 0.0
        for op in workload.round(i):
            attempted += 1
            if op.cold:
                for c in caches:
                    c.cache_clear()
            c0, t0 = os.times(), time.perf_counter()
            try:
                result = op.call()
            except Exception:  # an operation that raises counts as failed
                result, error = None, traceback.format_exc()
            else:
                error = None
            t1, c1 = time.perf_counter(), os.times()
            wall += t1 - t0
            cpu += (c1.user - c0.user) + (c1.system - c0.system)
            if error is not None:
                failed += 1
                print(f"kdbench: {op.name} raised\n{error}", file=sys.stderr)
                continue
            problem = op.check(result)
            if problem is not None:
                failed += 1
                rejected += 1
                print(f"kdbench: {op.name} rejected: {problem}", file=sys.stderr)
        round_wall.append(wall)
        round_cpu.append(cpu)
        i += 1
    return round_wall, round_cpu, attempted, failed, rejected


def machine_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine, where /proc/stat exists."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def git_sha() -> str | None:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:  # before numpy loads OpenBLAS; children inherit it
        os.environ.setdefault(var, nproc)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"kdbench: unknown workload {args.workload!r}")

    if args.setup_probe:
        setup(args)
        print("ready", flush=True)
        return 0

    require_sources()
    setup_s = measure_setup(argv)
    mods, workload = setup(args)
    import numpy as np

    caches = library_caches(mods)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(mods)
        tracer.install()
    ticks0 = machine_ticks()
    try:
        round_wall, round_cpu, attempted, failed, rejected = run_rounds(
            workload, args.seconds, caches
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    ticks1 = machine_ticks()
    problem = workload.final_check()
    if problem is not None:
        print(f"kdbench: {problem}; every operation counts as failed", file=sys.stderr)
        failed = rejected = attempted

    rounds = len(round_wall)
    run_s = statistics.median(round_wall)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        # per round, so that runs completing different numbers of rounds compare
        metrics = {
            name: (value / rounds if unit != "ratio" else value, unit)
            for name, (value, unit) in tracer.layer_metrics().items()
        }
        metrics["process.cpu_s"] = (sum(round_cpu) / rounds, "s")

    result = {
        "correct": rejected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "environment": environment(args, np),
        "rounds": rounds,
        "round_wall_s": round_wall,
        "round_cpu_s": round_cpu,
        "run_s": run_s,
        # share of the machine's CPU time taken by its hypervisor while timing,
        # to tell a slow machine from slow code
        "steal_share": (
            (ticks1[0] - ticks0[0]) / max(ticks1[1] - ticks0[1], 1) if ticks0 and ticks1 else None
        ),
        **result,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    if tracer is not None:
        record["span_coverage"] = tracer.covered_s() / sum(round_wall)
        tracer.write(stem + ".spans.json")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
