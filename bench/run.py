"""hetecf benchmark: seeded CLI workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload train_dense --seed 0 --seconds 45 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics, with every program call
timed next to a pass of a fixed reference computation (reference.py);
``--trace 1`` runs the same fixed pass alternately untraced and traced
and reports the per-layer metrics.  ``--workload all`` runs each
workload in its own process.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines above it give the same numbers by name, the raw wall times,
the environment and any failed output checks.  See bench/README.md for
the workloads and predictions.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Part of the measured configuration: both sides of a comparison must match.
BLAS_THREADS = "1"

WORKLOADS = ("train_dense", "paths_sparse")

END_TO_END = {
    "setup_s": "s",
    "train_ref": "ref",
    "final_objective": "J",
    "heldout_rmse": "rmse",
    "topk_p50_ref": "ref",
    "peak_rss_mb": "MB",
}

# Printed by name but not in BENCHMARK.json: raw wall times, which the
# shared host moves by more than any bound the format allows.
WALL_TIMES = {"train_s": "s", "topk_p50_ms": "ms", "reference_ms": "ms"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def import_package():
    """Import hetecf from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hetecf" / "__init__.py").is_file():
        sys.exit(f"bench: no hetecf package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import hetecf
    import hetecf.cli

    if Path(hetecf.__file__).resolve().parent != (src / "hetecf").resolve():
        sys.exit(f"bench: imported hetecf from {hetecf.__file__}, not {src}")
    return hetecf.cli


def blas_threads():
    """OpenBLAS's own thread count, read through ctypes; None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import platform

    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def tail(values):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, by nearest rank; None when that is below p50."""
    n = len(values)
    if n < 20:
        return None
    p = int(100 * (n - 10) // n)
    return p, sorted(values)[max(0, -(-p * n // 100) - 1)]


def relative_walls(session, kind, window=9):
    """Wall time of each call of ``kind`` divided by the median of the
    ``window`` reference passes nearest to it, so each call is scaled by
    the host's speed at that moment rather than the run's average."""
    refs = session.reference_walls
    if len(refs) != len(session.calls):
        raise RuntimeError("every measured call must follow one reference pass")
    half = window // 2
    out = []
    for i, call in enumerate(session.calls):
        if call.kind == kind:
            lo = min(max(0, i - half), max(0, len(refs) - window))
            out.append(call.wall / statistics.median(refs[lo:lo + window]))
    return out


def end_to_end(session):
    """Gated metrics, raw wall times, sample counts and the query tail.

    ``train_ref`` and ``topk_p50_ref`` are medians of ``relative_walls``:
    they count reference passes, not seconds.
    """
    queries = [w * 1000.0 for w in session.walls("predict")]
    reference_ms = [w * 1000.0 for w in session.reference_walls]
    walls = {
        "train_s": statistics.median(session.walls("train")),
        "topk_p50_ms": statistics.median(queries),
        "reference_ms": statistics.median(reference_ms),
    }
    values = {
        "setup_s": statistics.median(session.walls("setup")),
        "train_ref": statistics.median(relative_walls(session, "train")),
        "final_objective": session.final_objective,
        "heldout_rmse": session.heldout_rmse,
        "topk_p50_ref": statistics.median(relative_walls(session, "predict")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(session.walls("setup")),
        "train_ref": len(session.walls("train")),
        "topk_p50_ref": len(queries),
        "train_s": len(session.walls("train")),
        "topk_p50_ms": len(queries),
        "reference_ms": len(reference_ms),
    }
    return values, walls, counts, tail(queries)


def measure(workload, seed, seconds, cli, workdir):
    import workloads
    from reference import Reference

    warm = workloads.warm_up(seed, os.path.join(workdir, "warmup"), cli)
    reference = Reference()
    for _ in range(10):
        reference.time()
    session = workloads.Session(workload, seed, os.path.join(workdir, "run"), cli, reference)
    workloads.run_cycles(session, seconds)
    values, walls, counts, topk_tail = end_to_end(session)
    for name, value in values.items():
        n = f"  (median of {counts[name]})" if name in counts else ""
        print(f"{name:<16} {value!r:>24} {END_TO_END[name]}{n}")
    for name, value in walls.items():
        print(f"{name:<16} {value!r:>24} {WALL_TIMES[name]}  (median of {counts[name]})")
    if topk_tail is not None:
        p, v = topk_tail
        print(f"{'topk_tail_ms':<16} {v!r:>24} ms  (p{p} of {counts['topk_p50_ms']}, "
              "the highest percentile with ten samples beyond it)")
    calls = warm.calls + session.calls
    call_walls = {kind: session.walls(kind) for kind in ("setup", "evaluate", "train", "predict")}
    call_walls["reference"] = session.reference_walls
    return values, END_TO_END, calls, {"counts": counts, "topk_tail": topk_tail,
                                       "wall_times": walls, "walls": call_walls}


def trace(workload, seed, seconds, cli, workdir):
    import layers
    import workloads
    from tracer import Tracer

    warm = workloads.warm_up(seed, os.path.join(workdir, "warmup"), cli)
    session = workloads.Session(workload, seed, os.path.join(workdir, "run"), cli)
    queries = workloads.pass_queries(session, seed)
    untraced, traced, passes, spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        workloads.fixed_pass(session, queries)
        untraced.append(time.perf_counter() - start)
        with Tracer({**layers.OPERATIONS, **layers.TARGETS}) as tracer:
            start = time.perf_counter()
            workloads.fixed_pass(session, queries)
            traced.append(time.perf_counter() - start)
        passes.append(layers.layer_metrics(tracer.spans))
        spans.append(tracer.spans)
        if time.perf_counter() >= deadline:
            break
    # median_low: every value is one pass's own, so counts stay whole
    values = {name: statistics.median_low([p[name] for p in passes]) for name in passes[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(f"passes: {len(passes)} untraced + {len(passes)} traced, alternating; "
          "per-layer values are the traced passes' (lower) medians")
    if tracer.absent:
        print("absent (reported as 0): " + ", ".join(tracer.absent))
    for name, unit in layers.PER_LAYER.items():
        print(f"{name:<30} {values[name]!r:>24} {unit}")
    median_pass = sorted(range(len(traced)), key=traced.__getitem__)[len(traced) // 2]
    print("share of each operation's hetecf time (inclusive, median pass):")
    for op, seconds_by in sorted(layers.by_operation(spans[median_pass]).items()):
        total = seconds_by.pop("cli.main")
        top = sorted(seconds_by.items(), key=lambda kv: -kv[1])[:4]
        shares = ", ".join(f"{n} {v / total:.0%}" for n, v in top)
        print(f"  {op:<9} {total:8.3f} s: {shares}")
    out = WORK / f"spans-{workload}-seed{seed}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "absent": tracer.absent,
                   "passes": [[s.as_dict() for s in p] for p in spans]}, fh)
    print(f"spans written to {out.relative_to(ROOT)}")
    return values, layers.PER_LAYER, warm.calls + session.calls, {"passes": len(passes)}


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}/{name}"] = metric
    return totals


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    cli = import_package()
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}; one process, one closed-loop client")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        run = trace if args.trace else measure
        values, units, calls, extra = run(args.workload, args.seed, args.seconds, cli,
                                          str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [c for c in calls if not c.ok]
    print(f"error_rate       {len(failed) / len(calls)!r} "
          f"({len(failed)} of {len(calls)} calls failed an exit or output check)")
    for call in failed[:20]:
        print("FAILED " + "; ".join(call.problems))
    result = {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**result, "environment": env, **extra}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
