"""fractaldepth benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --trace 1            # every workload, traced
    python3 perfbench/run.py --workload desk_fuse8 --seed 3 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``fractaldepth`` from
its ``src/``.  With ``--trace 0`` the last line of output is a JSON object
holding every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it
holds every per-layer metric.  A run record with the machine facts goes to
``perfbench/out/``.  NOTES.md explains the workloads and metrics.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
THREAD_ENV_AT_START = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}

SETUP_REPEATS = 3
# latency_ms_tail is the highest percentile with 10 ops beyond it, so an
# untraced run always completes at least 11 ops, even past --seconds.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
# A run with ops enough for it is cut into this many consecutive slices;
# latency_ms_tail and ops_per_s are the medians of their per-slice values.
SLICES = 5

def cap_blas_threads() -> None:
    """No more BLAS/OpenMP threads than CPUs; must run before numpy loads."""
    for var in THREAD_VARS:
        val = os.environ.get(var, "")
        if not val.isdigit() or not 1 <= int(val) <= NPROC:
            os.environ[var] = str(NPROC)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def import_package():
    """Import fractaldepth from this checkout's src/, never from elsewhere."""
    pkg = os.path.join(ROOT, "src", "fractaldepth")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"perfbench: no package source at {pkg}; run from a fractaldepth checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fractaldepth
    if os.path.dirname(os.path.abspath(fractaldepth.__file__)) != pkg:
        sys.exit(f"perfbench: imported {fractaldepth.__file__}, expected {pkg}")
    return fractaldepth


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(np) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env_at_start": THREAD_ENV_AT_START,
        "thread_env_used": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": git_commit(),
    }


def percentile(values, pct):
    """Linear interpolation between the order statistics, as numpy's default.

    Unlike numpy, it keeps the infinite latency of a failed op infinite
    instead of turning it into NaN.
    """
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    if pos == lo or xs[hi] == xs[lo]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def slice_cuts(n):
    """Op-index bounds of the consecutive slices of a run of n ops.

    A run of at least SLICES * MIN_OPS ops has SLICES slices, in time order;
    a shorter one is a single slice.  A figure that is the median over the
    slices is not moved by a few slow seconds of a shared host.
    """
    k = SLICES if n >= SLICES * MIN_OPS else 1
    return [round(n * s / k) for s in range(k + 1)]


def tail(latencies):
    """(value, percentile, per-slice values) of latency_ms_tail.

    The percentile is the highest one with TAIL_BEYOND ops beyond it over the
    whole run.  It is taken in each slice, and the value is the median over
    the slices.  In a run of one slice, it is that order statistic itself.
    """
    n = len(latencies)
    j = max(n - 1 - TAIL_BEYOND, 0)
    pct = 100.0 * j / max(n - 1, 1)
    cuts = slice_cuts(n)
    per_slice = [percentile(latencies[a:b], pct) for a, b in zip(cuts, cuts[1:])]
    return statistics.median(per_slice), pct, per_slice


def throughput(latencies, marks):
    """(value, per-slice values) of ops_per_s.

    ``marks[i]`` is the time op ``i`` started and ``marks[-1]`` the end of the
    timed phase.  Each slice gives its completed ops over its wall time, and
    the value is the median over the slices.
    """
    cuts = slice_cuts(len(latencies))
    per_slice = [sum(1 for x in latencies[a:b] if x != math.inf) / (marks[b] - marks[a])
                 for a, b in zip(cuts, cuts[1:])]
    return statistics.median(per_slice), per_slice


def run_workload(args) -> int:
    cap_blas_threads()
    fd = import_package()
    import numpy as np
    from fractaldepth.errors import FractalDepthError
    from tracer import Tracer
    from workloads import WORKLOADS
    import_s = time.perf_counter() - T_START

    spec = load_spec()
    cls = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"tmp-{args.workload}-{os.getpid()}")
    tracer = Tracer(fd) if args.trace else None

    def run_op(wl, i):
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except FractalDepthError as e:
            return math.inf, None, [f"{type(e).__name__}: {e}"]
        return time.perf_counter() - t0, out, wl.check(out)

    try:
        # --- set-up: built several times, the median counts ------------------
        setup_times = []
        for _ in range(1 if tracer else SETUP_REPEATS):
            t0 = time.perf_counter()
            if tracer:
                with tracer.op("setup"):
                    wl = cls(args.seed, work_dir)
            else:
                wl = cls(args.seed, work_dir)
            built = time.perf_counter() - t0
            snap0 = wl.snapshot()
            t0 = time.perf_counter()
            warm = wl.op(0)
            setup_times.append(built + time.perf_counter() - t0)
        warm_problems = wl.check(warm)
        warm_digest = wl.digest(warm)
        wl.restore(snap0)
        del warm
        setup_s = import_s + statistics.median(setup_times)

        # --- timed phase ------------------------------------------------------
        latencies, traced_latencies = [], []
        failed = 0
        problems_seen = []
        digest0 = None
        i = 0
        start = time.perf_counter()
        deadline = start + args.seconds
        marks = [start]
        min_ops = 1 if tracer else MIN_OPS
        while i < min_ops or time.perf_counter() < deadline:
            snap = wl.snapshot() if tracer else None
            dt, out, problems = run_op(wl, i)
            latencies.append(dt)
            if out is not None and not problems:
                wl.record_quality(out)
                digest = wl.digest(out) if (i == 0 or tracer) else None
                if i == 0:
                    digest0 = digest
                if tracer:
                    wl.restore(snap)
                    tracer.model = wl.model
                    t0 = time.perf_counter()
                    try:
                        with tracer.op(i):
                            out_t = wl.op(i)
                    except FractalDepthError as e:
                        problems.append(f"traced op raised {type(e).__name__}: {e}")
                    else:
                        traced_latencies.append(time.perf_counter() - t0)
                        if wl.digest(out_t) != digest:
                            problems.append("traced outputs differ from untraced outputs")
            del out
            if problems:
                failed += 1
                problems_seen.extend(f"op {i}: {p}" for p in problems)
            i += 1
            marks.append(time.perf_counter())
        attempted = i

        # --- op 0 again: a cache or state leak would change its bytes ---------
        wl.restore(snap0)
        _, out, rerun_problems = run_op(wl, 0)
        rerun_identical = (out is not None and not rerun_problems
                           and wl.digest(out) == digest0 == warm_digest)
        if not rerun_identical:
            rerun_problems.append("op 0 re-run: bytes differ from its earlier runs")
        del out
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    quality = wl.quality_summary()
    p50 = statistics.median(latencies)
    tail_s, tail_pct, tail_slices = tail(latencies)
    ops_per_s, ops_per_s_slices = throughput(latencies, marks)
    e2e = {
        "latency_ms_p50": 1e3 * p50,
        "latency_ms_tail": 1e3 * tail_s,
        "ops_per_s": ops_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    correct = (failed == 0 and not warm_problems and rerun_identical)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller",
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "correct": correct,
        "rerun_op0_identical": rerun_identical,
        "latency_ms_tail_percentile": tail_pct,
        "latency_ms_tail_ops_beyond": min(TAIL_BEYOND, attempted - 1),
        "latency_ms_tail_slices": [1e3 * x for x in tail_slices],
        "ops_per_s_slices": ops_per_s_slices,
        "latencies_ms": [1e3 * x for x in latencies],
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "quality": {k: {"value": v, "unit": cls.quality_units[k]} for k, v in quality.items()},
        "problems": problems_seen[:20] + warm_problems + rerun_problems,
        "machine": machine_facts(np),
    }
    if tracer:
        untraced_p50 = statistics.median(latencies)
        traced_p50 = statistics.median(traced_latencies) if traced_latencies else math.nan
        overhead = (traced_p50 - untraced_p50) / untraced_p50
        record["traced_ops"] = len(traced_latencies)
        record["per_layer"] = tracer.per_layer(len(traced_latencies), overhead)
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)

    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    mf = record["machine"]
    print(f"{args.workload}  seed={args.seed}  ops={attempted}  failed={failed}  "
          f"correct={correct}  (closed loop, 1 caller)")
    print(f"  machine: nproc={mf['nproc']} cpu={mf['cpu_model']!r} python={mf['python']} "
          f"numpy={mf['numpy']} blas={mf['blas']!r} threads={mf['thread_env_used']} "
          f"commit={mf['git_commit']}")
    if tracer:
        print(f"  latency_ms_p50 untraced {1e3 * untraced_p50:.4f} ms, "
              f"traced {1e3 * traced_p50:.4f} ms over {len(traced_latencies)} ops")
    else:
        for name, m in record["end_to_end"].items():
            note = ""
            if name == "latency_ms_tail":
                note = (f"  (p{tail_pct:.1f}, {record['latency_ms_tail_ops_beyond']} "
                        f"of {attempted} ops beyond; median of {len(tail_slices)} slices)")
            elif name == "ops_per_s":
                note = f"  (median of {len(ops_per_s_slices)} slices)"
            print(f"  {name:<20} {m['value']:12.4f} {m['unit']}{note}")
    print(f"  {'failed_frac':<20} {record['failed_frac']:12.4f} frac")
    for name, m in record["quality"].items():
        print(f"  {name:<20} {m['value']:12.4f} {m['unit']}")
    for p in record["problems"]:
        print(f"  problem: {p}")
    print(f"  record: {os.path.relpath(path, ROOT)}")

    if tracer:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in record["per_layer"].items()}
        print(f"  spans: {record['spans_file']}")
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:12.4f} {m['unit']}")
    else:
        metrics = record["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for w in load_spec()["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"{w['name']}: FAILED (exit {proc.returncode})", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
