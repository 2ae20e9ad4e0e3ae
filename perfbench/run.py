"""cureonet benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload {reference,train,surrogate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. The package is imported from `src/`; nothing
is installed or built. The run sets up three times (the median is
`setup_s`), then runs closed-loop operations for S seconds and checks the
output of every one. The first operation is a warm-up: it is checked but
left out of the timings, which are medians and percentiles over the rest.
glibc is told to keep freed memory (see `keep_freed_memory`), so page
faults on fresh mappings do not swing the timings with the host's load.
With --trace 0 it prints every end-to-end metric; with
--trace 1 it installs the span wrappers for every second operation and
prints every per-layer metric (medians over the traced operations), the
self time per span and the tracing overhead (traced against untraced
operations of the same run). The last line of standard output is the
result as one JSON object. A full record (environment, metrics, per-op
latencies) goes to `.perfbench_out/`, and the spans of a traced run to a
`.npz` beside it.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:    # before numpy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
WARMUP_OPS = 1          # run and checked, but left out of the timings
# glibc mallopt parameters: allocations up to 32 MiB come from the heap,
# and freed heap memory is kept instead of being handed back to the kernel.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2**31 - 1   # mallopt takes a C int; the largest
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); "
                  "import cureonet.evaluate, cureonet.trainer; "
                  "print(time.perf_counter() - t)")


def keep_freed_memory() -> str:
    """Make glibc reuse freed memory instead of mapping fresh pages.

    With the defaults every large numpy temporary is a new mmap, and a
    query spends a quarter of its time in the kernel faulting in and zeroing
    pages, a cost that swings with the load on the shared host. Kept memory
    is faulted in once, by the warm-up operation. Returns what was set, for
    the environment record."""
    try:
        libc = ctypes.CDLL(None)
        ok = (libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
              and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
    except (OSError, AttributeError):
        ok = False
    return (f"mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}"
            if ok else "default (mallopt unavailable)")


MALLOC = keep_freed_memory()


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import scipy
    return {"commit": git_commit(), "seed": seed,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "malloc": MALLOC,
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_ops(workload, state, seed, seconds, tracer, targets):
    """Closed loop: one operation at a time for about `seconds`. With a
    tracer, every second operation runs with the span wrappers installed,
    so traced and untraced operations see the same warm-up. Outputs are
    checked outside the timed region, with the wrappers removed."""
    ops = []
    until = time.perf_counter() + seconds
    while True:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op_id = i
            tracer.install(targets)
        t0 = time.perf_counter()
        try:
            try:
                result = workload.op(state, i)
            finally:
                latency = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            problems = workload.check(state, result, seed)
        except Exception as exc:   # a failed operation, not a failed run
            traceback.print_exc(file=sys.stderr)
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        ops.append({"latency": latency, "result": result,
                    "problems": problems, "traced": traced})
        # stop when the next operation would end more than half an
        # operation past the deadline, so long operations do not overshoot
        typical = statistics.median(o["latency"] for o in ops)
        if time.perf_counter() + 0.5 * typical >= until:
            return ops


def timed_ops(ops) -> list:
    """The good operations after the warm-up (all of them if too few)."""
    good = [o for o in ops if not o["problems"]]
    return good[WARMUP_OPS:] if len(good) > WARMUP_OPS + 1 else good


def end_to_end(ops, setup_s) -> dict:
    """Timings over the good operations after the warm-up: rates are
    medians of per-operation rates and latencies are percentiles, so one
    operation slowed by the shared host moves no metric by much."""
    good = [o for o in ops if not o["problems"]]
    timed = timed_ops(ops)
    lat = [o["latency"] for o in timed]
    first = {}
    for o in good:
        first.setdefault(o["result"].key, o["result"].loss)
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "designs_per_s": statistics.median(
            o["result"].designs / o["latency"] for o in timed),
        "steps_per_s": statistics.median(
            o["result"].steps / o["latency"] for o in timed),
        "final_loss": statistics.fmean(first.values()),
        "query_ms.p50": float(numpy.percentile(lat, 50)) * 1e3,
        "query_ms.p90": float(numpy.percentile(lat, 90)) * 1e3,
    }


def flag_unrepeated_losses(ops) -> None:
    """An operation whose loss differs from the first one with the same key
    fails: every workload is deterministic for its inputs."""
    first = {}
    for o in ops:
        if o["problems"]:
            continue
        r = o["result"]
        if first.setdefault(r.key, r.loss) != r.loss:
            o["problems"].append(f"loss {r.loss!r} differs from "
                                 f"{first[r.key]!r} for key {r.key}")


def trace_report(tracing, tracer, ops, args) -> dict:
    """Per-layer metrics over the traced operations, plus the tracing
    overhead; prints the self-time table and writes the spans."""
    traced = [i for i, o in enumerate(ops)
              if o["traced"] and not o["problems"]]
    plain = [o["latency"] for o in timed_ops(ops) if not o["traced"]]
    traced_lat = [ops[i]["latency"] for i in traced]
    layer = tracing.layer_metrics(tracer, traced)
    layer["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_lat) / statistics.median(plain)
                 - 1.0) if traced_lat and plain else 0.0)
    print(f"tracing overhead = {layer['trace.overhead_pct']:.2f} % "
          f"(median op latency, {len(traced_lat)} traced vs "
          f"{len(plain)} untraced ops)")
    for name in sorted(tracer.absent):
        print(f"trace target absent: {name}")
    for name in sorted(tracer.hook_errors):
        print(f"trace hook failed: {name}")
    print(f"{'span':40s} {'total_s':>10s} {'self_s':>10s} {'calls':>9s}"
          "   (traced ops only)")
    for name, (tot, self_s, calls) in sorted(tracer.self_times().items()):
        print(f"{name:40s} {tot:10.4f} {self_s:10.4f} {calls:9d}")
    hits = layer["evaluate.cache_hits"]
    calls = hits + layer["evaluate.cache_misses"]
    if calls:
        print(f"evaluate cache hit ratio = {hits / calls:.3f} "
              f"(base: {calls:g} reference_solution calls per op)")
    tracer.write(os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
    return layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        if not os.path.isdir(os.path.join(SRC, "cureonet")):
            raise ImportError(f"no package source under {SRC}")
        sys.path.insert(0, SRC)
        sys.path.insert(0, HERE)
        import spans as tracing
        from workloads import WORKLOADS
    except (OSError, ImportError) as err:
        print(f"error: cannot load the benchmark or the package: {err}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    env = environment(args.seed)
    print("env:", json.dumps(env, sort_keys=True))
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        setup_s = []
        for rep in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t_import = import_seconds()
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_s.append(t_import + time.perf_counter() - t0)

        tracer = tracing.Tracer() if args.trace else None
        ops = run_ops(workload, state, args.seed, args.seconds, tracer,
                      tracing.TARGETS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    flag_unrepeated_losses(ops)
    failed = [o for o in ops if o["problems"]]
    for o in failed[:10]:
        print("failed op:", "; ".join(o["problems"]))
    good = [o for o in ops if not o["problems"]]
    print(f"ops = {len(ops)}\nops_failed = {len(failed)}")

    metrics = {}
    if good:
        e2e = end_to_end(ops, setup_s)
        lat = [o["latency"] for o in timed_ops(ops)]
        beyond = sum(v > e2e["query_ms.p90"] / 1e3 for v in lat)
        print(f"setup_s samples = {[round(s, 4) for s in setup_s]}")
        print(f"query_ms samples = {len(lat)} ({beyond} beyond p90)")
        values = (trace_report(tracing, tracer, ops, args) if args.trace
                  else e2e)
        if set(values) != set(units):
            raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} "
                             f"differ from BENCHMARK.json {section}")
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")

    result = {"correct": not failed and bool(good), "attempted": len(ops),
              "failed": len(failed), "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
            OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as f:
        json.dump({"env": env, "workload": args.workload, **result,
                   "setup_s": setup_s,
                   "latency_s": [o["latency"] for o in ops],
                   "problems": [o["problems"] for o in ops]}, f, indent=1)
    print(json.dumps(result))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
