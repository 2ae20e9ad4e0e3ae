"""Steadiness check: do two sets of runs of the same commit agree within the
benchmark's own bounds?

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json once per seed 0-9 (seed 0
is the one the golden values belong to) for `run_seconds`, with --trace 0.
The two sets are interleaved: for each seed and workload the two runs go
back to back, and which set goes first alternates with the seed, so a drift
of the host's speed falls on both sets alike. For every end-to-end metric
and workload it prints each set's median and spread, the spread being
(Q3 - Q1) / median with the quartiles of `statistics.quantiles(n=4)`, and
how far set 2's median lies from set 1's, as a share of set 1's. A row
agrees when both spreads and that distance, in either direction, are within
the metric's bound; the target is a spread below a third of the bound.
Exits 0 when every row agrees and every run was correct. The raw results go
to `.perfbench_out/steady-<unix time>.json`.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(10)
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {}   # (set, workload) -> list of results
    for seed in SEEDS:
        for w in workloads:
            order = range(SETS) if seed % 2 == 0 else reversed(range(SETS))
            for k in order:
                t0 = time.perf_counter()
                res = run_once(w, seed, spec["run_seconds"])
                runs.setdefault((k, w), []).append(res)
                print(f"set {k + 1} {w} seed {seed}: correct="
                      f"{res.get('correct')} "
                      f"({time.perf_counter() - t0:.0f} s)", flush=True)

    ok = all(r.get("correct") for rs in runs.values() for r in rs)
    print(f"\n{'metric':16s} {'workload':10s} {'bound':>6s} "
          + " ".join(f"{'median' + str(k + 1):>12s} "
                     f"{'spread' + str(k + 1):>8s}" for k in range(SETS))
          + f" {'moved':>8s}  verdict")
    for m in spec["end_to_end"]:
        for w in workloads:
            sets = [[r["metrics"][m["name"]]["value"]
                     for r in runs[(k, w)] if r.get("correct")]
                    for k in range(SETS)]
            if any(len(v) < 2 for v in sets):
                print(f"{m['name']:16s} {w:10s} too few correct runs")
                ok = False
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            moved = max(abs(x - medians[0]) / medians[0] for x in medians[1:])
            agree = moved <= m["bound"] and all(s <= m["bound"]
                                                for s in spreads)
            steady = all(s < m["bound"] / 3 for s in spreads)
            ok = ok and agree
            print(f"{m['name']:16s} {w:10s} {m['bound']:6.2f} "
                  + " ".join(f"{md:12.5g} {s:8.4f}"
                             for md, s in zip(medians, spreads))
                  + f" {moved:8.4f}  "
                  + ("agree" if agree else "DISAGREE")
                  + ("" if steady else " (spread above bound/3)"))

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"steady-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump({f"set{k + 1}/{w}": rs for (k, w), rs in runs.items()}, f)
    print(f"\nraw results: {path}\n{'all agree' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
