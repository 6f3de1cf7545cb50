"""Record the baseline: two sets of ten runs of every workload, one seed each.

Usage, from the repository root:

    python3 perfbench/baseline.py

Set 1 runs every workload with seeds 1..10, untraced, strictly one run
after another; set 2 then repeats the same runs.  A traced run (seed 1)
of each workload follows.  For each set it writes the median, quartiles
and spread (interquartile range / median) of every end-to-end metric, and
for each metric whether set 2 agrees with set 1: both spreads within the
metric's bound and set 2's median not worse than set 1's by more than it.
The result, with the per-layer metrics of the traced runs and the
machine, goes to ``perfbench/baseline.json``.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

RUNS = 10
SETS = 2


def bench_json(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2, "values": values}


def one_set(workload, seconds, bounds):
    runs = [bench_json(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
    if not all(r["correct"] for r in runs):
        raise SystemExit(f"{workload}: incorrect output")
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs])
                       for name in bounds},
    }


def agreement(sets, spec):
    """Per metric: the worse spread, set 2's shift in the worse direction
    as a share of set 1's median, and whether both stay within the bound."""
    out = {}
    for m in spec["end_to_end"]:
        first, second = (s["end_to_end"][m["name"]] for s in sets)
        shift = (second["median"] - first["median"]) / first["median"]
        worse = shift if m["better"] == "lower" else -shift
        spread = max(first["spread"], second["spread"])
        spread_ok = m["name"] == "setup_s" or spread <= m["bound"]
        out[m["name"]] = {"spread": spread, "worse_by": worse, "bound": m["bound"],
                          "agree": spread_ok and worse <= m["bound"]}
    return out


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    sets = {name: [] for name in names}
    for n in range(1, SETS + 1):
        for workload in names:
            s = one_set(workload, seconds, bounds)
            sets[workload].append(s)
            for name, v in s["end_to_end"].items():
                flag = "" if v["spread"] <= bounds[name] / 3 else "  (above a third of its bound)"
                print(f"set {n} {workload:<22} {name:<12} median {v['median']:.6g}  "
                      f"spread {v['spread']:.3f}  bound {bounds[name]}{flag}", flush=True)
    out = {"machine": bench.machine(), "run_seconds": seconds,
           "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    for workload in names:
        agree = agreement(sets[workload], spec)
        for name, a in agree.items():
            print(f"{workload:<22} {name:<12} worst spread {a['spread']:.3f}  "
                  f"set 2 worse by {a['worse_by']:+.3f}  bound {a['bound']}  "
                  f"{'agree' if a['agree'] else 'DISAGREE'}", flush=True)
        traced = bench_json(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "sets": sets[workload],
            "agreement": agree,
            "traced_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
