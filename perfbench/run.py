"""eiscong benchmark: run one workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of the workload is a fresh interpreter (``worker.py``), started
one after another, because the library's ``lru_cache`` tables would turn
any repeat inside one process into cache hits; a command-line user pays
the cold cost on every invocation.  Passes start until ``--seconds`` have
elapsed.  Before them, a few setup-only interpreters measure the package
import time.

With ``--trace 0`` the last line is a JSON object with every end-to-end
metric; with ``--trace 1`` passes alternate untraced and traced, and the
JSON carries the per-layer metrics of the traced passes plus the tracing
overhead.  The lines before it repeat the metrics for a reader, with units,
sample counts, failures and the machine.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time


HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("siegel-congruence", "hermitian-congruence", "scalar-scan", "cli-pipeline")
SETUP_SAMPLES = 6
DEADLINE_S = 170  # a run must finish well inside 180 s
STATE_DIR = ".perfbench"

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_s.p50": "s",
    "task_s.p90": "s",
    "work_per_s": "work/s",
    "peak_rss_mb": "MiB",
}
WORK_UNITS = {
    "siegel-congruence": "coefficient checked mod p",
    "hermitian-congruence": "coefficient checked mod p",
    "scalar-scan": "scan candidate",
    "cli-pipeline": "CLI command",
}
LAYER_UNITS = {
    "arith.self_s": "s",
    "arith.calls": "count",
    "arith.max_bits": "bits",
    "arith.gen_bernoulli_hit_ratio": "ratio",
    "siegel.coeff_self_s": "s",
    "siegel.coeffs": "count",
    "siegel.expansion_self_s": "s",
    "siegel.cusp_self_s": "s",
    "hermitian.coeff_self_s": "s",
    "hermitian.coeffs": "count",
    "hermitian.expansion_self_s": "s",
    "hermitian.cusp_self_s": "s",
    "elliptic.self_s": "s",
    "elliptic.delta_builds": "count",
    "expansion.multiply_s": "s",
    "expansion.multiply_calls": "count",
    "expansion.pair_products": "count",
    "expansion.multiply_ns_per_pair": "ns",
    "expansion.add_scale_s": "s",
    "expansion.max_coeff_bits": "bits",
    "expansion.serialize_s": "s",
    "expansion.parse_s": "s",
    "expansion.text_bytes": "bytes",
    "expansion.text_MBps": "MB/s",
    "congruence.solve_s": "s",
    "congruence.indices_checked": "count",
    "congruence.cusp_correction_self_s": "s",
    "congruence.scan_self_s": "s",
    "congruence.irregular_yield": "ratio",
    "cli.self_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.cache_hit_s": "s",
    "cli.cache_miss_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def child_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("EISCONG_CACHE_DIR", None)
    # the warm-up worker must leave bytecode caches, as an installed CLI has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(config, env, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, root, env, deadline):
    tmp_root = os.path.join(root, STATE_DIR, "tmp")
    spans_dir = os.path.join(root, STATE_DIR, "spans")
    os.makedirs(tmp_root, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    setup_cfg = {"mode": "setup"}
    first = run_worker({"mode": "warmup"}, env, deadline)  # writes bytecode caches
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(first["eiscong_file"]).startswith(src + os.sep):
        raise BenchError(f"imported eiscong from {first['eiscong_file']}, not from {src}")
    setups = [run_worker(setup_cfg, env, deadline) for _ in range(SETUP_SAMPLES)]
    passes = []
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        workdir = tempfile.mkdtemp(dir=tmp_root)
        config = {
            "mode": "pass", "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": traced, "workdir": workdir,
            "spans": os.path.join(spans_dir, f"{args.workload}.jsonl.gz") if traced else None,
            "goldens": args.goldens, "inject": args.inject,
        }
        try:
            result = run_worker(config, env, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["traced"] = traced
        passes.append(result)
        setups.append(result)
        enough = args.trace == 0 or len(passes) >= 2
        if enough and time.monotonic() - start >= args.seconds:
            return setups, passes


def end_to_end(setups, plain):
    """Every time is in reference seconds (speed.py)."""
    tasks = [t for p in plain for t in p["tasks_ref_s"]]
    return {
        "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
        "wall_s": statistics.median(p["wall_ref_s"] for p in plain),
        "task_s.p50": statistics.median(tasks),
        "task_s.p90": statistics.quantiles(tasks, n=10, method="inclusive")[8],
        "work_per_s": statistics.median(p["work"] / p["wall_ref_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain, traced):
    def normalized(p, name):
        value = p["layers"][name]
        unit = LAYER_UNITS[name]
        if unit in ("s", "ns"):
            return value * p["speed"]
        if unit == "MB/s":
            return value / p["speed"]
        return value

    layers = {
        name: statistics.median(normalized(p, name) for p in traced)
        for name in traced[0]["layers"]
    }
    layers["trace.overhead_ratio"] = (
        statistics.median(p["wall_ref_s"] for p in traced)
        / statistics.median(p["wall_ref_s"] for p in plain)
    )
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the benchmark's self-tests")
    ap.add_argument("--goldens", help=argparse.SUPPRESS)  # self-tests: alternative goldens
    ap.add_argument("--inject", help=argparse.SUPPRESS)  # self-tests: operation to fail
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eiscong", "__init__.py")):
        print("error: run from the repository root; src/eiscong is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups, passes = run_passes(args, root, child_env(root), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(root, STATE_DIR, "tmp"), ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    tasks = sum(len(p["tasks_ref_s"]) for p in plain)
    info = machine()
    print(f"eiscong benchmark  workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}")
    print(f"python {info['python']}  nproc {info['nproc']}  cpu {info['cpu']}")
    print(f"{len(plain)} untraced + {len(traced)} traced passes, one fresh interpreter each, "
          f"sequential; {len(setups)} import samples")
    print(f"times in reference seconds (speed.py): raw wall median "
          f"{statistics.median(p['wall_s'] for p in plain):.6g} s, median pass speed "
          f"{statistics.median(p['speed'] for p in plain):.4g}, checks left out of the "
          f"pass time: median {statistics.median(p['check_s'] for p in plain):.4g} s raw")
    e2e = end_to_end(setups, plain)
    e2e_notes = {
        "task_s.p50": f"{tasks} task samples",
        "task_s.p90": f"{tasks} task samples",
        "work_per_s": f"work unit: {WORK_UNITS[args.workload]}, {plain[0]['work']} per pass",
    }
    for name, value in e2e.items():
        print(f"  {name:<34} {value:>14.6g} {E2E_UNITS[name]:<8} {e2e_notes.get(name, '')}")
    print(f"  {'fail_ratio':<34} {failed / attempted:>14.6g} {'ratio':<8} "
          f"{failed} of {attempted} operations")
    for p in passes:
        for op, why in p["failures"]:
            print(f"  FAILED {op}: {why}")
    if args.trace:
        metrics = per_layer(plain, traced)
        units = LAYER_UNITS
        for name, value in metrics.items():
            print(f"  {name:<34} {value:>14.6g} {units[name]}")
    else:
        metrics, units = e2e, E2E_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
