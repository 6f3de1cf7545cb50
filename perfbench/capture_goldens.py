"""Record the golden digests the benchmark checks against.

Run from the repository root on the commit whose outputs are the
reference (the goldens in this directory come from the seed commit):

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/capture_goldens.py

For every workload and size it runs one pass in capture mode, covering
every input any seed can choose (all sweep moduli of the CLI workload),
and writes ``perfbench/goldens.json``.  Published-value checks still run
and must all pass, otherwise nothing is written.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def capture(name, size, workdir, **kwargs):
    run = workloads.Run(None)
    workloads.WORKLOADS[name](run, 0, size, workdir, **kwargs)
    if run.failures:
        raise SystemExit(f"{name}/{size}: checks failed: {run.failures}")
    return {"work": run.work, "ops": run.digests}


def capture_all_inputs(name, size, tmp_root):
    """One capture pass; for the CLI workload a second one over every
    sweep modulus supplies the digests, the first the per-pass work."""
    passes = [{}] + ([{"sweep_all": True}] if name == "cli-pipeline" else [])
    results = []
    for kwargs in passes:
        workdir = tempfile.mkdtemp(dir=tmp_root)
        try:
            results.append(capture(name, size, workdir, **kwargs))
        finally:
            shutil.rmtree(workdir)
    return {"work": results[0]["work"], "ops": results[-1]["ops"]}


def main():
    tmp_root = os.path.join(".perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout
    out = {"_commit": commit.strip() or None}
    for name in workloads.WORKLOADS:
        out[name] = {}
        for size in workloads.SIZES[name]:
            out[name][size] = capture_all_inputs(name, size, tmp_root)
            print(f"{name}/{size}: {len(out[name][size]['ops'])} operations, "
                  f"work {out[name][size]['work']}")
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
