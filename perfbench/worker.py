"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json config>'

The worker pins itself to one CPU and then imports the package, so the
import time it reports is what a fresh ``eiscong`` process pays.  With mode
"setup" it stops there; mode "warmup" also imports the benchmark's own
modules, so that they too have bytecode caches before the first measured
pass; with mode "pass" it runs one workload, checks every
output against the goldens and prints one JSON line with its measurements.
Times are reported raw and in reference seconds (``speed.py``), using
the probes a sampler thread runs during the pass.
"""

import os
import sys
from time import perf_counter

os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
_t0 = perf_counter()
import eiscong  # noqa: E402
import eiscong.cli  # noqa: E402,F401

SETUP_S = perf_counter() - _t0

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402

SETUP_SPEED = speed.mean_speed([speed.time_probe() for _ in range(15)])


def main(config) -> dict:
    result = {"setup_s": SETUP_S, "setup_ref_s": SETUP_S * SETUP_SPEED,
              "eiscong_file": eiscong.__file__}
    if config["mode"] == "warmup":
        import tracer  # noqa: F401
        import workloads  # noqa: F401
    if config["mode"] != "pass":
        return result
    import workloads

    goldens_file = config.get("goldens") or os.path.join(os.path.dirname(__file__), "goldens.json")
    with open(goldens_file) as fh:
        golden = json.load(fh)[config["workload"]][config["size"]]

    tracer = None
    pause = contextlib.nullcontext
    if config["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        pause = tracer.paused
    run = workloads.Run(golden["ops"], inject=config.get("inject"), pause=pause)
    with speed.Sampler() as sampler:
        t0 = perf_counter()
        workloads.WORKLOADS[config["workload"]](run, config["seed"], config["size"],
                                                config["workdir"])
        t1 = perf_counter()
    # a pass too short for three probes takes its speed from probes run after it
    pass_speed = sampler.speed(t0, t1) or speed.mean_speed(
        [speed.time_probe() for _ in range(5)])
    wall_s = t1 - t0 - run.check_s  # the program's time, without the checks
    result.update(
        wall_s=wall_s,
        check_s=run.check_s,
        speed=pass_speed,
        wall_ref_s=wall_s * pass_speed,
        tasks_ref_s=[seconds * sampler.speed(start, end, pass_speed)
                     for _, seconds, start, end in run.tasks],
        work=golden["work"],
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(run.cli_expands)
        if config.get("spans"):
            result["spans_written"] = tracer.write_spans(config["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
