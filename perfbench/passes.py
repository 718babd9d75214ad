"""One pass of a workload in a fresh interpreter.

    python perfbench/passes.py SPEC.json

SPEC names the experiments, the scale, where to write the result, the
parent's monotonic clock reading at spawn time and whether to trace
layers or run the output checks.  Store locations come from the
environment the parent set (``REPRO_CACHE_DIR``, ``REPRO_REGISTRY``).

The result JSON holds the set-up time (spawn to registry loaded), the
pass time, each experiment's rendered output and its time, the peak
RSS at the end of the pass, the program's routing probes and, on
request, the layer stats and the check failures.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import repro.experiments as exp
    from repro.api import ExperimentRequest
    from repro.common.config import SimScale
    from repro.workloads import load_all

    load_all()
    from repro import telemetry

    clock = None
    if spec["trace"]:
        import tracer  # perfbench/ is sys.path[0]

        clock = tracer.LayerClock()
        tracer.install(clock, spec["experiments"])
        # Plan/batch routing and spills come from the program's own
        # counters, aggregated in process.
        telemetry.start()
    ready = time.monotonic()

    import resource

    from repro.core import features
    from repro.gpusim.gpu import BLOCK_BATCHES
    from repro.gpusim.plans import PLAN_ROUTES

    scale = SimScale(spec["scale"])
    renders, times, errors, results = {}, {}, {}, {}
    for experiment in spec["experiments"]:
        t0 = time.perf_counter()
        try:
            result = exp.run_experiment(ExperimentRequest(experiment, scale))
            renders[experiment] = result.render()
            results[experiment] = result
        except Exception:  # noqa: BLE001 — counted as a failed operation
            errors[experiment] = traceback.format_exc()
        times[experiment] = time.perf_counter() - t0
    pass_s = time.monotonic() - ready
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if clock is not None:
        clock.telemetry.update(telemetry.stop()["counters"])
        layers = clock.snapshot()

    out = {
        "setup_s": ready - spec["spawned_at"],
        "pass_s": pass_s,
        "rss_mb": rss_mb,
        "renders": renders,
        "times": times,
        "errors": errors,
        "executions": len(features.EXECUTIONS),
        "plan_routes": _tally(route for _, route, _ in PLAN_ROUTES),
        "batch_routes": _tally(kind for _, kind, _ in BLOCK_BATCHES),
        "layers": layers,
        "check_failures": [],
    }
    if spec["checks"] and not errors:
        import outputs

        out["check_failures"] = outputs.check_pass(results, scale)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _tally(items) -> dict:
    counts: dict = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    return counts


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
