"""Apply :mod:`checks` to the results of one pass, in the pass's process.

Runs after the timed pass, so the checks cost nothing in the reported
times.  The program's outputs come from the pass (and from its
per-process memo); each reference is computed by :mod:`checks`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import checks

CPU_FIGURES = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")
PCA_SUBSETS = {"fig7": "mix", "fig8": "workingset", "fig9": "sharing"}

#: The CPU workload whose miss curve has its knee at the smallest cache.
KNEE_WORKLOAD = "canneal"


def check_pass(results: Dict[str, object], scale) -> List[str]:
    """Every applicable check; returns one line per failure."""
    failures: List[str] = []

    def attempt(check: Callable, *args) -> None:
        checks.attempt(failures, check, *args)

    if any(fig in results for fig in CPU_FIGURES):
        _cpu_checks(results, scale, attempt)
    if "fig2" in results or "fig3" in results:
        _gpu_checks(results, scale, attempt)
    return failures


def _cpu_checks(results, scale, attempt) -> None:
    from repro.core.features import (
        cpu_metrics_for,
        feature_matrix,
        suite_workloads,
    )
    from repro.cpusim import Machine
    from repro.workloads import get

    # Only the workloads the figures characterized: checking another
    # would execute it and write an artifact the pass never made.
    names = suite_workloads()
    for name in names:
        attempt(checks.miss_curve_monotone, name,
                cpu_metrics_for(name, scale).miss_curve)

    machine = Machine()
    get(KNEE_WORKLOAD).cpu_fn(machine, scale)
    met = cpu_metrics_for(KNEE_WORKLOAD, scale)
    attempt(checks.trace_footprint, KNEE_WORKLOAD, machine.trace()[0],
            met.miss_curve, met.data_footprint_4kb, machine.line_size)

    for fig, subset in PCA_SUBSETS.items():
        if fig in results:
            x, _ = feature_matrix(names, subset=subset, scale=scale)
            attempt(checks.pca_explained, fig, x,
                    results[fig].data["explained"])
    if "fig6" in results:
        data = results["fig6"].data
        x, _ = feature_matrix(names, subset="all", scale=scale)
        attempt(checks.dendrogram, x, data["n_components"],
                data["explained"], data["linkage"])


def _gpu_checks(results, scale, attempt) -> None:
    from repro.experiments.gpu_common import traces
    from repro.gpusim import GPUConfig, TimingModel
    from repro.gpusim.profiler import STALL_COMPONENTS

    if "fig2" in results:
        attempt(checks.rows_sum_to_one, "fig2", results["fig2"].data)
    if "fig3" in results:
        attempt(checks.rows_sum_to_one, "fig3", results["fig3"].data,
                ("mean",))
    model = TimingModel(GPUConfig.gtx480_l1_bias())
    for app, trace in traces(scale).items():
        profile = model.profile(trace)
        launches = [{"stalls": cs.stalls, "body_cycles": cs.body_cycles}
                    for cs in profile.counters]
        attempt(checks.stalls_sum_to_body, app, launches, STALL_COMPONENTS)
