"""Per-layer metrics from traced passes (see README.md for the table).

A traced pass yields a :meth:`tracer.LayerClock.snapshot` with the
program's own telemetry counters added under ``"telemetry"``.  This
module turns a cold and a warm snapshot into the named per-layer
metrics, which ``BENCHMARK.json`` lists with the same names and units.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

#: Every per-layer metric: name -> (unit, better).
METRICS = {
    "experiments.s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.calls": ("count", "lower"),
    "cpusim.exec.calls": ("count", "lower"),
    "cpusim.exec.s": ("s", "lower"),
    "cpusim.exec.refs": ("count", "lower"),
    "cpusim.exec.ns_per_ref": ("ns", "lower"),
    "analytics.characterize.calls": ("count", "lower"),
    "analytics.characterize.s": ("s", "lower"),
    "analytics.ns_per_ref": ("ns", "lower"),
    "gpusim.exec.calls": ("count", "lower"),
    "gpusim.exec.s": ("s", "lower"),
    "gpusim.launch.calls": ("count", "lower"),
    "gpusim.launch.s": ("s", "lower"),
    "gpusim.warp_insts": ("count", "lower"),
    "gpusim.exec.ns_per_warp_inst": ("ns", "lower"),
    "gpusim.plan.traced": ("count", "lower"),
    "gpusim.plan.replayed": ("count", "higher"),
    "gpusim.plan.aborted": ("count", "lower"),
    "gpusim.plan.replay_ratio": ("ratio", "higher"),
    "gpusim.batch.fallback": ("count", "lower"),
    "gpusim.batch.scalar": ("count", "lower"),
    "timing.calls": ("count", "lower"),
    "timing.s": ("s", "lower"),
    "timing.lru.accesses": ("count", "lower"),
    "core.pca.s": ("s", "lower"),
    "core.linkage.s": ("s", "lower"),
    "core.pb.s": ("s", "lower"),
    "artifacts.get.calls": ("count", "lower"),
    "artifacts.get.hits": ("count", "higher"),
    "artifacts.get.s": ("s", "lower"),
    "artifacts.hit_ratio": ("ratio", "higher"),
    "artifacts.put.calls": ("count", "lower"),
    "artifacts.put.s": ("s", "lower"),
    "artifacts.bytes": ("B", "lower"),
    "trace_io.save.s": ("s", "lower"),
    "trace_io.load.calls": ("count", "lower"),
    "trace_io.load.s": ("s", "lower"),
    "chunkstore.spills": ("count", "lower"),
    "warm.experiments.s": ("s", "lower"),
    "warm.experiments.self_s": ("s", "lower"),
    "warm.timing.s": ("s", "lower"),
    "warm.core.pca.s": ("s", "lower"),
    "warm.artifacts.get.hits": ("count", "higher"),
    "warm.artifacts.get.s": ("s", "lower"),
    "warm.trace_io.load.s": ("s", "lower"),
    "service.requests": ("count", "lower"),
    "service.executions": ("count", "lower"),
    "service.coalesced": ("count", "higher"),
    "service.warm.n": ("count", "higher"),
    "service.warm.p50_ms": ("ms", "lower"),
    "service.warm.p99_ms": ("ms", "lower"),
    "service.warm.rps": ("1/s", "higher"),
    "service.server.warm_mean_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

#: Layers whose warm-pass time is reported as ``warm.<layer>.s``.
WARM_LAYERS = ("experiments", "timing", "core.pca", "artifacts.get",
               "trace_io.load")


def unit(name: str) -> str:
    return METRICS[name][0]


def merge(snapshots: Iterable[Optional[dict]]) -> dict:
    """Sum layer snapshots (e.g. of several service pool workers)."""
    out: dict = {"stats": {}, "counts": {}, "telemetry": {}}
    for snap in snapshots:
        if not snap:
            continue
        for layer, s in snap["stats"].items():
            acc = out["stats"].setdefault(
                layer, {"calls": 0, "s": 0.0, "child_s": 0.0})
            for k in acc:
                acc[k] += s[k]
        for section in ("counts", "telemetry"):
            for k, v in snap.get(section, {}).items():
                out[section][k] = out[section].get(k, 0) + v
    return out


def _field(snap: dict, layer: str, field: str) -> float:
    return snap["stats"].get(layer, {}).get(field, 0)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


def layer_metrics(cold: dict, warm: dict) -> Dict[str, float]:
    """Every non-service per-layer metric from cold/warm snapshots."""
    counts, tel = cold["counts"], cold["telemetry"]

    def f(layer: str, field: str) -> float:
        return _field(cold, layer, field)

    traced, replayed = (tel.get("gpusim.plan.launches.traced", 0),
                        tel.get("gpusim.plan.launches.replayed", 0))
    m = {
        "experiments.s": f("experiments", "s"),
        "experiments.self_s": f("experiments", "s")
        - f("experiments", "child_s"),
        "experiments.calls": f("experiments", "calls"),
        "cpusim.exec.calls": f("cpusim.exec", "calls"),
        "cpusim.exec.s": f("cpusim.exec", "s"),
        "cpusim.exec.refs": counts.get("cpusim.exec.refs", 0),
        "cpusim.exec.ns_per_ref": _per(f("cpusim.exec", "s"),
                                       counts.get("cpusim.exec.refs", 0),
                                       1e9),
        "analytics.characterize.calls": f("analytics.characterize",
                                          "calls"),
        "analytics.characterize.s": f("analytics.characterize", "s"),
        "analytics.ns_per_ref": _per(f("analytics.characterize", "s"),
                                     counts.get("analytics.refs", 0), 1e9),
        "gpusim.exec.calls": f("gpusim.exec", "calls"),
        "gpusim.exec.s": f("gpusim.exec", "s"),
        "gpusim.launch.calls": f("gpusim.launch", "calls"),
        "gpusim.launch.s": f("gpusim.launch", "s"),
        "gpusim.warp_insts": counts.get("gpusim.warp_insts", 0),
        "gpusim.exec.ns_per_warp_inst": _per(
            f("gpusim.exec", "s"), counts.get("gpusim.warp_insts", 0), 1e9),
        "gpusim.plan.traced": traced,
        "gpusim.plan.replayed": replayed,
        "gpusim.plan.aborted": tel.get("gpusim.plan.launches.aborted", 0),
        "gpusim.plan.replay_ratio": _per(replayed, traced + replayed),
        "gpusim.batch.fallback": tel.get("gpusim.batch.launches.fallback",
                                         0),
        "gpusim.batch.scalar": tel.get("gpusim.batch.launches.scalar", 0),
        "timing.calls": f("timing", "calls"),
        "timing.s": f("timing", "s"),
        "timing.lru.accesses": counts.get("timing.lru.accesses", 0),
        "core.pca.s": f("core.pca", "s"),
        "core.linkage.s": f("core.linkage", "s"),
        "core.pb.s": f("core.pb", "s"),
        "artifacts.get.calls": f("artifacts.get", "calls"),
        "artifacts.get.hits": counts.get("artifacts.get.hits", 0),
        "artifacts.get.s": f("artifacts.get", "s"),
        "artifacts.hit_ratio": _per(counts.get("artifacts.get.hits", 0),
                                    f("artifacts.get", "calls")),
        "artifacts.put.calls": f("artifacts.put", "calls"),
        "artifacts.put.s": f("artifacts.put", "s"),
        "artifacts.bytes": counts.get("artifacts.bytes", 0),
        "trace_io.save.s": f("trace_io.save", "s"),
        "trace_io.load.calls": f("trace_io.load", "calls"),
        "trace_io.load.s": f("trace_io.load", "s"),
        "chunkstore.spills": tel.get("chunkstore.spill.chunks", 0),
    }
    for layer in WARM_LAYERS:
        m[f"warm.{layer}.s"] = _field(warm, layer, "s")
    m["warm.experiments.self_s"] = (_field(warm, "experiments", "s")
                                    - _field(warm, "experiments", "child_s"))
    m["warm.artifacts.get.hits"] = warm["counts"].get("artifacts.get.hits",
                                                      0)
    return m


def complete(metrics: Dict[str, float], service: bool) -> Dict[str, float]:
    """All metrics of the workload, in list order; a layer not reached
    reads 0.  The ``service.*`` metrics belong to ``service-tiny`` only,
    which ``BENCHMARK.json`` does not list."""
    return {name: metrics.get(name, 0) for name in METRICS
            if service or not name.startswith("service.")}
