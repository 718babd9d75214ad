"""Per-layer tracing of the program, installed from outside.

:func:`install` wraps the public entry points of each layer (named in
README.md) in timing/counting wrappers.  Nothing under ``src/`` changes:
the wrappers are rebound onto the classes, the workload registry and
every ``repro`` module that imported the original by name.

Artifact keys fingerprint workload functions by their source text
(``inspect.getsource``), which follows ``__wrapped__``; every wrapper is
made with :func:`functools.wraps`, so a traced pass computes the same
keys, hits the same cache entries and routes the same launches as an
untraced one.  The benchmark checks that on every traced run.

Timing is inclusive per layer.  A wrapper also charges its duration to
the innermost enclosing wrapper's child time, so ``experiments`` self
time is the part of an experiment no wrapped layer below accounts for.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: Layer name -> inclusive seconds / calls / seconds in nested wrappers.
Stats = Dict[str, Dict[str, float]]


class LayerClock:
    """Accumulates per-layer calls, inclusive time and counts."""

    def __init__(self) -> None:
        self.stats: Stats = {}
        self.counts: Counter = Counter()
        #: The program's own telemetry counters, added by the caller.
        self.telemetry: Counter = Counter()
        self._stack: List[List[float]] = []

    def wrap(self, layer: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as ``layer``; ``after(result, args)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                s = self.stats.setdefault(
                    layer, {"calls": 0, "s": 0.0, "child_s": 0.0}
                )
                s["calls"] += 1
                s["s"] += dt
                s["child_s"] += frame[0]
            if after is not None:
                after(result, args)
            return result

        return traced

    def snapshot(self) -> dict:
        """A JSON-ready copy, safe to keep while tracing continues."""
        return json.loads(json.dumps({
            "stats": self.stats, "counts": dict(self.counts),
            "telemetry": dict(self.telemetry),
        }))


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's reference at the wrapper."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap_function(clock: LayerClock, layer: str, module: str, name: str,
                   after: Optional[Callable] = None) -> None:
    mod = sys.modules[module]
    original = getattr(mod, name)
    _rebind(original, clock.wrap(layer, original, after))


def _wrap_method(clock: LayerClock, layer: str, cls: type, name: str,
                 after: Optional[Callable] = None) -> None:
    setattr(cls, name, clock.wrap(layer, vars(cls)[name], after))


def _hit_counter(counts: Counter) -> Callable:
    def got(result, _args):
        counts["artifacts.get.hits"] += result is not None
    return got


def install(clock: LayerClock, experiments: List[str]) -> None:
    """Wrap every layer's entry points; call after the registry loads."""
    import importlib

    from repro import experiments as exp
    from repro.core.artifacts import ArtifactCache
    from repro.gpusim.gpu import GPU
    from repro.gpusim.timing import TimingModel
    from repro.workloads import REGISTRY

    for mod in ("repro.api", "repro.core.pca", "repro.core.clustering",
                "repro.core.plackett_burman", "repro.cpusim.metrics",
                "repro.gpusim.trace_io"):
        importlib.import_module(mod)
    for experiment in experiments:  # driver modules import lazily
        exp.get_driver(experiment)
    counts = clock.counts

    # experiments
    _wrap_function(clock, "experiments", "repro.experiments",
                   "run_experiment")

    # CPU interpretation and the workloads' own self-checks
    def cpu_done(_result, args):
        counts["cpusim.exec.refs"] += args[0].n_accesses

    def gpu_done(_result, args):
        counts["gpusim.warp_insts"] += args[0].trace.issued_warp_insts

    def expecting_check(kind: str, done: Callable) -> Callable:
        # Released implementations are self-checked after each run;
        # Table III's older GPU versions are not.
        def after(result, args):
            counts[f"checks.{kind}.expected"] += 1
            done(result, args)
        return after

    def wrap_check(kind: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            counts[f"checks.{kind}.calls"] += 1
            return fn(*args, **kwargs)
        return checked

    for defn in REGISTRY.values():
        if defn.cpu_fn is not None:
            defn.cpu_fn = clock.wrap(
                "cpusim.exec", defn.cpu_fn,
                expecting_check("cpu", cpu_done) if defn.check_cpu
                else cpu_done)
        if defn.gpu_fn is not None:
            defn.gpu_fn = clock.wrap(
                "gpusim.exec", defn.gpu_fn,
                expecting_check("gpu", gpu_done) if defn.check_gpu
                else gpu_done)
        if defn.gpu_versions:
            defn.gpu_versions = {
                v: clock.wrap("gpusim.exec", fn, gpu_done)
                for v, fn in defn.gpu_versions.items()
            }
        if defn.check_cpu is not None:
            defn.check_cpu = wrap_check("cpu", defn.check_cpu)
        if defn.check_gpu is not None:
            defn.check_gpu = wrap_check("gpu", defn.check_gpu)

    # CPU trace analytics
    def analysed(_result, args):
        counts["analytics.refs"] += args[0].n_accesses

    _wrap_function(clock, "analytics.characterize", "repro.cpusim.metrics",
                   "characterize_trace", analysed)

    # GPU interpretation and timing
    _wrap_method(clock, "gpusim.launch", GPU, "launch")

    def priced(_result, args):
        counts["timing.lru.accesses"] += args[1].n_transactions

    _wrap_method(clock, "timing", TimingModel, "time", priced)
    _wrap_method(clock, "timing", TimingModel, "profile", priced)

    # characterization core
    _wrap_method(clock, "core.pca", sys.modules["repro.core.pca"].PCA, "fit")
    _wrap_function(clock, "core.linkage", "repro.core.clustering", "linkage")
    _wrap_function(clock, "core.pb", "repro.core.plackett_burman",
                   "rank_factors")

    # artifact cache
    got = _hit_counter(counts)

    def put_bytes(kind: str, ext: str) -> Callable:
        def after(_result, args):
            cache, name, scale, key = args[:4]
            path = cache._path(kind, name, scale, key, ext)
            counts["artifacts.bytes"] += os.path.getsize(path)
        return after

    for method in ("get_cpu", "get_gpu", "get_json"):
        _wrap_method(clock, "artifacts.get", ArtifactCache, method, got)
    _wrap_method(clock, "artifacts.put", ArtifactCache, "put_cpu",
                 put_bytes("cpu", ".json"))
    _wrap_method(clock, "artifacts.put", ArtifactCache, "put_gpu",
                 put_bytes("gpu", ".npz"))

    def put_json_bytes(result, _args):
        counts["artifacts.bytes"] += os.path.getsize(result)

    _wrap_method(clock, "artifacts.put", ArtifactCache, "put_json",
                 put_json_bytes)

    # trace storage
    _wrap_function(clock, "trace_io.save", "repro.gpusim.trace_io",
                   "save_trace")
    _wrap_function(clock, "trace_io.load", "repro.gpusim.trace_io",
                   "load_trace")


def install_in_service(experiments: List[str], out_dir: str) -> LayerClock:
    """Trace a service daemon: its warm reads here, executions in workers.

    Call in the daemon before it starts its pool.  Only the daemon's
    warm read path is wrapped here, so the daemon imports nothing more
    than an untraced one would before it forks.  A pool worker installs
    every layer on its first execution (when an untraced worker would
    import the same modules) and rewrites ``<out_dir>/layers-<pid>.json``
    after each execution.  The worker's telemetry counters travel home
    in the execution's extras and are added to its clock there.
    Returns the daemon's clock.
    """
    from repro.core.artifacts import ArtifactCache

    server = sys.modules["repro.service.server"]
    original = server._execute
    daemon_clock, worker_clock = LayerClock(), LayerClock()
    traced_pid = {"pid": os.getpid()}  # the process already set up
    _wrap_method(daemon_clock, "artifacts.get", ArtifactCache, "get_json",
                 _hit_counter(daemon_clock.counts))

    @functools.wraps(original)
    def execute(*args, **kwargs):
        if os.getpid() != traced_pid["pid"]:  # a worker's first execution
            from repro.workloads import load_all

            load_all()
            install(worker_clock, experiments)
            traced_pid["pid"] = os.getpid()
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            extras = result[2] if result is not None else None
            if extras:
                worker_clock.telemetry.update(extras.get("counters", {}))
            path = os.path.join(out_dir, f"layers-{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(worker_clock.snapshot(), fh)

    _rebind(original, execute)
    return daemon_clock
