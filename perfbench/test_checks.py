"""Each output check passes on a correct output and fails on a perturbed one.

    PYTHONPATH=src python3 -m pytest -q perfbench

Correct inputs are built from first principles or taken from the
program; the perturbed copy changes one value.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import checks


def fails(check, *args) -> None:
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_every_check_is_tested():
    tested = {name[len("test_"):] for name in globals()
              if name.startswith("test_")}
    assert set(checks.all_checks()) <= tested


def test_same_renders():
    cold = {"fig1": "IPC 1.5", "fig2": "mix"}
    checks.same_renders(cold, dict(cold))
    fails(checks.same_renders, cold, {"fig1": "IPC 1.6", "fig2": "mix"})
    fails(checks.same_renders, cold, {"fig1": "IPC 1.5"})


def test_miss_curve_monotone():
    curve = {128: 0.5, 256: 0.25, 512: 0.25}
    checks.miss_curve_monotone("w", curve)
    fails(checks.miss_curve_monotone, "w", {**curve, 512: 0.3})


def test_lru_misses_on_a_cycle():
    # A cycle one line longer than the cache misses every time under LRU.
    assert checks.lru_misses([0, 1, 2] * 4, capacity=2) == 12
    assert checks.lru_misses([0, 1, 2] * 4, capacity=3) == 3


def test_trace_footprint():
    addrs = np.array([0, 64, 128, 0, 64, 128, 4096], dtype=np.int64)
    # 2-line cache: the 3-line cycle always misses, plus the last line.
    curve = {128: 7 / 7, 64 * 1024: 4 / 7}
    checks.trace_footprint("w", addrs, curve, 2)
    fails(checks.trace_footprint, "w", addrs, {**curve, 128: 6 / 7}, 2)
    fails(checks.trace_footprint, "w", addrs, {**curve, 65536: 3 / 7}, 2)
    fails(checks.trace_footprint, "w", addrs, curve, 3)


def test_trace_footprint_on_the_program(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    from repro.common.config import SimScale
    from repro.cpusim import Machine, characterize_trace
    from repro.workloads import get

    machine = Machine()
    get("canneal").cpu_fn(machine, SimScale.TINY)
    met = characterize_trace(machine, "canneal")
    addrs = machine.trace()[0]
    checks.trace_footprint("canneal", addrs, met.miss_curve,
                           met.data_footprint_4kb)
    small = min(met.miss_curve)
    bumped = {**met.miss_curve, small: met.miss_curve[small] + 1e-12}
    fails(checks.trace_footprint, "canneal", addrs, bumped,
          met.data_footprint_4kb)
    fails(checks.trace_footprint, "canneal", addrs, met.miss_curve,
          met.data_footprint_4kb + 1)


def _features(seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(14, 6))
    x[:, 1] = 2 * x[:, 0] + 0.1 * x[:, 1]  # correlated: uneven spectrum
    return x


def test_pca_explained():
    x = _features()
    z = (x - x.mean(0)) / x.std(0, ddof=1)
    eig = np.sort(np.linalg.eigvalsh(np.corrcoef(z, rowvar=False)))[::-1]
    ratios = list(eig[:2] / eig.sum())
    checks.pca_explained("fig7", x, ratios)
    fails(checks.pca_explained, "fig7", x, [ratios[0] + 1e-6, ratios[1]])


def test_dendrogram():
    from repro.core import PCA, linkage

    x = _features()
    pca = PCA().fit(x)
    k = pca.n_components_for_variance(0.90)
    z = linkage(pca.transform(x)[:, :k], method="average")
    explained = pca.explained_variance_ratio_[:k].sum()
    checks.dendrogram(x, k, explained, z)
    fails(checks.dendrogram, x, k + 1, explained, z)
    fails(checks.dendrogram, x, k, explained * 1.001, z)
    tall = z.copy()
    tall[-1, 2] *= 1.01
    fails(checks.dendrogram, x, k, explained, tall)


def test_rows_sum_to_one():
    rows = {"BFS": {"global": 0.75, "shared": 0.25, "mean": 31.0}}
    checks.rows_sum_to_one("fig3", rows, ("mean",))
    fails(checks.rows_sum_to_one, "fig3", rows)
    fails(checks.rows_sum_to_one, "fig3",
          {"BFS": {"global": 0.75, "shared": 0.26, "mean": 31.0}},
          ("mean",))


def test_stalls_sum_to_body():
    launch = {"stalls": {"issue": 0.1, "bandwidth": 0.2, "latency": 0.0},
              "body_cycles": 0.1 + 0.2}
    components = ("issue", "bandwidth", "latency")
    checks.stalls_sum_to_body("app", [launch], components)
    off = copy.deepcopy(launch)
    off["body_cycles"] = 0.3  # 0.1 + 0.2 != 0.3 in binary floating point
    fails(checks.stalls_sum_to_body, "app", [off], components)


def _body(text: str = "x") -> bytes:
    return json.dumps({"status": "ok", "rendered": text}).encode()


def test_replies_ok():
    checks.replies_ok(20, [])
    fails(checks.replies_ok, 20, [("fig2", 500)])


def test_replies_identical():
    a, b = _body(), _body("y")
    checks.replies_identical({"fig1": [a], "fig2": [b]})
    fails(checks.replies_identical, {"fig1": [a, b]})
    error = json.dumps({"status": "error"}).encode()
    fails(checks.replies_identical, {"fig1": [error, error]})


def test_cold_executions():
    checks.cold_executions(10, 10)
    fails(checks.cold_executions, 11, 10)


def test_stats_match():
    client = {"cold": 10, "warm": 90, "coalesced": 10, "errors": 0}
    checks.stats_match(dict(client, requests=130), client)
    fails(checks.stats_match, dict(client, warm=89), client)


_KEYS_SNIPPET = """
import tracer
from repro.core.artifacts import _source_fingerprint
from repro.workloads import load_all

registry = load_all()
def keys():
    return {n: (_source_fingerprint(d.cpu_fn), _source_fingerprint(d.gpu_fn))
            for n, d in registry.items()}
before = keys()
tracer.install(tracer.LayerClock(), ["fig1", "fig6"])
assert all(getattr(d.cpu_fn or d.gpu_fn, "__wrapped__", None)
           for d in registry.values()), "not wrapped"
assert keys() == before, "fingerprints changed"
"""


def test_tracing_keeps_artifact_keys():
    """Wrapped workload functions fingerprint like the originals.

    Runs in a fresh interpreter: installing the tracer patches the
    program process-wide.
    """
    bench = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.abspath(p) for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", _KEYS_SNIPPET], cwd=bench,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
