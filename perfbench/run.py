"""The paper's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-tiny --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
against this run's own artifact cache, run registry and plan store under
``.bench_tmp/``; byte-compiled sources go to ``.bench_build/``.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  The lines
before it give the run's provenance and record.  ``--out PATH``
additionally writes the run as a ``BENCH_timings.json`` v2 session,
which ``runner perf record --bench PATH`` ingests.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import layers  # noqa: E402

#: Experiments of each batch workload, in paper order, its scale, and
#: the fresh-process warm passes per run (at least; more while time is
#: left).
BATCH_WORKLOADS = {
    "paper-tiny": {
        "scale": "tiny",
        "experiments": ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                        "fig12"],
        "warm_passes": 12,
    },
    "gpu-small": {
        "scale": "small",
        "experiments": ["fig1", "fig2", "fig3", "fig4", "fig5", "pb"],
        "warm_passes": 4,
    },
}
#: ``service-tiny`` runs on request but is not in ``BENCHMARK.json``: its
#: warm latency did not repeat on a shared 2-core host (see README.md).
WORKLOADS = (*BATCH_WORKLOADS, "service-tiny")

#: A pass that has not finished by then has hung.
PASS_TIMEOUT_S = 150.0

#: Directories the benchmark writes inside the checkout.
SCRATCH_DIRS = (".bench_tmp", ".bench_build")

#: Variables pinned for every process the benchmark starts.
BLAS_THREADS = "1"
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": BLAS_THREADS,
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "NUMEXPR_NUM_THREADS": BLAS_THREADS,
    "REPRO_PERF_HISTORY": "off",
}


class Run:
    """One benchmark run's directories and child-process environment."""

    def __init__(self, root: Path, workload: str):
        self.root = root
        self.dir = root / ".bench_tmp" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        (self.dir / "work").mkdir()
        self._n = 0
        pycache = root / ".bench_build" / "pycache"
        # Children write the byte code of what they import (numpy too)
        # under .bench_build, so no set-up after the first recompiles it.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")
               and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
        env.update(PINNED_ENV)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
        env["TMPDIR"] = str(self.dir / "tmp")
        self.env = env
        # Compile once per checkout so set-up times never include it.
        sys.pycache_prefix = str(pycache)
        compileall.compile_dir(str(root / "src"), quiet=1)
        compileall.compile_dir(str(BENCH_DIR), quiet=1)

    def fresh(self, name: str) -> Path:
        """A new, empty directory under this run."""
        self._n += 1
        path = self.dir / f"{name}-{self._n}"
        path.mkdir()
        return path

    def stores(self, cache: Path) -> Dict[str, str]:
        """Environment for a process using ``cache`` and a new registry."""
        env = dict(self.env)
        env["REPRO_CACHE_DIR"] = str(cache)
        env["REPRO_REGISTRY"] = str(self.fresh("registry"))
        return env

    @staticmethod
    def artifact_names(cache: Path) -> List[str]:
        """Names of the artifacts (not locks) left in a cache."""
        return sorted(p.name for p in cache.iterdir() if p.is_file())

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        parent = self.dir.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


# ----------------------------------------------------------------------
# Batch workloads: fresh-interpreter passes
# ----------------------------------------------------------------------
def run_pass(run: Run, experiments: List[str], scale: str, cache: Path,
             trace: bool = False, check: bool = False) -> dict:
    """One pass in a fresh interpreter; returns its result record."""
    spec_dir = run.fresh("pass")
    result = spec_dir / "result.json"
    spec = spec_dir / "spec.json"
    log = spec_dir / "log.txt"
    body = {"experiments": experiments, "scale": scale, "trace": trace,
            "checks": check, "result": str(result)}
    with open(log, "w", encoding="utf-8") as out:
        body["spawned_at"] = time.monotonic()
        spec.write_text(json.dumps(body), encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "passes.py"), str(spec)],
            env=run.stores(cache), cwd=run.dir / "work",
            stdout=out, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=PASS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result.is_file():
        tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise RuntimeError(f"pass {experiments} exited {code}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8"))


def trimmed_mean(values: List[float]) -> float:
    """Mean of ``values`` without the lowest and highest tenth of them.

    Warm passes of one run come in fast and slow spells of the shared
    host, each lasting many passes.  The median picks one spell; the
    mean over the whole window repeats better between runs, and the
    trim keeps a single stalled pass from moving it.
    """
    ordered = sorted(values)
    k = len(ordered) // 10
    return statistics.fmean(ordered[k:len(ordered) - k])


def run_batch(run: Run, workload: str, seconds: float, trace: bool) -> dict:
    spec = BATCH_WORKLOADS[workload]
    exps, scale = spec["experiments"], spec["scale"]
    t_start = time.monotonic()
    cache = run.fresh("cache")
    cold = run_pass(run, exps, scale, cache, check=True)
    warms = [run_pass(run, exps, scale, cache)]
    # A traced run reports layers, not these times: one warm pass will do.
    while not trace and (len(warms) < spec["warm_passes"]
                         or time.monotonic() - t_start < seconds):
        warms.append(run_pass(run, exps, scale, cache))
    passes = [cold, *warms]
    problems = list(cold["check_failures"])
    for warm in warms:
        if not warm["errors"]:
            checks.attempt(problems, checks.same_renders,
                     cold["renders"], warm["renders"])
        if warm["executions"]:
            problems.append(f"warm pass executed {warm['executions']} "
                            "workloads")
    out = {
        "passes": passes,
        "attempted": 0,
        "failed": 0,
        "digest": outputs_digest(cold["renders"]),
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "cold_s": cold["pass_s"],
            "warm_s": trimmed_mean([p["pass_s"] for p in warms]),
            "peak_rss_mb": cold["rss_mb"],
        },
    }
    if trace:
        out.update(trace_batch(run, exps, scale, cold, cache, warms[0]))
    for p in out["passes"]:
        out["attempted"] += len(p["times"])
        out["failed"] += len(p["errors"])
    return out


def trace_batch(run: Run, exps: List[str], scale: str, cold: dict,
                cold_cache: Path, warm: dict) -> dict:
    """Traced cold and warm passes, checked against the untraced ones."""
    cache = run.fresh("cache")
    tcold = run_pass(run, exps, scale, cache, trace=True)
    twarm = run_pass(run, exps, scale, cache, trace=True)
    problems = []
    for label, plain, traced in (("cold", cold, tcold),
                                 ("warm", warm, twarm)):
        for key in ("executions", "plan_routes", "batch_routes"):
            if plain[key] != traced[key]:
                problems.append(f"traced {label} {key} {traced[key]} != "
                                f"untraced {plain[key]}")
        checks.attempt(problems, checks.same_renders, plain["renders"],
                 traced["renders"])
    traced_keys, plain_keys = (set(run.artifact_names(cache)),
                               set(run.artifact_names(cold_cache)))
    if traced_keys != plain_keys:
        problems.append("traced pass wrote other artifact keys: "
                        f"{sorted(traced_keys ^ plain_keys)[:6]}")
    counts = tcold["layers"]["counts"]
    for kind in ("cpu", "gpu"):
        calls = counts.get(f"checks.{kind}.calls", 0)
        expected = counts.get(f"checks.{kind}.expected", 0)
        if calls != expected:
            problems.append(f"{calls} {kind} self-checks for {expected} "
                            "checked executions")
    metrics = layers.layer_metrics(tcold["layers"], twarm["layers"])
    metrics["trace.overhead_pct"] = (
        (tcold["pass_s"] / cold["pass_s"] - 1.0) * 100.0
    )
    return {"trace_problems": problems, "layer_metrics": metrics,
            "passes": [cold, warm, tcold, twarm]}


# ----------------------------------------------------------------------
# Provenance and the working-tree guard
# ----------------------------------------------------------------------
def tree_state(root: Path) -> Dict[str, tuple]:
    """(size, mtime) of every file outside the benchmark's scratch dirs."""
    state = {}
    skip = {".git", *SCRATCH_DIRS}
    for dirpath, dirnames, filenames in os.walk(root):
        if Path(dirpath) == root:
            dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                st = os.stat(path)
            except FileNotFoundError:
                continue
            state[os.path.relpath(path, root)] = (st.st_size, st.st_mtime_ns)
    return state


def tree_changes(before: Dict[str, tuple], after: Dict[str, tuple]) -> List[str]:
    changed = [p for p in after if before.get(p) != after[p]]
    removed = [p for p in before if p not in after]
    return sorted(changed + removed)


def source_digest(root: Path) -> str:
    """sha256 over the program's sources: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, run: Run) -> dict:
    import numpy

    git = "none"
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == root.resolve():  # not an enclosing repo
            git = sha
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git": git,
        "source_sha256": source_digest(root),
        "host": platform.node(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": {k: run.env[k] for k in sorted(PINNED_ENV)},
    }


def outputs_digest(renders: Dict[str, str]) -> Dict[str, str]:
    """sha256 of each experiment's rendered output, and of them all."""
    per = {e: hashlib.sha256(t.encode("utf-8")).hexdigest()[:16]
           for e, t in renders.items()}
    per["all"] = hashlib.sha256(
        json.dumps(per, sort_keys=True).encode()).hexdigest()[:16]
    return per


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
UNITS = {
    "setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB",
}


def bench_session(workload: str, metrics: Dict[str, dict], correct: bool,
                  prov: dict, total_s: float) -> dict:
    """The run as one ``BENCH_timings.json`` v2 session record."""
    tests = {f"perfbench/{workload}/{k}": v["value"]
             for k, v in metrics.items()}
    outcome = "passed" if correct else "failed"
    return {
        "schema": 2,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "scale": BATCH_WORKLOADS.get(workload, {}).get("scale", "tiny"),
        "git": prov["git"] if prov["git"] != "none"
        else f"src:{prov['source_sha256']}",
        "host": prov["host"],
        "config": json.dumps(prov["env"], sort_keys=True),
        "total_s": total_s,
        "tests": tests,
        "outcomes": {k: outcome for k in tests},
        "rss_kb": {},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the run as a BENCH_timings.json "
                             "v2 session list")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root}/src; run from "
              "the root of a checkout", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    before = tree_state(root)
    run = Run(root, args.workload)
    try:
        prov = provenance(root, run)
        print("# provenance " + json.dumps(prov, sort_keys=True), flush=True)
        if args.workload == "service-tiny":
            import servicebench

            out = servicebench.run_service(run, args.seed, args.seconds,
                                           bool(args.trace))
        else:
            out = run_batch(run, args.workload, args.seconds,
                            bool(args.trace))
    finally:
        run.close()
    changed = tree_changes(before, tree_state(root))
    problems = out["problems"] + out.get("trace_problems", [])
    if changed:
        problems.append(f"the run changed the working tree: {changed[:10]}")

    attempted, failed = out["attempted"], out["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": layers.unit(k)}
                   for k, v in layers.complete(
                       out["layer_metrics"],
                       args.workload == "service-tiny").items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in out["metrics"].items()}
    correct = not problems
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "digest": out["digest"],
        "end_to_end": out["metrics"],
        "passes": [{k: p[k] for k in ("setup_s", "pass_s", "rss_mb")}
                   for p in out["passes"]],
        "errors": {e: tb for p in out["passes"]
                   for e, tb in p["errors"].items()},
        "problems": problems,
    }
    print("# record " + json.dumps(record, sort_keys=True), flush=True)
    if args.out:
        session = bench_session(args.workload, metrics, correct, prov,
                                time.monotonic() - t0)
        Path(args.out).write_text(json.dumps([session], indent=1) + "\n",
                                  encoding="utf-8")
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
