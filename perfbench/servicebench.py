"""The ``service-tiny`` workload: the experiment service over HTTP.

One run starts ``runner serve --workers 1`` twice, each on an empty
cache; each start-up is timed.  Each daemon takes:

- a cold burst: two connections send each distinct request at the same
  moment (a barrier per request), so the second coalesces onto the
  first's execution.

The last daemon then serves:

- a warm stream: a closed loop on each connection, rounds of the same
  requests in an order shuffled by the benchmark's seed, until the run's
  time is used.

Requests are plain JSON built here, not with the program's encoder.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import checks
import layers

#: The distinct requests, in paper order.
REQUESTS = ["table1", "table4", "table5", "fig1", "fig2", "fig3", "fig4",
            "fig5", "table3", "pb"]
SCALE = "tiny"

#: Daemon launches per run; the median start-up is ``setup_s``.
SETUP_LAUNCHES = 2

#: Daemons per run that take a cold burst on an empty cache; the median
#: burst is ``cold_s``.  The last one also serves the warm stream.
COLD_BURSTS = 2

#: Client connections (threads of this process); at most ``nproc``.
CONNECTIONS = min(2, os.cpu_count() or 1)

#: Warm rounds per connection per run, at least.
MIN_WARM_ROUNDS = 100

#: The warm stream's untimed start, and its timed length at least.  A
#: daemon serves its first warm seconds slower and less evenly.
WARMUP_S = 2.0
MIN_WARM_S = 6.0

#: Longest wait for a daemon to listen, answer, or stop.
DAEMON_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0

BENCH_DIR = Path(__file__).resolve().parent

_LISTEN = re.compile(r"listening on http://([0-9.]+):([0-9]+)")


def body(experiment: str) -> bytes:
    return json.dumps({"schema_version": 1, "experiment": experiment,
                       "scale": SCALE}).encode("utf-8")


class Daemon:
    """A ``runner serve`` process this run started, and its address."""

    def __init__(self, run, cache: Path, trace_dir: Optional[Path] = None):
        self.log = run.fresh("daemon") / "stderr.txt"
        serve = ["serve", "--port", "0", "--workers", "1"]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro.experiments.runner", *serve]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracedserve.py"),
                    str(trace_dir), *REQUESTS, "--", *serve]
        with open(self.log, "w", encoding="utf-8") as out:
            spawned = time.monotonic()
            self.proc = subprocess.Popen(
                argv, env=run.stores(cache), cwd=run.dir / "work",
                stdout=out, stderr=subprocess.STDOUT,
            )
        try:
            self.host, self.port = self._address(spawned)
            self._wait_healthy(spawned)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - spawned

    def _address(self, spawned: float):
        while time.monotonic() - spawned < DAEMON_TIMEOUT_S:
            match = _LISTEN.search(self.log.read_text(encoding="utf-8"))
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError("daemon did not start:\n"
                           + self.log.read_text(encoding="utf-8")[-2000:])

    def _wait_healthy(self, spawned: float) -> None:
        while time.monotonic() - spawned < DAEMON_TIMEOUT_S:
            try:
                status, _, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("daemon never answered /healthz")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, payload: bytes = None,
                conn: Optional[http.client.HTTPConnection] = None):
        """(status, X-Repro-Served, body) of one request."""
        own = conn is None
        conn = conn or self.connect()
        try:
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return (resp.status, resp.getheader("X-Repro-Served") or "",
                    resp.read())
        finally:
            if own:
                conn.close()

    def json(self, path: str) -> dict:
        status, _, text = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(text)

    def peak_rss_mb(self) -> float:
        """Largest VmHWM of the daemon and its pool workers, in MB."""
        pids = [self.proc.pid, *self._children()]
        peak = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def _children(self) -> List[int]:
        pids: List[int] = []
        for task in Path(f"/proc/{self.proc.pid}/task").glob("*"):
            try:
                text = (task / "children").read_text()
            except OSError:
                continue
            pids += [int(p) for p in text.split()]
        return pids

    def stop(self) -> None:
        """Shut down over HTTP; wait for the daemon and its workers."""
        workers = self._children()
        try:
            self.request("POST", "/v1/shutdown")
            self.proc.wait(timeout=DAEMON_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.kill()
        _wait_gone(workers)

    def kill(self) -> None:
        if self.proc.poll() is None:
            workers = self._children()
            self.proc.kill()
            self.proc.wait()
            _wait_gone(workers, force=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().split(")")[-1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pids: List[int], force: bool = False) -> None:
    """Wait for (orphaned) pool workers; kill any that linger."""
    import signal

    deadline = time.monotonic() + (1.0 if force else 10.0)
    for pid in pids:
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if _alive(pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
            while _alive(pid):
                time.sleep(0.01)


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
class Tally:
    """What one client saw: counts, failures, distinct bodies per key."""

    def __init__(self) -> None:
        self.n = 0
        self.failures: List[tuple] = []
        self.served: Counter = Counter()
        #: Request -> the distinct bodies it received, first one first.
        self.bodies: Dict[str, List[bytes]] = {}

    def add(self, key: str, status: int, served: str, text: bytes) -> None:
        self.n += 1
        self.served[served] += 1
        if status != 200:
            self.failures.append((key, status))
        seen = self.bodies.setdefault(key, [])
        if text not in seen:
            seen.append(text)

    def merge(self, other: "Tally") -> "Tally":
        self.n += other.n
        self.served.update(other.served)
        self.failures += other.failures
        for key, seen in other.bodies.items():
            mine = self.bodies.setdefault(key, [])
            mine += [b for b in seen if b not in mine]
        return self


def _clients(n: int, work) -> None:
    """Run ``work(i)`` on ``n`` threads; re-raise the first failure."""
    failures: List[BaseException] = []

    def guarded(i: int) -> None:
        try:
            work(i)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            failures.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


def cold_burst(daemon: Daemon) -> dict:
    """Both connections send each distinct request at once."""
    barrier = threading.Barrier(CONNECTIONS)
    tallies = [Tally() for _ in range(CONNECTIONS)]
    marks: Dict[str, float] = {}

    def client(i: int) -> None:
        conn = daemon.connect()
        try:
            for experiment in REQUESTS:
                barrier.wait(timeout=REQUEST_TIMEOUT_S)
                marks.setdefault("first", time.monotonic())
                tallies[i].add(experiment, *daemon.request(
                    "POST", "/v1/experiment", body(experiment), conn))
            marks[f"end{i}"] = time.monotonic()
        except BaseException:
            barrier.abort()
            raise
        finally:
            conn.close()

    _clients(CONNECTIONS, client)
    ends = [marks[f"end{i}"] for i in range(CONNECTIONS)]
    return {"tally": tallies[0].merge(tallies[1]),
            "cold_s": max(ends) - marks["first"]}


def warm_stream(daemon: Daemon, seed: int, until: float) -> dict:
    """Closed loops on both connections, rounds in seed-shuffled order.

    Rounds that start in the first ``WARMUP_S`` are checked but not
    timed; the timed part lasts until ``until`` and at least
    ``MIN_WARM_S``.
    """
    tallies = [Tally() for _ in range(CONNECTIONS)]
    latencies: List[List[float]] = [[] for _ in range(CONNECTIONS)]
    rounds: List[List[float]] = [[] for _ in range(CONNECTIONS)]
    timed_from = time.monotonic() + WARMUP_S
    until = max(until, timed_from + MIN_WARM_S)

    def client(i: int) -> None:
        rng = random.Random(f"{seed}/{i}")
        order = list(REQUESTS)
        conn = daemon.connect()
        try:
            while (len(rounds[i]) < MIN_WARM_ROUNDS
                   or time.monotonic() < until):
                rng.shuffle(order)
                r0 = time.monotonic()
                lat = []
                for experiment in order:
                    q0 = time.monotonic()
                    reply = daemon.request("POST", "/v1/experiment",
                                           body(experiment), conn)
                    lat.append(time.monotonic() - q0)
                    tallies[i].add(experiment, *reply)
                if r0 >= timed_from:
                    rounds[i].append(time.monotonic() - r0)
                    latencies[i] += lat
        finally:
            conn.close()

    _clients(CONNECTIONS, client)
    return {"tally": tallies[0].merge(tallies[1]),
            "latencies": latencies[0] + latencies[1],
            "rounds": rounds[0] + rounds[1],
            "elapsed": time.monotonic() - timed_from}


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def one_lifetime(run, seed: int, seconds: float, t_start: float,
                 trace_dir: Optional[Path] = None,
                 warm: bool = True) -> dict:
    """One daemon on an empty cache: cold burst, then the warm stream."""
    cache = run.fresh("cache")
    daemon = Daemon(run, cache, trace_dir)
    try:
        burst = cold_burst(daemon)
        stream = (warm_stream(daemon, seed, t_start + seconds) if warm
                  else {"tally": Tally(), "latencies": [], "rounds": [],
                        "elapsed": 0.0})
        stats = daemon.json("/v1/stats")
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    tally = Tally().merge(burst["tally"]).merge(stream["tally"])
    return {"daemon": daemon, "cache": cache, "burst": burst,
            "stream": stream, "stats": stats, "rss_mb": rss,
            "tally": tally}


def check_lifetime(life: dict) -> List[str]:
    problems: List[str] = []
    tally = life["tally"]
    checks.attempt(problems, checks.replies_ok, tally.n, tally.failures)
    checks.attempt(problems, checks.replies_identical, tally.bodies)
    checks.attempt(problems, checks.cold_executions, life["stats"]["cold"],
                   len(REQUESTS))
    client = {"cold": 0, "warm": 0, "coalesced": 0, **tally.served,
              "errors": 0, "rejected": 0, "bad_requests": 0,
              "posts": tally.n}
    server = dict(life["stats"],
                  posts=life["stats"]["per_route"].get("/v1/experiment"))
    checks.attempt(problems, checks.stats_match, server, client)
    return problems


def run_service(run, seed: int, seconds: float, trace: bool) -> dict:
    # A traced run needs one untraced cold burst to compare against.
    n_plain = 1 if trace else COLD_BURSTS
    setups = []
    for _ in range(SETUP_LAUNCHES - n_plain):
        daemon = Daemon(run, run.fresh("cache"))
        setups.append(daemon.setup_s)
        daemon.stop()
    t_start = time.monotonic()
    lives = [one_lifetime(run, seed, seconds, t_start,
                          warm=not trace and i == n_plain - 1)
             for i in range(n_plain)]
    setups += [life["daemon"].setup_s for life in lives]
    plain = lives[-1]
    out_metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(life["burst"]["cold_s"]
                                    for life in lives),
        "warm_s": (statistics.median(plain["stream"]["rounds"])
                   if plain["stream"]["rounds"] else 0.0),
        "peak_rss_mb": statistics.median(life["rss_mb"] for life in lives),
    }
    problems = [p for life in lives for p in check_lifetime(life)]
    out = {"problems": problems, "metrics": out_metrics}
    if trace:
        trace_dir = run.fresh("layers")
        traced = one_lifetime(run, seed, seconds, time.monotonic(),
                              trace_dir=trace_dir)
        lives.append(traced)
        problems += check_lifetime(traced)
        # Executions are exact; how many followers coalesce rather than
        # arrive after the leader finished is a race, so not compared.
        trace_problems = []
        if traced["stats"]["cold"] != plain["stats"]["cold"]:
            trace_problems.append(
                f"traced executions {traced['stats']['cold']} != untraced "
                f"{plain['stats']['cold']}")
        if (run.artifact_names(traced["cache"])
                != run.artifact_names(plain["cache"])):
            trace_problems.append("traced daemon wrote other artifact keys")
        snaps = [json.loads(p.read_text(encoding="utf-8"))
                 for p in sorted(trace_dir.glob("layers-*.json"))
                 if p.name != "layers-daemon.json"]
        daemon_snap = json.loads(
            (trace_dir / "layers-daemon.json").read_text(encoding="utf-8"))
        metrics = layers.layer_metrics(layers.merge(snaps), daemon_snap)
        stream, stats = traced["stream"], traced["stats"]
        lat_ms = [x * 1e3 for x in stream["latencies"]]
        metrics.update({
            "service.requests": stats["per_route"].get("/v1/experiment", 0),
            "service.executions": stats["cold"],
            "service.coalesced": stats["coalesced"],
            "service.warm.n": len(lat_ms),
            "service.warm.p50_ms": statistics.median(lat_ms),
            "service.warm.p99_ms": _percentile(lat_ms, 0.99),
            "service.warm.rps": len(lat_ms) / stream["elapsed"],
            "service.server.warm_mean_ms": stats["mean_warm_s"] * 1e3,
            "trace.overhead_pct": (traced["burst"]["cold_s"]
                                   / plain["burst"]["cold_s"] - 1.0) * 100.0,
        })
        out["trace_problems"] = trace_problems
        out["layer_metrics"] = metrics
    out.update({
        "passes": [],
        "attempted": sum(life["tally"].n for life in lives),
        "failed": sum(len(life["tally"].failures) for life in lives),
        "digest": _digest(plain),
    })
    return out


def _digest(life: dict) -> Dict[str, str]:
    """sha256 of each response's rendered output (as the batch digest)."""
    from run import outputs_digest

    return outputs_digest({key: json.loads(seen[0])["rendered"]
                           for key, seen in life["tally"].bodies.items()})
