"""Output checks against independent computations and properties.

Every check takes plain values (numbers, arrays, dicts), computes its
reference without the program's own analysis code, and raises
:class:`CheckFailed` on a mismatch.  None compares against a stored copy
of earlier output.  ``test_checks.py`` hands each check a perturbed
output and expects it to fail.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np

#: Relative tolerance for floating-point results computed along a
#: different path (SVD vs eigendecomposition, scipy vs the program).
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output disagrees with its independent reference."""


def attempt(problems: List[str], check, *args) -> None:
    """Run one check; append its failure, if any, to ``problems``."""
    try:
        check(*args)
    except CheckFailed as exc:
        problems.append(f"{check.__name__}: {exc}")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ----------------------------------------------------------------------
# All workloads
# ----------------------------------------------------------------------
def same_renders(cold: Mapping[str, str], warm: Mapping[str, str]) -> None:
    """Warm output must equal cold output: the cache is only a cache."""
    if set(cold) != set(warm):
        raise CheckFailed(f"experiment sets differ: {sorted(cold)} vs "
                          f"{sorted(warm)}")
    for exp_id in cold:
        if cold[exp_id] != warm[exp_id]:
            raise CheckFailed(f"{exp_id}: warm output differs from cold")


# ----------------------------------------------------------------------
# CPU half
# ----------------------------------------------------------------------
def miss_curve_monotone(name: str, curve: Mapping[int, float]) -> None:
    """LRU stack property: a larger cache never misses more."""
    sizes = sorted(curve)
    for small, large in zip(sizes, sizes[1:]):
        if curve[large] > curve[small]:
            raise CheckFailed(
                f"{name}: miss rate rises from {curve[small]} at {small} B "
                f"to {curve[large]} at {large} B"
            )


def lru_misses(lines: Iterable[int], capacity: int) -> int:
    """Misses of a fully-associative LRU cache holding ``capacity`` lines."""
    cache: "OrderedDict[int, None]" = OrderedDict()
    misses = 0
    for line in lines:
        if line in cache:
            cache.move_to_end(line)
        else:
            misses += 1
            cache[line] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return misses


def trace_footprint(name: str, addrs: np.ndarray, curve: Mapping[int, float],
                    data_pages: int, line_bytes: int = 64,
                    page_bytes: int = 4096) -> None:
    """Reported miss rates and footprint against the raw address trace.

    The smallest cache is simulated access by access; the largest holds
    every distinct line, so it misses exactly once per distinct line.
    """
    n = int(addrs.size)
    if n == 0:
        raise CheckFailed(f"{name}: empty trace")
    lines = addrs // line_bytes
    distinct_lines = int(np.unique(lines).size)
    pages = int(np.unique(addrs // page_bytes).size)
    if pages != data_pages:
        raise CheckFailed(f"{name}: data footprint {data_pages} pages, "
                          f"trace touches {pages}")
    small, large = min(curve), max(curve)
    if distinct_lines > large // line_bytes:
        raise CheckFailed(f"{name}: {distinct_lines} lines exceed "
                          f"{large} B; the cold-miss identity needs a "
                          "cache that holds the whole trace")
    if curve[large] != distinct_lines / n:
        raise CheckFailed(f"{name}: {large} B miss rate {curve[large]}, "
                          f"expected {distinct_lines}/{n}")
    misses = lru_misses(lines.tolist(), small // line_bytes)
    if curve[small] != misses / n:
        raise CheckFailed(f"{name}: {small} B miss rate {curve[small]}, "
                          f"LRU simulation gives {misses}/{n}")


def _standardize(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    std = x.std(axis=0, ddof=1)
    return (x - x.mean(axis=0)) / np.where(std > 1e-12, std, 1.0)


def svd_explained(x: np.ndarray) -> np.ndarray:
    """Explained-variance ratios of the standardized matrix, via SVD."""
    s = np.linalg.svd(_standardize(x), compute_uv=False)
    var = s ** 2
    return var / var.sum()


def pca_explained(figure: str, x: np.ndarray, reported: Sequence[float]) -> None:
    """A scatter figure's leading explained-variance ratios."""
    ref = svd_explained(x)[: len(reported)]
    for i, (got, want) in enumerate(zip(reported, ref)):
        if not _close(float(got), float(want)):
            raise CheckFailed(f"{figure}: PC{i + 1} explains {got}, "
                              f"SVD gives {want}")


def dendrogram(x: np.ndarray, n_components: int, explained: float,
               merges: np.ndarray) -> None:
    """Fig 6: component count, covered variance and merge heights."""
    from scipy.cluster.hierarchy import linkage

    ratios = svd_explained(x)
    k = int(np.searchsorted(np.cumsum(ratios), 0.90) + 1)
    if n_components != k:
        raise CheckFailed(f"fig6: {n_components} components, SVD needs {k} "
                          "for 90% of variance")
    if not _close(float(explained), float(ratios[:k].sum())):
        raise CheckFailed(f"fig6: explains {explained}, SVD gives "
                          f"{ratios[:k].sum()}")
    u, s, _ = np.linalg.svd(_standardize(x), full_matrices=False)
    ref = linkage(u[:, :k] * s[:k], method="average")
    got = np.asarray(merges, dtype=np.float64)
    if got.shape != ref.shape:
        raise CheckFailed(f"fig6: linkage shape {got.shape}, "
                          f"scipy gives {ref.shape}")
    heights, ref_heights = np.sort(got[:, 2]), np.sort(ref[:, 2])
    if not np.allclose(heights, ref_heights, rtol=1e-7, atol=1e-9):
        worst = int(np.argmax(np.abs(heights - ref_heights)))
        raise CheckFailed(f"fig6: merge height {heights[worst]}, scipy "
                          f"gives {ref_heights[worst]}")
    if sorted(got[:, 3]) != sorted(ref[:, 3]):
        raise CheckFailed("fig6: merged cluster sizes differ from scipy")


# ----------------------------------------------------------------------
# GPU half
# ----------------------------------------------------------------------
def rows_sum_to_one(figure: str, rows: Mapping[str, Mapping[str, float]],
                    skip: Sequence[str] = ()) -> None:
    """Each row of a breakdown figure is a distribution."""
    for name, row in rows.items():
        total = sum(v for k, v in row.items() if k not in skip)
        if not _close(total, 1.0, 1e-9):
            raise CheckFailed(f"{figure}: {name} row sums to {total}")


def stalls_sum_to_body(app: str,
                       launches: Sequence[Mapping[str, object]],
                       components: Sequence[str]) -> None:
    """Stall attribution adds up, bit for bit, to each launch's body."""
    for i, launch in enumerate(launches):
        stalls = launch["stalls"]
        total = 0.0
        for c in components:
            total += stalls[c]
        if total != launch["body_cycles"]:
            raise CheckFailed(f"{app}: launch {i} stalls sum to {total}, "
                              f"body is {launch['body_cycles']} cycles")


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
def replies_ok(total: int, failures: Sequence[tuple]) -> None:
    """Every reply is a 200; ``failures`` lists (key, status) of others."""
    if failures:
        key, status = failures[0]
        raise CheckFailed(f"{len(failures)} of {total} replies not 200, "
                          f"first: {status} for {key}")


def replies_identical(bodies: Mapping[str, List[bytes]]) -> None:
    """All replies to one request are byte-identical.

    ``bodies`` maps each request to the distinct bodies it received.
    """
    for key, seen in bodies.items():
        if any(b != seen[0] for b in seen[1:]):
            raise CheckFailed(f"{key}: replies differ between requests")
        body = json.loads(seen[0])
        if body.get("status") != "ok":
            raise CheckFailed(f"{key}: response status {body.get('status')}")


def cold_executions(executions: int, distinct: int) -> None:
    """Coalescing: one execution per distinct cold request."""
    if executions != distinct:
        raise CheckFailed(f"{executions} cold executions for {distinct} "
                          "distinct requests")


def stats_match(server: Mapping[str, int], client: Mapping[str, int]) -> None:
    """The daemon's totals equal what the client counted."""
    for field, value in client.items():
        if server.get(field) != value:
            raise CheckFailed(f"/v1/stats {field}={server.get(field)}, "
                              f"client counted {value}")


def all_checks() -> Dict[str, object]:
    """Name -> check, for the benchmark's own tests."""
    return {name: fn for name, fn in globals().items()
            if callable(fn) and getattr(fn, "__module__", "") == __name__
            and not name.startswith("_")
            and name not in ("all_checks", "attempt", "lru_misses",
                             "svd_explained")
            and not isinstance(fn, type)}
