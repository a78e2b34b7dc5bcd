"""Seeded Monte Carlo experiment harness: instance ensembles, tree-size
statistics, and the finite-size extrapolation of the growth exponent omega.

Seeds are derived per (N, trial) by hashing, so results are reproducible and
independent of thread scheduling; records merge in deterministic key order.
"""

import csv
import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import dpll, native
from .cnf import check_alpha0, generate_random_instance
from .dpll import GUC, check_heuristic
from .trajectory import GPoint


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit stream seed for a labelled subtask."""
    text = repr((base_seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


@dataclass
class EnsembleConfig:
    alpha0: float
    n_values: Sequence[int]
    trials_per_n: int
    base_seed: int = 0
    heuristic: str = GUC
    parallelism: Optional[int] = None   # pool threads; None: usable CPUs

    def __post_init__(self):
        check_alpha0(self.alpha0)
        self.n_values = tuple(int(n) for n in self.n_values)
        if not self.n_values:
            raise ValueError("n_values must name at least one N")
        if min(self.n_values) < 3:
            raise ValueError(f"every N must be >= 3, got {min(self.n_values)}")
        if any(b <= a for a, b in zip(self.n_values, self.n_values[1:])):
            raise ValueError("n_values must be strictly increasing")
        if self.trials_per_n < 1:
            raise ValueError("trials_per_n must be >= 1")
        check_heuristic(self.heuristic)
        if self.parallelism is not None and self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass
class RunRecord:
    n_vars: int
    trial: int
    seed: int
    result: str
    q_splits: int
    b_leaves: int
    runtime_s: float
    g_p: Optional[float] = None
    g_alpha: Optional[float] = None
    g_t: Optional[float] = None


_CSV_FIELDS = ["n_vars", "trial", "seed", "result", "q_splits", "b_leaves",
               "runtime_s", "g_p", "g_alpha", "g_t"]


def _run_trial(config: EnsembleConfig, n: int, trial: int) -> RunRecord:
    gen_seed = derive_seed(config.base_seed, "gen", n, trial)
    solve_seed = derive_seed(config.base_seed, "solve", n, trial)
    instance = generate_random_instance(n, 0, int(round(config.alpha0 * n)),
                                        gen_seed)
    start = time.perf_counter()
    stats = dpll.solve(instance, config.heuristic, solve_seed, record_cloud=False)
    elapsed = time.perf_counter() - start
    # the g-node's (p, alpha, t), or None for each without one
    return RunRecord(n, trial, solve_seed, stats.result, stats.q_splits,
                     stats.b_leaves, elapsed, *(stats.g_node or (None,) * 3))


def run_ensemble(config: EnsembleConfig) -> List[RunRecord]:
    """One fresh instance and one solve per (N, trial), deterministic under a
    fixed base seed whatever the thread count (write_records_csv saves
    them).  The trials run on a pool of at most native.usable_cpus() threads
    and one per trial, however many `parallelism` asks for: each draw and
    search is a kernel call that releases the GIL (the Python reference
    holds it, so without the kernel the trials share one core).  They are
    queued largest N first, so the longest solves do not start last and
    leave threads idle; runtime_s may include waits for the GIL.  The
    library is loaded before the pool starts, so that its threads do not
    race to build it."""
    native.load()
    usable = native.usable_cpus()
    keys = [(n, trial) for n in reversed(config.n_values)
            for trial in range(config.trials_per_n)]
    pool = ThreadPoolExecutor(min(config.parallelism or usable, usable, len(keys)))
    try:
        records = list(pool.map(lambda key: _run_trial(config, *key), keys))
    finally:
        pool.shutdown(cancel_futures=True)
    records.sort(key=lambda r: (r.n_vars, r.trial))
    return records


def write_records_csv(records: Iterable[RunRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_FIELDS)
        for r in records:
            w.writerow([r.n_vars, r.trial, r.seed, r.result, r.q_splits,
                        r.b_leaves, "%.6f" % r.runtime_s,
                        "" if r.g_p is None else repr(r.g_p),
                        "" if r.g_alpha is None else repr(r.g_alpha),
                        "" if r.g_t is None else repr(r.g_t)])


def read_records_csv(path: str) -> List[RunRecord]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(RunRecord(
                int(row["n_vars"]), int(row["trial"]), int(row["seed"]),
                row["result"], int(row["q_splits"]), int(row["b_leaves"]),
                float(row["runtime_s"]),
                float(row["g_p"]) if row["g_p"] else None,
                float(row["g_alpha"]) if row["g_alpha"] else None,
                float(row["g_t"]) if row["g_t"] else None))
    return out


@dataclass
class OmegaEstimate:
    omega: float                  # slope of mean log2(Q) vs N, bits/variable
    std_error: float
    n_values: Tuple[int, ...]
    intercept: float
    per_n_mean: Dict[int, float]
    per_n_median: Dict[int, float]
    per_n_stderr: Dict[int, float]
    residuals: Dict[int, float]
    trials_per_n: Dict[int, int]


def extrapolate_omega(records: Sequence[RunRecord], min_n_count: int = 3,
                      min_trials: int = 20) -> OmegaEstimate:
    """Weighted linear fit of the per-N mean of log2(Q) against N; the slope
    estimates omega and the intercept absorbs the subexponential prefactor."""
    by_n: Dict[int, List[float]] = {}
    for r in records:
        by_n.setdefault(r.n_vars, []).append(math.log2(max(r.q_splits, 1)))
    ns = sorted(by_n)
    if len(ns) < min_n_count:
        raise ValueError(f"need at least {min_n_count} distinct N values")
    for n in ns:
        if len(by_n[n]) < min_trials:
            raise ValueError(f"need at least {min_trials} trials at N={n}")
    mean = {}
    med = {}
    se = {}
    counts = {}
    weights = {}
    for n in ns:
        xs = sorted(by_n[n])
        k = len(xs)
        m = sum(xs) / k
        var = sum((x - m) ** 2 for x in xs) / (k - 1) if k > 1 else 0.0
        mean[n] = m
        med[n] = xs[k // 2] if k % 2 else 0.5 * (xs[k // 2 - 1] + xs[k // 2])
        se[n] = math.sqrt(var / k)
        counts[n] = k
        weights[n] = k / max(var, 1e-12)
    sw = sum(weights.values())
    xbar = sum(weights[n] * n for n in ns) / sw
    ybar = sum(weights[n] * mean[n] for n in ns) / sw
    sxx = sum(weights[n] * (n - xbar) ** 2 for n in ns)
    sxy = sum(weights[n] * (n - xbar) * (mean[n] - ybar) for n in ns)
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    resid = {n: mean[n] - (intercept + slope * n) for n in ns}
    slope_se = math.sqrt(1.0 / sxx)
    return OmegaEstimate(slope, slope_se, tuple(ns), intercept, mean, med, se,
                         resid, counts)


@dataclass
class GMeasurement:
    g: GPoint
    n_runs: int                  # backtracking sat runs entering the average
    n_total: int
    se_p: float
    se_alpha: float
    se_t: float


def measure_g_point(records: Sequence[RunRecord]) -> GMeasurement:
    """Average highest-backtracking-node coordinates over the sat runs among
    `records`, which should share one N.

    The g-node of a sat run with backtracking estimates the point G where
    the branch trajectory enters the unsat phase.
    """
    picked = [r for r in records if r.result == "sat" and r.g_p is not None]
    if not picked:
        raise ValueError("no backtracking sat runs to average")
    k = len(picked)

    def avg_se(xs):
        m = sum(xs) / k
        var = sum((x - m) ** 2 for x in xs) / (k - 1) if k > 1 else 0.0
        return m, math.sqrt(var / k)
    p, se_p = avg_se([r.g_p for r in picked])
    a, se_a = avg_se([r.g_alpha for r in picked])
    t, se_t = avg_se([r.g_t for r in picked])
    return GMeasurement(GPoint(t, p, a), k, len(records), se_p, se_a, se_t)
