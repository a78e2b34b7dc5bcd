"""Seeded Monte Carlo experiment harness: instance ensembles, tree-size
statistics, and the finite-size extrapolation of the growth exponent omega.

Seeds are derived per (N, trial) by hashing, so results are reproducible and
independent of worker scheduling; records merge in deterministic key order.
"""

import csv
import hashlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
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
    parallelism: Optional[int] = None   # worker processes; None: usable CPUs

    def __post_init__(self):
        check_alpha0(self.alpha0)
        self.n_values = tuple(int(n) for n in self.n_values)
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


def _run_block(args) -> List[RunRecord]:
    alpha0, heuristic, n, t0, t1, base_seed = args
    out = []
    n3 = int(round(alpha0 * n))
    for trial in range(t0, t1):
        gen_seed = derive_seed(base_seed, "gen", n, trial)
        solve_seed = derive_seed(base_seed, "solve", n, trial)
        instance = generate_random_instance(n, 0, n3, gen_seed)
        start = time.perf_counter()
        stats = dpll.solve(instance, heuristic, solve_seed, record_cloud=False)
        elapsed = time.perf_counter() - start
        g = stats.g_node
        out.append(RunRecord(n, trial, solve_seed, stats.result, stats.q_splits,
                             stats.b_leaves, elapsed,
                             None if g is None else g.p,
                             None if g is None else g.alpha,
                             None if g is None else g.t))
    return out


def run_ensemble(config: EnsembleConfig) -> List[RunRecord]:
    """One fresh instance and one solve per (N, trial); deterministic under a
    fixed base seed regardless of the worker count (write_records_csv saves
    them).  The pool has at most native.usable_cpus() workers, however many
    `parallelism` asks for.  Blocks go to the pool largest N first, so the
    longest solves do not start last and leave workers idle at the end.
    The compiled library is loaded here, before the pool forks, so every
    worker inherits it instead of loading (or, with a cold cache, compiling)
    its own."""
    native.load()
    usable = native.usable_cpus()
    workers = min(config.parallelism or usable, usable)
    blocks = []
    for n in reversed(config.n_values):
        step = max(1, math.ceil(config.trials_per_n / (4 * workers)))
        for t0 in range(0, config.trials_per_n, step):
            blocks.append((config.alpha0, config.heuristic, n, t0,
                           min(t0 + step, config.trials_per_n), config.base_seed))
    if workers > 1 and len(blocks) > 1:
        # the pool forks all of its workers up front, so none beyond the blocks
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            results = list(pool.map(_run_block, blocks))
    else:
        results = [_run_block(b) for b in blocks]
    records = [rec for block in results for rec in block]
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
