import hashlib
import os
import random
import time

import pytest

from satgrowth import ensemble, native
from satgrowth.ensemble import (EnsembleConfig, GMeasurement, RunRecord,
                                derive_seed, extrapolate_omega,
                                measure_g_point, read_records_csv,
                                run_ensemble, write_records_csv)


def _strip_runtime(records):
    return [(r.n_vars, r.trial, r.seed, r.result, r.q_splits, r.b_leaves,
             r.g_p, r.g_alpha, r.g_t) for r in records]


def test_seed_derivation_stable():
    assert derive_seed(7, "gen", 100, 3) == derive_seed(7, "gen", 100, 3)
    assert derive_seed(7, "gen", 100, 3) != derive_seed(7, "gen", 100, 4)
    assert derive_seed(7, "gen", 100, 3) != derive_seed(8, "gen", 100, 3)


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(4.3, [30, 20], 10)
    with pytest.raises(ValueError):
        EnsembleConfig(4.3, [20, 30], 0)
    with pytest.raises(ValueError):
        EnsembleConfig(4.3, [20], 5, heuristic="nope")
    with pytest.raises(ValueError):
        EnsembleConfig(4.3, [20], 5, parallelism=0)
    # no N at all, and N too small for a 3-clause, fail before any pool
    with pytest.raises(ValueError, match="at least one N"):
        EnsembleConfig(4.3, [], 5)
    for n_values in ([2], [2, 20], [-1, 20], [0]):
        with pytest.raises(ValueError, match="every N must be >= 3"):
            EnsembleConfig(4.3, n_values, 5)
    assert EnsembleConfig(4.3, [3], 5).n_values == (3,)
    for alpha0 in (0.0, -3.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="alpha0 must be positive"):
            EnsembleConfig(alpha0, [20], 5)


def test_worker_count_independent():
    # the same records on 1, 2 and 3 threads; the pool joins its threads
    # before run_ensemble returns, but CPython marks a joined thread done
    # just before the thread exits, so its /proc entry may linger a moment
    tasks = "/proc/self/task"
    before = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    base = dict(alpha0=5.0, n_values=[14, 18], trials_per_n=20, base_seed=9)
    seq = run_ensemble(EnsembleConfig(**base, parallelism=1))
    for parallelism in (2, 3):
        par = run_ensemble(EnsembleConfig(**base, parallelism=parallelism))
        assert _strip_runtime(seq) == _strip_runtime(par), parallelism
    if before is not None:
        deadline = time.monotonic() + 5.0
        while len(os.listdir(tasks)) != before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(os.listdir(tasks)) == before


def test_kernel_loaded_before_the_pool_forks(fresh_load):
    # run_ensemble loads the DPLL kernel once, before its pool starts; the
    # records keep the digest they had when each worker process loaded its
    # own kernel and instances were drawn in Python
    fresh_load.setattr(native, "usable_cpus", lambda: 2)
    base = dict(alpha0=5.0, n_values=[14, 18], trials_per_n=6, base_seed=4)
    records = run_ensemble(EnsembleConfig(**base, parallelism=2))
    assert native.load.cache_info().currsize == 1
    rows = repr(_strip_runtime(records)).encode()
    assert hashlib.blake2b(rows, digest_size=8).hexdigest() == "30c03e782c739926"
    assert _strip_runtime(run_ensemble(EnsembleConfig(**base, parallelism=1))) \
        == _strip_runtime(records)


def test_pool_sized_by_blocks(monkeypatch):
    # one task per (N, trial): the pool is never larger than the trials or
    # the usable CPUs, however many threads `parallelism` asks for
    sizes = []
    pool_type = ensemble.ThreadPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return pool_type(max_workers)
    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", recording_pool)
    base = dict(alpha0=5.0, n_values=[10, 11], trials_per_n=3, base_seed=2)
    serial = _strip_runtime(run_ensemble(EnsembleConfig(**base, parallelism=1)))
    # this host's CPUs, and stand-ins for a 2-CPU and a 64-CPU host
    for cpus in (native.usable_cpus(), 2, 64):
        monkeypatch.setattr(native, "usable_cpus", lambda: cpus)
        for parallelism, want in ((None, min(6, cpus)), (5000, min(6, cpus)),
                                  (4, min(4, cpus))):
            sizes.clear()
            records = run_ensemble(EnsembleConfig(**base, parallelism=parallelism))
            assert sizes == [want], (cpus, parallelism)
            assert _strip_runtime(records) == serial, (cpus, parallelism)
    sizes.clear()
    run_ensemble(EnsembleConfig(5.0, [10], 1, parallelism=8))
    assert sizes == [1]


def test_blocks_run_largest_n_first(monkeypatch):
    # trials are queued largest N first, and the records come back sorted
    seen = []
    run_trial = ensemble._run_trial

    def spy(config, n, trial):
        seen.append((n, trial))
        return run_trial(config, n, trial)
    monkeypatch.setattr(ensemble, "_run_trial", spy)
    records = run_ensemble(EnsembleConfig(5.0, [10, 12, 14], 4, parallelism=1))
    assert seen == [(n, t) for n in (14, 12, 10) for t in range(4)]
    keys = [(r.n_vars, r.trial) for r in records]
    assert keys == sorted(keys) == sorted(seen)


def test_records_csv_roundtrip(tmp_path):
    path = str(tmp_path / "recs.csv")
    records = run_ensemble(EnsembleConfig(5.0, [12], 10, base_seed=1,
                                          parallelism=1))
    write_records_csv(records, path)
    back = read_records_csv(path)
    assert _strip_runtime(back) == _strip_runtime(records)


def test_extrapolate_recovers_synthetic_slope():
    rng = random.Random(3)
    records = []
    slope, intercept = 0.05, 2.0
    for n in (50, 100, 150, 200):
        for trial in range(200):
            logq = slope * n + intercept + rng.gauss(0.0, 0.8)
            records.append(RunRecord(n, trial, 0, "unsat",
                                     max(1, round(2 ** logq)), 2, 0.0))
    est = extrapolate_omega(records)
    assert abs(est.omega - slope) < 4 * est.std_error + 1e-3
    assert abs(est.intercept - intercept) < 0.3
    assert est.trials_per_n == {50: 200, 100: 200, 150: 200, 200: 200}


def test_extrapolate_shuffle_invariant():
    rng = random.Random(5)
    records = []
    for n in (30, 60, 90):
        for trial in range(40):
            records.append(RunRecord(n, trial, 0, "unsat",
                                     rng.randrange(1, 500), 2, 0.0))
    a = extrapolate_omega(records)
    shuffled = records[:]
    rng.shuffle(shuffled)
    b = extrapolate_omega(shuffled)
    assert a.omega == b.omega and a.intercept == b.intercept


def test_extrapolate_preconditions():
    records = [RunRecord(20, i, 0, "unsat", 5, 6, 0.0) for i in range(30)]
    with pytest.raises(ValueError):
        extrapolate_omega(records)  # only one N
    records += [RunRecord(30, i, 0, "unsat", 5, 6, 0.0) for i in range(30)]
    records += [RunRecord(40, i, 0, "unsat", 5, 6, 0.0) for i in range(5)]
    with pytest.raises(ValueError):
        extrapolate_omega(records)  # too few trials at N=40


def test_measure_g_point_smoke():
    gm = measure_g_point(run_ensemble(
        EnsembleConfig(3.5, [60], 60, base_seed=4, parallelism=1)))
    assert isinstance(gm, GMeasurement)
    assert gm.n_runs > 20
    assert 0.0 < gm.g.t_g < 0.6
    assert 0.3 < gm.g.p_g < 1.0
    assert 1.5 < gm.g.alpha_g < 3.6


def test_empirical_g_matches_trajectory_crossing():
    # the averaged highest-backtracking node sits near the crossing of the
    # branch trajectory with a critical line anchored at the known point;
    # the alpha average carries a finite-size bias of a few percent downward
    from satgrowth.trajectory import CriticalLine, find_g
    gm = measure_g_point(run_ensemble(
        EnsembleConfig(3.5, [150], 300, base_seed=21, parallelism=2)))
    pred = find_g(3.5, "GUC", CriticalLine([(0.78, 3.02), (1.0, 4.3)]))
    assert abs(gm.g.p_g - pred.p_g) < 0.04
    assert abs(gm.g.alpha_g - pred.alpha_g) < 0.10
    assert abs(gm.g.t_g - pred.t_g) < 0.04
