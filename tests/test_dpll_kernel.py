"""Differential tests of the compiled DPLL kernel against the Python loops.

The kernel must reproduce the reference search bit for bit: equal SolveStats
(result, counters, cloud, g-node, assignment) on every (instance, seed)
pair, equal leaf counts from a batch of searches, and equal generated
instances.  One kernel search call over many seeds, seeded 16 at a time
and split into seed ranges on any number of threads, must give each seed
what a call with that seed alone gives.  Without a C compiler the comparison
cannot run and the module skips; with one, a kernel that fails to build
fails the tests.
"""

import contextlib
import ctypes
import os
import random
import subprocess
import sys
import warnings

import pytest

from common import I1, I2, I3
from satgrowth import dpll, native, oracle
from satgrowth.cnf import MAX_VARS, generate_random_instance


def _python_solve(solver, seed, reference, record_cloud=True):
    with reference():
        return solver.solve(seed, record_cloud=record_cloud)


def _assert_same(solver, seeds, reference, record_cloud=True):
    for seed in seeds:
        got = solver.solve(seed, record_cloud=record_cloud)
        want = _python_solve(solver, seed, reference, record_cloud)
        assert got == want, (solver.instance, solver.heuristic, seed)


def test_random_stream_matches_python(kernel):
    # blocks of 1, 2, 15 and 16 lanes seeded at once, each lane across
    # several regenerations of its state.  The key-length edge seeds sit
    # between mixed ones, so one- and two-word keys share blocks at every
    # width.
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    pool = [dpll._mix_seed(s) for s in range(11)]
    for k, seed in enumerate(edges):
        pool.insert(2 * k + 1, seed)
    draws = 2000
    for width in (1, 2, 15, 16):
        for lo in range(0, len(pool), width):
            seeds = pool[lo:lo + width]
            got = (ctypes.c_double * (len(seeds) * draws))()
            kernel.sg_random((ctypes.c_uint64 * len(seeds))(*seeds), len(seeds),
                             draws, got)
            for lane, seed in enumerate(seeds):
                rng = random.Random(seed)
                assert got[lane * draws:(lane + 1) * draws] == \
                    [rng.random() for _ in range(draws)], (width, lane, seed)


def _generated(reference, *args):
    """(kernel, reference) buffers of generate_random_instance(*args)."""
    got = generate_random_instance(*args)
    with reference():
        want = generate_random_instance(*args)
    return ((got.n_vars, got.lits, got.starts), (want.n_vars, want.lits, want.starts))


def test_generator_matches_reference(kernel, reference):
    # one-, two- and three-word seeds, negative ones, and n_vars on both
    # sides of the powers of two where randrange's rejection rate jumps
    seeds = (0, 1, -7, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 5)
    compared = 0
    for seed in seeds:
        for n in (2, 3, 4, 31, 32, 33, 64, 65):
            shapes = [(6, 0), (0, 0)] + ([(0, 9), (4, 7)] if n >= 3 else [])
            for n2, n3 in shapes:
                got, want = _generated(reference, n, n2, n3, seed)
                assert got == want, (seed, n, n2, n3)
                assert len(got[2]) == n2 + n3 + 1
                compared += 1
    assert compared == 7 * (2 + 7 * 4)
    # the largest instances the int32 literals hold, and a long stream
    for n in (MAX_VARS - 1, MAX_VARS):
        got, want = _generated(reference, n, 3, 3, 11)
        assert got == want, n
    got, want = _generated(reference, 250, 0, 2500, 2**40 + 3)
    assert got == want


def test_generator_rejects_bad_arguments(kernel, reference):
    for ctx in (contextlib.nullcontext, reference):
        with ctx():
            with pytest.raises(ValueError, match="at most"):
                generate_random_instance(MAX_VARS + 1, 0, 3, 0)
            with pytest.raises(ValueError, match="offsets"):
                generate_random_instance(10, 2, 2**31 // 3, 0)
            with pytest.raises(TypeError):
                generate_random_instance(10, 0, 3, 1.5)


def _solves(solver, seeds):
    return [solver.solve(s, record_cloud=False).b_leaves for s in seeds]


def test_leaf_counts_match_solves(kernel, reference):
    # the toy instances and random N = 3..12 mixes, sat ones included: the
    # batch equals one solve per seed, on the kernel and on the reference
    instances = [I1, I2, I3]
    for i in range(20):
        n = 3 + i % 10
        instances.append(generate_random_instance(
            n, i % 3, int(round((1.5 + (i % 7) * 1.2) * n)), 38000 + i))
    sat_seen = set()
    for inst in instances:
        for h in dpll.HEURISTICS:
            solver = dpll.DpllSolver(inst, h)
            seeds = range(40)
            got = list(solver.leaf_counts(seeds))
            assert got == _solves(solver, seeds), (inst, h)
            with reference():
                assert list(solver.leaf_counts(iter(seeds))) == got, (inst, h)
            sat_seen.add(solver.solve(0).result)
    assert sat_seen == {"sat", "unsat"}


def test_leaf_counts_batches(kernel, monkeypatch):
    # one kernel call per LEAF_BATCH seeds, across the batch edges
    calls = []
    search = native.search

    def spy(lib, n_vars, lits, start, heuristic, mixed_seeds, record_cloud):
        calls.append(len(mixed_seeds))
        return search(lib, n_vars, lits, start, heuristic, mixed_seeds, record_cloud)
    monkeypatch.setattr(native, "search", spy)
    inst = generate_random_instance(9, 2, 40, 39000)
    batch = dpll.LEAF_BATCH
    for h in dpll.HEURISTICS:
        solver = dpll.DpllSolver(inst, h)
        for count in (0, 1, batch - 1, batch, batch + 1):
            seeds = [7 * k + count for k in range(count)]
            want = _solves(solver, seeds)  # one search call per seed
            calls.clear()
            assert list(solver.leaf_counts(seeds)) == want
            assert calls == [batch] * (count // batch) + [count % batch] * (count % batch > 0)


def test_search_batch_rows_match_single_seed_calls(kernel):
    # one call over many seeds gives each seed the row, the assignment bytes
    # and the cloud triples of a call with that seed alone
    instances = [I1, I2, I3] + [generate_random_instance(n, 2, 4 * n, 39200 + n)
                                for n in (6, 9, 12, 20)]
    seeds = [dpll._mix_seed(s) for s in range(24)]
    results = set()
    for inst in instances:
        for h in dpll.HEURISTICS:
            args = (kernel, inst.n_vars, inst.lits, inst.starts, h)
            rows, values, cloud = native.search(*args, seeds, True)
            n = inst.n_vars
            assert len(rows) == 6 * len(seeds) and len(values) == n * len(seeds)
            offset = 0
            for i, seed in enumerate(seeds):
                row, value, points = native.search(*args, [seed], True)
                assert rows[6 * i:6 * i + 6] == row, (inst, h, i)
                assert values[n * i:n * i + n] == value, (inst, h, i)
                assert cloud[offset:offset + row[1]] == points, (inst, h, i)
                offset += row[1]
                results.add(row[0])
            assert offset == len(cloud)
    assert results == {0, 1}


# thread counts of the search batches under test, whatever the host's core
# count: one, an even and an odd split
_THREADS = (1, 2, 3)


def test_search_lanes_and_ranges_match_single_seed_calls(kernel, monkeypatch):
    # batches seeded 16 at a time and split into seed ranges give each seed
    # what the one-seed path (seeded alone) gives.  The batch sizes cross
    # the block and range edges; the five key-length edge seeds, one- and
    # two-word keys side by side, sit in the first block of every batch of
    # 16 or more, and in the tail of the shorter ones.
    sizes = (0, 1, 15, 16, 17, 63, 64, 65, 129, dpll.LEAF_BATCH)
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    seeds = [dpll._mix_seed(s) for s in range(dpll.LEAF_BATCH)]
    seeds[3:3 + len(edges)] = edges
    instances = [I1, I3, generate_random_instance(8, 0, 60, 39300),
                 generate_random_instance(12, 2, 30, 39301)]
    results = set()
    for inst in instances:
        n = inst.n_vars
        for h in dpll.HEURISTICS:
            args = (kernel, n, inst.lits, inst.starts, h)
            single = [native.search(*args, [seed], True) for seed in seeds]
            results.update(row[0] for row, _, _ in single)
            for threads in _THREADS:
                monkeypatch.setattr(kernel, "threads", threads)
                for size in sizes:
                    for record_cloud in (True, False):
                        rows, values, cloud = native.search(*args, seeds[:size],
                                                            record_cloud)
                        assert len(rows) == 6 * size and len(values) == n * size
                        offset = 0
                        for i, (row, value, points) in enumerate(single[:size]):
                            where = (inst, h, threads, size, record_cloud, i)
                            assert rows[6 * i:6 * i + 6] == row, where
                            assert values[n * i:n * i + n] == value, where
                            if record_cloud:
                                assert cloud[offset:offset + row[1]] == points, where
                            offset += row[1]
                        assert len(cloud) == (offset if record_cloud else 0)
    assert results == {0, 1}


def test_search_splits_batches_into_ranges(kernel, monkeypatch):
    # a batch makes one kernel call per seed range: one range per
    # THREAD_SEEDS seeds, up to the library's bound count, cut at multiples
    # of the kernel's seed block; a call that records the cloud is one
    # range.  The other threads end with the call
    assert kernel.threads == native.usable_cpus()
    tasks = "/proc/self/task"
    inst = generate_random_instance(8, 0, 60, 39300)
    args = (kernel, 8, inst.lits, inst.starts, "GUC")
    seeds = [dpll._mix_seed(s) for s in range(dpll.LEAF_BATCH)]
    calls = []
    search = kernel.sg_search

    def spy(*argv):
        calls.append(argv[5])  # the seed count
        return search(*argv)
    monkeypatch.setattr(kernel, "sg_search", spy)
    monkeypatch.setattr(kernel, "threads", 3)
    before = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    ranges = []
    for size in (1, 63, 128, 1024):
        calls.clear()
        native.search(*args, seeds[:size], False)
        ranges.append(sorted(calls))
    assert ranges == [[1], [63], [64, 64], [336, 336, 352]]
    calls.clear()
    native.search(*args, seeds[:1024], True)
    assert calls == [1024]
    if before is not None:
        assert len(os.listdir(tasks)) == before


def test_unsatisfying_assignment_raises():
    # the kernel's check of a sat assignment reports as the reference's does
    with pytest.raises(AssertionError, match="non-satisfying assignment"):
        native._check(-3)


def test_monte_carlo_mean_matches_reference(kernel, reference):
    cases = [(I3, h, 500, 7) for h in dpll.HEURISTICS]
    inst = generate_random_instance(8, 0, 60, 39100)
    cases += [(inst, h, dpll.LEAF_BATCH + 1, 11) for h in dpll.HEURISTICS]
    for args in cases:
        got = oracle.monte_carlo_leaf_mean(*args)
        with reference():
            assert oracle.monte_carlo_leaf_mean(*args) == got, args[1:]


def test_monte_carlo_mean_independent_of_threads(kernel, monkeypatch):
    # the same mean and SE on one thread as on the library's bound count
    inst = generate_random_instance(8, 0, 60, 39100)
    for h in dpll.HEURISTICS:
        args = (inst, h, 2 * dpll.LEAF_BATCH + 100, 13)
        bound = oracle.monte_carlo_leaf_mean(*args)
        with monkeypatch.context() as m:
            m.setattr(kernel, "threads", 1)
            assert oracle.monte_carlo_leaf_mean(*args) == bound, h


def test_toy_instances_match(kernel, reference):
    # unit clauses (I1) and a tautological pair (I3) included
    for inst in (I1, I2, I3):
        for h in dpll.HEURISTICS:
            _assert_same(dpll.DpllSolver(inst, h), range(100), reference)


def test_random_instances_match(kernel, reference):
    # 2+p mixes from easy sat to unsat, N from 3 to 60: 1200 pairs, and an
    # N=30 mix solved with seed 7: 3 pairs
    pairs = 0
    for i in range(400):
        n = 3 + i % 58
        n2 = (i * 7) % (n + 1)
        n3 = int(round((1.0 + (i % 11) * 0.5) * n)) - n2 // 2
        inst = generate_random_instance(n, n2, max(n3, 0), 31000 + i)
        for h in dpll.HEURISTICS:
            _assert_same(dpll.DpllSolver(inst, h), [i], reference,
                         record_cloud=i % 2 == 0)
            pairs += 1
    inst = generate_random_instance(30, 5, 120, 33000)
    for h in dpll.HEURISTICS:
        _assert_same(dpll.DpllSolver(inst, h), [7], reference)
        pairs += 1
    assert pairs == 1203


def test_alpha10_guc_match(kernel, reference):
    for n, seed in ((100, 1), (100, 2), (150, 3), (200, 4), (300, 5)):
        inst = generate_random_instance(n, 0, 10 * n, 32000 + n + seed)
        solver = dpll.DpllSolver(inst, dpll.GUC)
        _assert_same(solver, [seed], reference)


def test_compiled_path_builds_no_reference_state(kernel, reference):
    inst = generate_random_instance(60, 10, 240, 37000)
    for h in dpll.HEURISTICS:
        solver = dpll.DpllSolver(inst, h)
        got = solver.solve(5)
        # the kernel read the instance's buffers; no Python-side state exists
        assert solver.occ is None
        assert not hasattr(solver, "clause_lits") and not hasattr(solver, "lives")
        solver.reset(5)
        assert len(solver.occ) == 2 * inst.n_vars and len(solver.lives[3]) == 240
        assert _python_solve(solver, 5, reference) == got


def test_fallback_without_compiler(kernel, fresh_load):
    inst = generate_random_instance(40, 10, 150, 34000)
    compiled = [dpll.solve(inst, h, 3) for h in dpll.HEURISTICS]
    native.load.cache_clear()
    fresh_load.setattr(native, "_compiler", lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = [dpll.solve(inst, h, 3) for h in dpll.HEURISTICS]
    assert fallback == compiled
    assert len(caught) == 1 and "no C compiler" in str(caught[0].message)


def test_failed_builds_fall_back_with_one_warning(kernel, fresh_load, tmp_path):
    inst = generate_random_instance(20, 0, 80, 35000)
    want = dpll.solve(inst, dpll.GUC, 1)
    blocked = tmp_path / "not-a-directory"
    blocked.write_text("")
    bad_source = tmp_path / "dpll_kernel.c"
    bad_source.write_text("this is not C\n")
    for attr, value, reason in (("XDG_CACHE_HOME", str(blocked), "cannot build"),
                                ("SOURCES", bad_source, "compiling")):
        native.load.cache_clear()
        with fresh_load.context() as m:
            if attr == "SOURCES":
                m.setattr(native, "SOURCES", (value, *native.SOURCES[1:]))
                m.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
            else:
                m.setenv(attr, value)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = [dpll.solve(inst, dpll.GUC, 1) for _ in range(2)]
        assert got == [want, want]
        assert len(caught) == 1 and reason in str(caught[0].message)
    assert not list((tmp_path / "cache" / "satgrowth").iterdir())


_COLD_BUILD = """
from satgrowth import dpll, native
from satgrowth.cnf import generate_random_instance
assert native.load() is not None
s = dpll.solve(generate_random_instance(60, 0, 400, 36000), "GUC", 2)
print(s.result, s.q_splits, s.b_leaves, s.g_node)
"""


def test_concurrent_cold_cache_builds(kernel, tmp_path):
    # more builders than cores race on one empty cache: each must load a
    # complete library, and exactly one published file remains
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.path.dirname(os.path.dirname(dpll.__file__)))
    procs = [subprocess.Popen([sys.executable, "-c", _COLD_BUILD], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for _ in range(3)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0], [err for _, err in outs]
    assert len({out for out, _ in outs}) == 1
    names = [f.name for f in (tmp_path / "satgrowth").iterdir()]
    assert len(names) == 1 and names[0].startswith("kernels-"), names


def test_rebuilds_keep_older_kernels(kernel, tmp_path, monkeypatch):
    # building an edited source publishes a library under a new name beside
    # the build of the old sources, so checkouts of different sources that
    # share one cache reuse their own builds instead of compiling again
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    cc = native._compiler()
    sources = native.SOURCES
    edited = tmp_path / sources[0].name
    edited.write_bytes(sources[0].read_bytes() + b"\n/* edited */\n")
    first = native._build(cc)
    monkeypatch.setattr(native, "SOURCES", (edited, *sources[1:]))
    second = native._build(cc)
    assert first != second and first.exists() and second.exists()
    assert native._build(cc) == second
    monkeypatch.setattr(native, "SOURCES", sources)
    assert native._build(cc) == first
    names = sorted(f.name for f in (tmp_path / "cache" / "satgrowth").iterdir())
    assert names == sorted([first.name, second.name]), names
