"""Annealed clause-vector chain: the transition rows of tests/common.py,
the vectorized engine against them, golden mass curves, and the compiled
passes against the numpy reference.

The differential tests need gcc to build the compiled library and skip
without it; with gcc present, a library that fails to build fails them.
"""

import collections
import contextlib
import hashlib
import math
import os
import warnings

import numpy as np
import pytest

from common import guc_transition_row
from satgrowth import annealed, growth, native
from satgrowth.annealed import (BranchCountField, annealed_omega_estimate,
                                mass_curve)
from satgrowth.cnf import ClauseVector


def _binom(n, k):
    return math.comb(n, k)


def test_row_weights_match_multinomial_product():
    # split row: weights equal the binomial-multinomial product, fully
    # enumerated over touched 3-clauses (m, of which w2 become 2-clauses)
    # and touched 2-clauses (z2, of which w1 become unit clauses)
    c2p, c3p = 3, 10
    T, N = 0, 50
    n = N - T
    expected = {}
    for m in range(c3p + 1):
        pm = _binom(c3p, m) * (3 / n) ** m * (1 - 3 / n) ** (c3p - m)
        for w2 in range(m + 1):
            pw2 = pm * 0.5 ** m * _binom(m, w2)
            for z2 in range(c2p):
                pz = pw2 * _binom(c2p - 1, z2) * (2 / n) ** z2 \
                    * (1 - 2 / n) ** (c2p - 1 - z2)
                for w1 in range(z2 + 1):
                    w = pz * 0.5 ** z2 * _binom(z2, w1)
                    c2_new = c2p - 1 - z2 + w2
                    c3_new = c3p - m
                    for c1_new in (w1, w1 + 1):
                        key = (c1_new, c2_new, c3_new)
                        expected[key] = expected.get(key, 0.0) + w
    row = dict((tuple(d), w) for d, w in guc_transition_row((0, c2p, c3p), T, N))
    assert set(row) <= set(expected)
    for key, want in expected.items():
        assert abs(row.get(key, 0.0) - want) < 1e-10


def test_row_unit_case_weights():
    # exact weights for a small unit-propagation row
    c1p, c2p, c3p = 2, 1, 0
    T, N = 0, 20
    n = N - T
    row = dict((tuple(d), w) for d, w in guc_transition_row((c1p, c2p, c3p), T, N))
    surv = (1 - 1 / (2 * n)) ** (c1p - 1)
    # z2 = 0: stays (1, 1, 0); z2 = 1: half satisfied, half new unit
    assert abs(row[(1, 1, 0)] - surv * (1 - 2 / n)) < 1e-12
    assert abs(row[(1, 0, 0)] - surv * (2 / n) * 0.5) < 1e-12
    assert abs(row[(2, 0, 0)] - surv * (2 / n) * 0.5) < 1e-12
    assert abs(sum(row.values()) - surv) < 1e-12


def test_row_outflow_totals():
    n = 60
    # split rows emit two children
    for cv in ((0, 4, 30), (0, 1, 0), (0, 0, 25)):
        total = sum(w for _, w in guc_transition_row(cv, 0, n))
        assert abs(total - 2.0) < 1e-9
    # a single unit clause with no partner cannot die
    total = sum(w for _, w in guc_transition_row((1, 0, 0), 0, n))
    assert abs(total - 1.0) < 1e-12
    # unit rows lose exactly the opposite-literal collision probability
    c1 = 5
    total = sum(w for _, w in guc_transition_row((c1, 10, 40), 0, n))
    assert abs(total - (1 - 1 / (2 * n)) ** (c1 - 1)) < 1e-9
    # a satisfied branch has no outflow
    assert guc_transition_row((0, 0, 0), 0, n) == []


def test_row_argument_validation():
    with pytest.raises(ValueError):
        guc_transition_row((0, 0, 10), 10, 10)
    with pytest.raises(ValueError):
        guc_transition_row((-1, 0, 10), 0, 20)


def _backends():
    """("kernel", "numpy") with gcc on PATH, else ("numpy",)."""
    return ("numpy",) if native._compiler() is None else ("kernel", "numpy")


def _backend(name, reference):
    """The context in which the chain runs the `name` backend's passes."""
    return reference() if name == "numpy" else contextlib.nullcontext()


_ROW_TAIL = 1e-15


def _row_step(arr, c2_lo, c3_lo, T, N):
    """One step of the window `arr` as the sum of its cells' reference
    rows: {destination: mass}."""
    want = {}
    for c1, i2, i3 in zip(*np.nonzero(arr)):
        src = (int(c1), c2_lo + int(i2), c3_lo + int(i3))
        for dest, w in guc_transition_row(src, T, N, _ROW_TAIL):
            want[dest] = want.get(dest, 0.0) + w * float(arr[c1, i2, i3])
    return want


def _assert_step_matches_rows(case, want, label):
    """_engine_step on the window of `case` equals `want`, the sum of its
    cells' rows, to 1e-12 of the window's mass, in every cell and in total.
    Returns the step's c2_lo."""
    arr, c2_lo, c3_lo, T, N = case
    out, c2lo, c3lo = annealed._engine_step(arr, c2_lo, c3_lo, T, N, _ROW_TAIL)
    field = BranchCountField(T + 1, out, c2lo, c3lo)
    tol = 1e-12 * arr.sum()
    for dest, w in want.items():
        assert abs(field.get(dest) - w) < tol, (label, dest)
    for dest, w in field.items():
        assert dest in want or w < tol, (label, dest)
    assert abs(field.total_mass() - sum(want.values())) < tol, label
    return c2lo


def _step_cases():
    """(window, c2_lo, c3_lo, T, N) cases: single cells of each kind, two
    of them high enough in C2 that the padded window does not reach C2 = 0;
    random (0, 0, C3) slivers with several live cells, at C3 = 0 and above;
    a random window holding every kind of cell at C3 = 0, where (0, 0, 0)
    sends nothing on, and one above C3 = 0; a two-row window live in C2 on
    both C1 rows, whose split children reach one C1 row past the unit
    field's, so the fields are summed into a fresh array; random windows
    without a unit field; and the slivers of threshold-0 chains, which keep
    every underflowing tail cell."""
    cases = []
    for c1, c2, c3 in ((0, 0, 120), (0, 5, 40), (3, 7, 50), (2, 12, 80),
                       (1, 0, 0), (1, 40, 100), (0, 45, 100)):
        cell = np.zeros((c1 + 1, 1, 1))
        cell[c1, 0, 0] = 1.0
        cases.append((cell, c2, c3, 2, 40))
    rng = np.random.default_rng(7)
    for c3_lo, T, N in ((0, 0, 40), (1, 3, 40), (37, 5, 60), (300, 2, 150),
                        (1480, 20, 150)):
        sliver = rng.random((1, 1, int(rng.integers(4, 12))))
        sliver[rng.random(sliver.shape) < 0.3] = 0.0
        sliver[0, 0, -1] = sliver[0, 0, 0] = 0.5
        cases.append((sliver, 0, c3_lo, T, N))
    cases.append((rng.random((3, 4, 6)), 0, 0, 3, 40))
    cases.append((rng.random((3, 4, 6)), 0, 25, 4, 60))
    cases.append((rng.random((2, 3, 5)), 12, 30, 3, 40))
    cases.append((rng.random((1, 4, 6)), 3, 20, 1, 40))
    cases.append((rng.random((1, 3, 4)), 44, 10, 2, 40))
    chained = 0
    for a0, n, t_max in ((4.3, 20, 6), (10.0, 8, None)):
        for f in annealed.evolve_branch_counts(a0, n, 0.0, t_max):
            if f.c2_lo == 0 and f.T < n - 5 and f.array[0, 0].any():
                cases.append((f.array[0:1, 0:1], 0, f.c3_lo, f.T, n))
                chained += 1
    assert chained >= 8
    return cases


def test_engine_matches_rows(reference):
    cases = _step_cases()
    wants = [_row_step(*case) for case in cases]
    assert all(wants)
    for backend in _backends():
        with _backend(backend, reference):
            for case, want in zip(cases, wants):
                arr, c2_lo, c3_lo, T, N = case
                label = (backend, arr.shape, c2_lo, c3_lo, T, N)
                c2lo = _assert_step_matches_rows(case, want, label)
                assert (c2lo > 0) == (c2_lo >= 40), label


def test_one_c3_pool_per_step(monkeypatch):
    # the unit, split and (0, 0, C3) fields of a step share one C3 thinning
    # and one C3 conversion pass; each C2-moving field runs its own pair
    arr = np.random.default_rng(3).random((3, 4, 6))
    assert arr[1:].any() and arr[0, 1:].any() and arr[0, 0, 1:].any()
    calls = collections.Counter()
    for name in ("_thin_pass", "_convert_pass"):
        def counted(field, weights, axis, _name=name, _fn=getattr(annealed, name)):
            calls[_name, axis] += 1
            return _fn(field, weights, axis)
        monkeypatch.setattr(annealed, name, counted)
    out, c2lo, _ = annealed._engine_step(arr, 0, 25, 4, 60, 1e-14)
    assert c2lo == 0 and out.sum() > arr.sum()
    assert calls == {("_thin_pass", 1): 2, ("_convert_pass", 1): 2,
                     ("_thin_pass", 2): 1, ("_convert_pass", 2): 1}


def test_trimmed_padding_matches_padding_to_zero(reference):
    # a window high in C2 is padded by the step's support only; the same
    # window padded down to C2 = 0 first gives the same cells, bit for bit,
    # and nothing below them
    arr = np.random.default_rng(5).random((3, 6, 8))
    for backend in _backends():
        with _backend(backend, reference):
            out, c2lo, c3lo = annealed._engine_step(arr, 40, 200, 2, 60, 1e-14)
            wide = np.pad(arr, ((0, 0), (40, 0), (0, 0)))
            ref, ref_c2lo, ref_c3lo = annealed._engine_step(wide, 0, 200, 2, 60, 1e-14)
        assert 0 < c2lo < 40 and ref_c2lo == 0 and c3lo == ref_c3lo, backend
        assert not ref[:, :c2lo].any(), backend
        assert np.array_equal(ref[:, c2lo:], out), backend


def test_field_accessors():
    arr = np.zeros((2, 2, 3))
    arr[1, 0, 2] = 0.5
    arr[0, 1, 0] = 1.5
    f = BranchCountField(4, arr, c2_lo=3, c3_lo=10)
    assert f.get(ClauseVector(1, 3, 12)) == 0.5
    assert f.get((0, 4, 10)) == 1.5
    assert f.get((0, 0, 0)) == 0.0
    assert abs(f.total_mass() - 2.0) < 1e-15
    assert abs(f.mean_c2() - (3 * 0.25 + 4 * 0.75)) < 1e-12
    items = dict(f.items())
    assert items[ClauseVector(0, 4, 10)] == 1.5


def test_fields_share_read_only_windows():
    # the chain yields its own windows, without a copy, so writing to one
    # raises instead of corrupting the next step
    for field in annealed.evolve_branch_counts(10.0, 20, t_max=3):
        with pytest.raises(ValueError):
            field.array[0, 0, 0] = 2.0
        with pytest.raises(ValueError):
            field.array *= 0.5


def test_mass_growth_then_decline():
    curve = mass_curve(10.0, 60)
    masses = [st.total_mass for st in curve]
    peak = max(range(len(masses)), key=masses.__getitem__)
    assert 0 < peak < len(masses) - 1
    assert all(b > a for a, b in zip(masses[:peak], masses[1:peak + 1]))
    assert masses[0] == 1.0


def test_alpha20_smaller_than_alpha10():
    om10, _, _ = annealed_omega_estimate(10.0, 60)
    om20, _, _ = annealed_omega_estimate(20.0, 60)
    assert om20 < om10


def test_pruning_threshold_insensitive():
    om_a, _, _ = annealed_omega_estimate(10.0, 60, pruning_threshold=1e-12)
    om_b, _, _ = annealed_omega_estimate(10.0, 60, pruning_threshold=1e-9)
    assert abs(om_a - om_b) < 1e-4


def test_marginals_track_pde_densities():
    om, t_peak, curve = annealed_omega_estimate(10.0, 75)
    series = growth.solve_characteristics(10.0, "GUC")
    for frac in (0.4, 0.7):
        T = int(t_peak * frac)
        st = curve[T]
        t = T / 75
        smp = min(series.samples, key=lambda s: abs(s.t - t))
        assert abs(st.mean_c2 / 75 - smp.c2_star) / smp.c2_star < 0.15
        assert abs(st.mean_c3 / 75 - smp.c3_star) / smp.c3_star < 0.15


def _digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode(), digest_size=16).hexdigest()


def _rows(curve):
    return [(st.T, st.total_mass, st.mean_c2, st.mean_c3) for st in curve]


# Golden values of the chain since every field of a step shares one C3
# pool: blake2b digests of the repr of the (T, total_mass, mean_c2,
# mean_c3) rows.  Every float must stay identical on both backends, so any
# change to the chain's arithmetic fails.
_GOLDEN_CURVES = {(10.0, 40): "5ec1883dd42a70d343b0839f75824817",
                  (20.0, 30): "c881b06e0fedf2598d3c904511e3d60c"}


def test_chain_golden_values():
    for (alpha0, n), want in _GOLDEN_CURVES.items():
        assert _digest(_rows(mass_curve(alpha0, n))) == want, (alpha0, n)
    om, t_peak, curve = annealed_omega_estimate(10.0, 60)
    assert (om, t_peak) == (0.06601952766222205, 10)
    assert _digest(_rows(curve)) == "3d05983f3326f953e11fb310bafa4f78"


def test_chain_rejects_bad_inputs():
    good = dict(alpha0=10.0, N=30)
    for bad in (dict(N=5), dict(N=0), dict(N=-3), dict(alpha0=0.0),
                dict(alpha0=-1.0), dict(alpha0=math.nan), dict(alpha0=math.inf),
                dict(pruning_threshold=1.0), dict(pruning_threshold=2.0),
                dict(pruning_threshold=-1e-12), dict(t_max=-1), dict(t_max=2.5),
                dict(t_max=True)):
        with pytest.raises(ValueError):
            next(annealed.evolve_branch_counts(**{**good, **bad}))
    with pytest.raises(ValueError):
        annealed_omega_estimate(10.0, 3)
    with pytest.raises(ValueError):
        mass_curve(10.0, 30, pruning_threshold=2.0)
    # N = 6 is the smallest chain: T = 0 and one step
    assert [st.T for st in mass_curve(10.0, 6)] == [0, 1]
    # the passes check the window against its populations before any kernel
    # reads it
    arr = np.ones((2, 3, 4))
    for fn, values, axis in ((annealed._thin_pass, np.arange(3.0), 2),
                             (annealed._thin_pass, np.arange(4.0), 3),
                             (annealed._convert_pass, np.arange(2.0), 0),
                             (annealed._convert_pass, np.arange(5.0), 2)):
        with pytest.raises(ValueError):
            fn(arr, annealed._pass_weights(values, 0.1, 1e-14), axis)
    with pytest.raises(ValueError):
        annealed._thin_pass(np.ones((3, 4)),
                            annealed._pass_weights(np.arange(4.0), 0.1, 1e-14), 1)


def test_pruned_mass_accounting():
    # nothing is pruned at threshold 0 (a short chain: without pruning the
    # window keeps every underflowing tail cell)
    curve = mass_curve(10.0, 10, pruning_threshold=0.0, t_max=3)
    assert len(curve) == 4 and all(st.pruned_mass == 0.0 for st in curve)
    # at the default 1e-12 the N = 60 chain drops about 9e-8 of its peak
    # mass in total, at 1e-9 about 7e-5: the bound behind
    # test_pruning_threshold_insensitive
    for threshold, bound in ((1e-12, 1e-6), (1e-9, 1e-3)):
        curve = mass_curve(10.0, 60, pruning_threshold=threshold)
        assert curve[0].pruned_mass == 0.0
        assert all(st.pruned_mass >= 0.0 for st in curve)
        relative = sum(st.pruned_mass for st in curve) / max(
            st.total_mass for st in curve)
        print(f"pruning {threshold:g}: pruned mass / peak mass = {relative:.3g}")
        assert 0.0 < relative < bound, (threshold, relative)


def _chain(alpha0, n, **kw):
    return [(f.T, f.c2_lo, f.c3_lo, f.pruned_mass, f.array)
            for f in annealed.evolve_branch_counts(alpha0, n, **kw)]


def _assert_same_chain(got, want, label):
    assert [g[:4] for g in got] == [w[:4] for w in want], label
    for g, w in zip(got, want):
        assert np.array_equal(g[4], w[4]), (label, g[0])


# the windows leave C2 = 0 in every case but (4.3, 20)
_DIFF_CASES = ((4.3, 20, {}), (4.3, 75, dict(t_max=8)), (10.0, 20, {}),
               (10.0, 75, dict(t_max=8)), (20.0, 40, dict(t_max=4)))


# thread counts of the compiled passes under test, whatever the host's
# core count: one, an even and an odd split, and more threads than cores
_THREADS = (1, 2, 3, 7)


@pytest.fixture(scope="module")
def entry_pairs(kernel):
    """The annealed entry pairs this CPU runs, each keyed with each of
    _THREADS: the baseline pair, and the AVX2 pair when the CPU has AVX2."""
    isas = ("baseline", "avx2") if kernel.passes.avx2 else ("baseline",)
    return {(isa, threads): native._annealed_passes(kernel, isa == "avx2")
            for isa in isas for threads in _THREADS}


def _use(m, name, passes):
    """Make the library run `passes` on the thread count in `name`."""
    m.setattr(native.load(), "passes", passes)
    m.setattr(native.load(), "threads", name[1])


def test_kernel_chains_match_numpy(entry_pairs, monkeypatch, reference):
    # every pass with at least two destination cells splits
    monkeypatch.setattr(annealed, "THREAD_CELLS", 1)
    compiled = {}
    for name, passes in entry_pairs.items():
        with monkeypatch.context() as m:
            _use(m, name, passes)
            compiled[name] = [_chain(a0, n, **kw) for a0, n, kw in _DIFF_CASES]
    for i, (a0, n, kw) in enumerate(_DIFF_CASES):
        with reference():
            want = _chain(a0, n, **kw)
        for name, chains in compiled.items():
            _assert_same_chain(chains[i], want, (name, a0, n))


def _pass_arrays():
    rng = np.random.default_rng(2024)
    base = rng.random((6, 11, 14))
    holes = base.copy()
    holes[2] = 0.0                      # a zero row of the first axis
    holes[:, :, 0] = 0.0                # a zero row of the last axis
    holes[:, 3:8, 2:12] = 0.0           # a zero block, wider than BLOCK
    tiny = base * 1e-310                # subnormal cells, some underflowing
    tiny[:, ::3, :] = 5e-324
    return (base,                               # contiguous
            base[:, ::2, :],                    # strided views
            base.transpose(2, 0, 1)[1:, :, 3:],
            base[1:4, 2:9, 5:7],
            base[:2, :1, :3],                   # narrower than any support
            holes, tiny, np.zeros((3, 9, 10)))


def _large_pass_cases():
    """Passes whose windows hold at least max(_THREADS) * THREAD_CELLS
    destination cells, so that each entry pair runs on all of its threads:
    (fn, window, axis).  Their destination rows (the thinning pass's (o, r)
    rows, the conversion pass's (o, y) rows) mostly do not divide evenly
    among the threads, are fewer than the threads, or sit under a one-row
    outer axis."""
    rng = np.random.default_rng(99)
    cells = max(_THREADS) * annealed.THREAD_CELLS
    return ((annealed._thin_pass, rng.random((1, 20011, 13)), 2),  # 260143 rows
            (annealed._thin_pass, rng.random((1, 5, cells // 5 + 9)), 1),  # 5 rows
            (annealed._thin_pass, rng.random((3, 13, cells // 39 + 5)), 1),  # 39 rows
            # 4 x (4099 + k) rows, and 2 + k rows under a one-row outer axis
            (annealed._convert_pass, rng.random((4, cells // 28 + 3, 7)), 2),
            (annealed._convert_pass, rng.random((2, 11, cells // 22 + 1)), 1))


def test_kernel_passes_match_numpy(entry_pairs, monkeypatch, reference):
    # the small windows at one destination cell per thread, the large ones
    # at the library's THREAD_CELLS
    cases = []
    for arr in _pass_arrays():
        for lo in (0, 3, 250):
            for p in (-0.2, 0.0, 0.004, 0.05, 0.3, 0.9):
                for axis in (0, 1, 2):
                    values = np.arange(lo, lo + arr.shape[axis], dtype=float)
                    weights = annealed._pass_weights(values, p, 1e-14)
                    cases.append((annealed._thin_pass, arr, weights, axis, 1, lo, p))
                    if axis:
                        cases.append((annealed._convert_pass, arr, weights, axis,
                                      1, lo, p))
    for fn, arr, axis in _large_pass_cases():
        for lo in (0, 250):
            for p in (0.05, 0.3):
                values = np.arange(lo, lo + arr.shape[axis], dtype=float)
                weights = annealed._pass_weights(values, p, 1e-14)
                assert np.prod(arr.shape) >= max(_THREADS) * annealed.THREAD_CELLS
                cases.append((fn, arr, weights, axis, annealed.THREAD_CELLS, lo, p))
    compiled = {}
    for name, passes in entry_pairs.items():
        with monkeypatch.context() as m:
            _use(m, name, passes)
            outs = []
            for fn, arr, weights, axis, thread_cells, _, _ in cases:
                m.setattr(annealed, "THREAD_CELLS", thread_cells)
                outs.append(fn(arr, weights, axis))
            compiled[name] = outs
    narrow = subnormal = 0
    for i, (fn, arr, weights, axis, _, lo, p) in enumerate(cases):
        with reference():
            want = fn(arr, weights, axis)
        for name, outs in compiled.items():
            got = outs[i]
            assert got.shape == want.shape and np.array_equal(got, want), \
                (name, fn.__name__, arr.shape, lo, p, axis)
        if len(weights) > arr.shape[axis]:
            narrow += 1
        subnormal += bool(((want > 0) & (want < np.finfo(float).tiny)).any())
    assert narrow > 50 and subnormal > 50, (narrow, subnormal)


def test_pass_threads_end_with_the_call(entry_pairs, monkeypatch):
    # a threaded pass joins its threads before it returns, so the process
    # has as many threads after it as before
    tasks = "/proc/self/task"
    if not os.path.isdir(tasks):
        pytest.skip("no /proc/self/task to count this process's threads")
    fn, arr, axis = _large_pass_cases()[0]
    weights = annealed._pass_weights(np.arange(arr.shape[axis], dtype=float),
                                     0.3, 1e-14)
    name = ("baseline", max(_THREADS))
    _use(monkeypatch, name, entry_pairs[name])
    fn(arr, weights, axis)
    before = len(os.listdir(tasks))
    for _ in range(3):
        fn(arr, weights, axis)
        assert len(os.listdir(tasks)) == before


def test_fallback_without_compiler(fresh_load):
    want = _chain(10.0, 30)
    native.load.cache_clear()
    fresh_load.setattr(native, "_compiler", lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _chain(10.0, 30)
    _assert_same_chain(got, want, "no compiler")
    assert len(caught) == 1, [str(w.message) for w in caught]
    message = str(caught[0].message)
    assert "numpy annealed passes" in message and "no C compiler" in message
