"""The one compiled library: one build per cache, a key over every source
and the flags, sources that link alone, one fallback warning for every
layer, and the one way a kernel call is cut into ranges and threads."""

import os
import subprocess
import sys
import threading
import warnings

import pytest

from satgrowth import annealed, cnf, dpll, growth, native, oracle
from satgrowth.cnf import generate_random_instance


def _run_every_layer():
    """Generate, solve and walk one instance, run a short chain and
    integrate one growth characteristic."""
    inst = generate_random_instance(8, 0, 40, 37000)
    dpll.solve(inst, dpll.GUC, 1)
    oracle.build_evolution_operator(inst, dpll.GUC)
    annealed.mass_curve(10.0, 20)
    growth._Shooter(dpll.GUC, 0.0, 10.0, growth.Controls()).integrate((0.0, 0.0), 0.05)


def test_cold_cache_gets_one_library(kernel, fresh_load, tmp_path):
    # the search, the generator, the closure walk, the annealed passes and
    # the characteristic all run on the one build that a cold cache gets
    fresh_load.setenv("XDG_CACHE_HOME", str(tmp_path))
    lib = native.load()
    _run_every_layer()
    assert native.load() is lib
    files = list((tmp_path / "satgrowth").iterdir())
    assert [f.name for f in files] == \
        [native._library_path(native._compiler()).name]
    assert lib._name == str(files[0])


def test_each_source_and_the_flags_key_the_library(tmp_path, monkeypatch):
    copies = []
    for source in native.SOURCES:
        copies.append(tmp_path / source.name)
        copies[-1].write_bytes(source.read_bytes())
    monkeypatch.setattr(native, "SOURCES", tuple(copies))
    paths = [native._library_path("gcc")]
    for copy in copies:
        original = copy.read_bytes()
        copy.write_bytes(original + b"\n/* edited */\n")
        paths.append(native._library_path("gcc"))
        copy.write_bytes(original)
    assert native._library_path("gcc") == paths[0]
    monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-g",))
    paths.append(native._library_path("gcc"))
    assert len(set(paths)) == len(paths) == len(copies) + 2, paths


def test_sources_compile_without_warnings(tmp_path):
    # link-time optimisation checks the sources against each other, so a
    # declaration in one that disagrees with another's definition warns
    cc = native._compiler()
    if cc is None:
        pytest.skip("no C compiler (gcc) on PATH")
    out = subprocess.run([cc, *native.CFLAGS, "-Wall", "-Wextra", "-Werror",
                          "-flto", "-o", str(tmp_path / "kernels.so"),
                          *map(str, native.SOURCES)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_each_source_links_alone(tmp_path):
    # no source leans on a symbol that another defines
    cc = native._compiler()
    if cc is None:
        pytest.skip("no C compiler (gcc) on PATH")
    for source in native.SOURCES:
        out = subprocess.run([cc, *native.CFLAGS, "-Wl,-z,defs", "-o",
                              str(tmp_path / "alone.so"), str(source)],
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, (source.name, out.stderr)


def test_one_warning_names_every_reference_path(fresh_load):
    fresh_load.setattr(native, "_compiler", lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _run_every_layer()
    assert len(caught) == 1, [str(w.message) for w in caught]
    message = str(caught[0].message)
    for part in ("Python DPLL search", "numpy annealed passes",
                 "Python closure walk", "Python characteristic integrator",
                 "no C compiler"):
        assert part in message, message
    # the warning points at the first caller, the instance generator
    assert caught[0].filename == cnf.__file__


def _fan_out_ranges(units, threads, grain):
    return native.fan_out(lambda lo, hi: (lo, hi), units, threads, grain)


def test_fan_out_cuts_ranges_at_the_grain():
    # each range's result in range order, with up to 7 threads on any core
    # count and thread switches as often as the interpreter allows
    assert _fan_out_ranges(0, 3, 16) == []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for units in range(1, 200):
            for threads in (1, 2, 3, 7):
                for grain in (1, 2, 16, 64):
                    ranges = _fan_out_ranges(units, threads, grain)
                    assert len(ranges) == max(1, min(threads, units // grain))
                    assert ranges[0][0] == 0 and ranges[-1][1] == units
                    assert all(lo < hi for lo, hi in ranges)
                    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                    assert all(hi % grain == 0 for _, hi in ranges[:-1])
    finally:
        sys.setswitchinterval(interval)


def test_fan_out_runs_ranges_on_joined_threads():
    # the first range on the caller, the others on threads of their own,
    # every one joined by the return or the raise
    tasks = "/proc/self/task"
    before = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    together = threading.Barrier(4)

    def ident(lo, hi):
        together.wait(timeout=60)  # the four ranges run at once
        return threading.get_ident()

    idents = native.fan_out(ident, 40, 4, 10)
    assert idents[0] == threading.get_ident() and len(set(idents)) == 4
    for failing in (0, 2):
        done = []

        def call(lo, hi):
            if lo == 10 * failing:
                raise ValueError(lo)
            threading.Event().wait(0.05)
            done.append(lo)
            return lo

        with pytest.raises(ValueError, match=str(10 * failing)):
            native.fan_out(call, 40, 4, 10)
        assert sorted(done) == [lo for lo in (0, 10, 20, 30) if lo != 10 * failing]
    if before is not None:
        assert len(os.listdir(tasks)) == before
        # the OS threads are gone too, not only marked joined
        for _ in range(1000):
            native.fan_out(lambda lo, hi: lo, 40, 4, 10)
            assert len(os.listdir(tasks)) == before
