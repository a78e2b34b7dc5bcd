"""The one compiled library: one build per cache, a key over every source
and the flags, and one fallback warning for every layer."""

import subprocess
import warnings

import pytest

from satgrowth import annealed, cnf, dpll, native, oracle
from satgrowth.cnf import generate_random_instance


def _run_every_layer():
    """Generate, solve and walk one instance, and run a short chain."""
    inst = generate_random_instance(8, 0, 40, 37000)
    dpll.solve(inst, dpll.GUC, 1)
    oracle.build_evolution_operator(inst, dpll.GUC)
    annealed.mass_curve(10.0, 20)


def test_cold_cache_gets_one_library(kernel, fresh_load, tmp_path):
    # the search, the generator, the closure walk and the annealed passes
    # all run on the one build that a cold cache gets
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
    assert len(set(paths)) == len(paths) == 5, paths


def test_sources_compile_without_warnings(tmp_path):
    # annealed_kernel.c declares sg_fan_out and sg_max_threads by hand;
    # link-time optimisation warns when that disagrees with dpll_kernel.c
    cc = native._compiler()
    if cc is None:
        pytest.skip("no C compiler (gcc) on PATH")
    out = subprocess.run([cc, *native.CFLAGS, "-Wall", "-Wextra", "-Werror",
                          "-flto", "-o", str(tmp_path / "kernels.so"),
                          *map(str, native.SOURCES)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr


def test_one_warning_names_every_reference_path(fresh_load):
    fresh_load.setattr(native, "_compiler", lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _run_every_layer()
    assert len(caught) == 1, [str(w.message) for w in caught]
    message = str(caught[0].message)
    for part in ("Python DPLL search", "numpy annealed passes",
                 "Python closure walk", "no C compiler"):
        assert part in message, message
    # the warning points at the first caller, the instance generator
    assert caught[0].filename == cnf.__file__
