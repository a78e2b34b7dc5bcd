"""Fixtures that reach a layer's compiled kernel and its Python reference.

A test module that uses them names its loader in a module-level LOADER, one
of "load" (the DPLL search, its Monte Carlo batches and the instance
generator), "load_oracle" (the closure walk) and "load_annealed" (the
chain's passes).  The kernel runs when that loader returns a library and the
reference code runs when it returns None, so every layer's tests reach the
reference the same way: by patching the loader.
"""

import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from satgrowth import native  # noqa: E402


@pytest.fixture(scope="module")
def kernel(request):
    """The module's kernel library.  Without a C compiler the test skips;
    with gcc present, a kernel that fails to build fails it."""
    loader = request.module.LOADER
    if native._compiler() is None:
        pytest.skip(f"no C compiler (gcc) on PATH: native.{loader}() cannot "
                    f"build its kernel")
    lib = getattr(native, loader)()
    assert lib is not None, f"gcc is present but native.{loader}() built nothing"
    return lib


@pytest.fixture
def fresh_load(request, monkeypatch):
    """The monkeypatch, with the module's loader rebuilt from scratch inside
    the test and again after it."""
    loader = getattr(native, request.module.LOADER)
    loader.cache_clear()
    yield monkeypatch
    loader.cache_clear()


@pytest.fixture
def reference(request, monkeypatch):
    """reference() is a context in which the module's loader returns None, so
    the layer runs its Python reference code."""
    loader = request.module.LOADER

    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as m:
            m.setattr(native, loader, lambda: None)
            yield
    return context
