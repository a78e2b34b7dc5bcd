"""Fixtures that reach the compiled kernels and the Python reference.

Every layer runs its kernel when native.load() returns the compiled library
and its reference code when it returns None, so the tests reach each
layer's reference the same way: by patching that one function.
"""

import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from satgrowth import native  # noqa: E402


@pytest.fixture(scope="module")
def kernel():
    """The compiled library.  Without a C compiler the test skips; with gcc
    present, a library that fails to build fails it."""
    if native._compiler() is None:
        pytest.skip("no C compiler (gcc) on PATH: native.load() cannot build "
                    "the kernels")
    lib = native.load()
    assert lib is not None, "gcc is present but native.load() built nothing"
    return lib


@pytest.fixture
def fresh_load(monkeypatch):
    """The monkeypatch, with native.load() rebuilt from scratch inside the
    test and again after it."""
    native.load.cache_clear()
    yield monkeypatch
    native.load.cache_clear()


@pytest.fixture
def reference(monkeypatch):
    """reference() is a context in which native.load() returns None, so
    every layer runs its Python reference code."""
    @contextlib.contextmanager
    def context():
        with monkeypatch.context() as m:
            m.setattr(native, "load", lambda: None)
            yield
    return context
