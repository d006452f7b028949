"""Whether numpy imports, the skip marker for tests that assert a kernel
path (without numpy every replay honestly takes the scalar path, which the
parity tests cover on their own), and :func:`block_numpy`, which makes
numpy unimportable for one test."""

from __future__ import annotations

import builtins

import pytest

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="asserts a kernel path")


def block_numpy(monkeypatch) -> list[str]:
    """Make numpy unimportable and reset the module-level import cache.

    Returns the list of blocked import attempts so tests can assert the
    import is tried exactly once per process, not once per batch.
    """
    from repro.sim import kernel as kernel_module

    attempts = []
    real_import = builtins.__import__

    def blocked_import(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            attempts.append(name)
            raise ImportError("numpy disabled for this test")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(
        kernel_module, "_NUMPY_CACHE", kernel_module._NUMPY_UNRESOLVED
    )
    monkeypatch.setattr(builtins, "__import__", blocked_import)
    return attempts
