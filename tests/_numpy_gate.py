"""Whether numpy imports, and the skip marker for tests that assert a kernel
path: without numpy every replay honestly takes the scalar path, which the
parity tests cover on their own."""

from __future__ import annotations

import pytest

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="asserts a kernel path")
