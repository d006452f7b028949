"""Puts ``perfbench/`` on ``sys.path`` so the perf gates reuse the benchmark
harness's provenance read (``run.git_commit``) rather than a copy of it.

The directory is appended, not prepended, so the harness's module names
(``run``, ``compare``, ``workloads`` ...) never shadow an earlier one.
"""

from __future__ import annotations

import pathlib
import sys

PERFBENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "perfbench"
if str(PERFBENCH_DIR) not in sys.path:
    sys.path.append(str(PERFBENCH_DIR))
