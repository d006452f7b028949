"""Synthetic Auspex-like NFS write workload.

The paper (following Matthews et al.) computes LFS write cost from a trace
of an Auspex NFS file server.  That trace is proprietary, so this module
generates a synthetic workload with the qualitative properties that drive
the write-cost curve:

* most files are small (a few KB) and short-lived or frequently
  overwritten, while a minority of large files receive long sequential
  writes,
* the active working set is much smaller than the file system, so cleaning
  has to migrate a meaningful amount of live data, and
* overwrite locality is skewed (hot files are rewritten often), which is
  what makes larger segments carry more live data per cleaning pass.

The generator emits a stream of (file id, bytes written) operations plus
occasional deletions; the LFS simulator replays it for each segment size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class WriteOp:
    """One logical write (or deletion when ``delete`` is true)."""

    file_id: int
    nbytes: int
    delete: bool = False


@dataclass
class AuspexLikeWorkload:
    """Parameterised synthetic NFS-server write stream."""

    n_files: int = 2000
    n_operations: int = 20_000
    small_file_bytes: int = 8 * 1024
    large_file_bytes: int = 1 * 1024 * 1024
    large_file_fraction: float = 0.05
    delete_fraction: float = 0.05
    hot_fraction: float = 0.2
    hot_weight: float = 0.8
    seed: int = 42

    def file_size(self, rng: random.Random, file_id: int) -> int:
        if (file_id % int(1 / max(self.large_file_fraction, 1e-6))) == 0:
            return self.large_file_bytes
        # Log-ish spread of small files between 1 KB and 4x the median.
        return int(self.small_file_bytes * (0.125 + rng.random() * 4.0))

    def operations(self) -> Iterator[WriteOp]:
        """Generate the write stream."""
        rng = random.Random(self.seed)
        hot_cutoff = max(1, int(self.n_files * self.hot_fraction))
        for _ in range(self.n_operations):
            if rng.random() < self.hot_weight:
                file_id = rng.randrange(hot_cutoff)
            else:
                file_id = rng.randrange(self.n_files)
            if rng.random() < self.delete_fraction:
                yield WriteOp(file_id=file_id, nbytes=0, delete=True)
                continue
            yield WriteOp(file_id=file_id, nbytes=self.file_size(rng, file_id))
