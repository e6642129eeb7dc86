"""File-set construction for the storage-cluster experiments.

Section 2.2 populates the servers "with a collection of files whose total size
is chosen to achieve a preset target cache-to-disk ratio".  A
:class:`FileSet` captures that collection (file ids and sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class FileSet:
    """A static collection of files identified by index.

    Attributes:
        sizes_bytes: Array of file sizes in bytes; ``sizes_bytes[i]`` is the
            size of file ``i``.
    """

    sizes_bytes: np.ndarray

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes_bytes, dtype=float)
        if sizes.size == 0:
            raise ConfigurationError("a FileSet must contain at least one file")
        if np.any(sizes <= 0):
            raise ConfigurationError("all file sizes must be positive")
        object.__setattr__(self, "sizes_bytes", sizes)

    @property
    def num_files(self) -> int:
        """Number of files in the collection."""
        return int(self.sizes_bytes.size)

    @property
    def total_bytes(self) -> float:
        """Total size of the collection in bytes."""
        return float(self.sizes_bytes.sum())

    @property
    def mean_file_bytes(self) -> float:
        """Mean file size in bytes."""
        return float(self.sizes_bytes.mean())

    def size_of(self, file_id: int) -> float:
        """Size in bytes of file ``file_id``."""
        if not 0 <= file_id < self.num_files:
            raise ConfigurationError(f"file_id {file_id!r} outside [0, {self.num_files})")
        return float(self.sizes_bytes[file_id])
