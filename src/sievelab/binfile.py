"""Strict reader for the package's little-endian binary files.

A file is a 4-byte magic tag, fixed-format header fields and '<f8'
arrays.  Every read checks that its bytes are present and finish()
checks that none are left over, so a truncated or padded file ends in
a DomainError rather than a struct.error or a silent accept.  Array
sizes are checked against the bytes on hand before anything is
allocated, so a corrupt header cannot ask for a huge buffer.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DomainError


class BinaryReader:
    def __init__(self, path: str, magic: bytes, what: str):
        with open(path, "rb") as fh:
            self._raw = fh.read()
        if self._raw[: len(magic)] != magic:
            raise DomainError(f"{path} is not a {what} file")
        self._path = path
        self._pos = len(magic)

    def _take(self, size: int) -> int:
        start = self._pos
        if len(self._raw) - start < size:
            raise DomainError(f"{self._path} is truncated")
        self._pos += size
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self._raw, self._take(struct.calcsize(fmt)))

    def floats(self, rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) '<f8' array, copied out of the file buffer."""
        start = self._take(8 * rows * cols)
        flat = np.frombuffer(self._raw, dtype="<f8", count=rows * cols, offset=start)
        return flat.reshape(rows, cols).copy()

    def finish(self) -> None:
        extra = len(self._raw) - self._pos
        if extra:
            raise DomainError(f"{self._path} has {extra} trailing bytes")
