"""A filesystem-backed object store: one file per object.

Lets the examples and tools persist LSVD volumes across process runs
without any external service — handy for poking at object streams with
standard tools, and a template for wiring a real S3 client (the API is
the same five operations).

Object names are percent-encoded into file names so arbitrary keys are
safe on any filesystem.
"""

from __future__ import annotations

import os
import tempfile
import urllib.parse
from pathlib import Path
from typing import List

from repro.objstore.s3 import NoSuchKeyError, ObjectStore, ObjectStoreStats


def _encode(name: str) -> str:
    return urllib.parse.quote(name, safe="._-")


def _decode(filename: str) -> str:
    return urllib.parse.unquote(filename)


class DirectoryObjectStore(ObjectStore):
    """Objects as files under a directory; PUTs are atomic via rename."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = ObjectStoreStats()

    def _path(self, name: str) -> Path:
        return self.root / _encode(name)

    def _write_atomic(self, name: str, data: bytes) -> None:
        # write-then-rename gives the atomic PUT semantics LSVD relies on
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self._path(name))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put(self, name: str, data: bytes) -> None:
        self._write_atomic(name, data)
        self.stats.puts += 1
        self.stats.bytes_put += len(data)

    def get(self, name: str) -> bytes:
        try:
            data = self._path(name).read_bytes()
        except FileNotFoundError:
            raise NoSuchKeyError(name) from None
        self.stats.gets += 1
        self.stats.bytes_got += len(data)
        return data

    def get_range(self, name: str, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError("negative range")
        try:
            with open(self._path(name), "rb") as fh:
                fh.seek(offset)
                piece = fh.read(length)
        except FileNotFoundError:
            raise NoSuchKeyError(name) from None
        self.stats.range_gets += 1
        self.stats.bytes_got += len(piece)
        return piece

    def delete(self, name: str) -> None:
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            raise NoSuchKeyError(name) from None
        self.stats.deletes += 1

    def list(self, prefix: str = "") -> List[str]:
        self.stats.lists += 1
        names = []
        for entry in self.root.iterdir():
            if entry.name.startswith(".tmp-") or not entry.is_file():
                continue
            name = _decode(entry.name)
            if name.startswith(prefix):
                names.append(name)
        return sorted(names)

    def exists(self, name: str) -> bool:
        return self._path(name).is_file()

    def size(self, name: str) -> int:
        try:
            return self._path(name).stat().st_size
        except FileNotFoundError:
            raise NoSuchKeyError(name) from None

    def total_bytes(self, prefix: str = "") -> int:
        return sum(self.size(n) for n in self.list(prefix))
