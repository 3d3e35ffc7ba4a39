"""Small file helpers: text reads, atomic writes and content hashing."""

from __future__ import annotations

import hashlib
import os
import tempfile

from .errors import DataError


def read_text(path) -> str:
    """The text of a UTF-8 file; other bytes raise DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc})") from exc


def atomic_write(path, data: bytes) -> None:
    """Write bytes to `path` via a temp file and rename, with the mode that
    `open` gives (0o666 less the umask); text callers encode as UTF-8."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
