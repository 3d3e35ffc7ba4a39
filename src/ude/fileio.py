"""Small file helpers: text reads, atomic writes, content hashing, and the
decimal matrix bodies of the motion and feature files."""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

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


def format_matrix(matrix: np.ndarray) -> str:
    """The rows of a 2-D float array as lines of space-separated ".9f"
    decimals, each ending in a newline, built by one `%` format. `"%.9f" % v`
    and `format(v, ".9f")` are the same routine, so the bytes are those of
    formatting value by value."""
    rows, width = matrix.shape
    return ((" ".join(["%.9f"] * width) + "\n") * rows) % tuple(matrix.ravel().tolist())


def parse_matrix(lines, width: int) -> np.ndarray | None:
    """The [len(lines), width] float64 matrix of the whitespace-separated
    decimals on `lines`, converted by one numpy call, which parses each
    value as `float()` does. None when there are no lines, a line holds
    another number of values, or a value does not parse: the callers then
    rescan line by line to name the line."""
    try:
        matrix = np.array([ln.split() for ln in lines], np.float64)
    except ValueError:  # rows of unequal length, or a value that does not parse
        return None
    return matrix if matrix.shape == (len(lines), width) else None
