"""Small file helpers: text reads, atomic writes and content hashing."""

from __future__ import annotations

import hashlib
import os
import tempfile

from .errors import FormatError


def read_text(path) -> str:
    """The text of a UTF-8 file; other bytes raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 text file ({exc})") from exc


def atomic_write_text(path, text: str) -> None:
    """Write text to `path` via a temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
