"""Small file helpers: text reads, atomic writes, content hashing, and the
one table format of the motion and feature files, which this module alone
writes and parses:

    <magic> <rate key>=<decimal> <count key>=<int>
    <space separated ".9f" decimals>    (one line per row)
    beats: <t1> <t2> ...                (feature files only, optional)
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile

import numpy as np

from .errors import DataError

_BEATS = "beats:"


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


def write_table(path, header: str, matrix: np.ndarray, beats=None) -> None:
    """Write a table file atomically: the header line, one line of ".9f"
    decimals per row of the 2-D float array, then a `beats:` line if
    `beats` is given. The rows are built by one `%` format; `"%.9f" % v` and
    `format(v, ".9f")` are the same routine, so the bytes are those of
    formatting value by value."""
    rows, width = matrix.shape
    text = header + "\n" + ((" ".join(["%.9f"] * width) + "\n") * rows) % tuple(
        matrix.ravel().tolist())
    if beats is not None:
        text += _BEATS + " " + " ".join(format(t, ".9f") for t in beats) + "\n"
    atomic_write(path, text.encode())


def read_header(path, magic: str, rate_key: str, count_key: str, kind: str) -> tuple:
    """(rate, count, body lines) of the table file `path`, whose first
    non-blank line must be `<magic> <rate_key>=<decimal> <count_key>=<int>`;
    blank lines are dropped and not counted. `kind` names the file in the
    DataError for one with no lines."""
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty {kind} file")
    match = re.match(rf"{re.escape(magic)} {rate_key}=(\d+\.?\d*(?:[eE][+-]?\d+)?) "
                     rf"{count_key}=(\d+)\s*$", lines[0])
    if not match:
        raise DataError(f"{path}: line 1: bad header {lines[0]!r}")
    return float(match.group(1)), int(match.group(2)), lines[1:]


def parse_body(path, lines, width: int, rows_name: str, beats: bool = False) -> tuple:
    """(rows [N, width], beat times or None) of the body lines after a
    header. With `beats`, a line that starts with `beats:` holds beat times
    and the last such line counts; otherwise it is a row like any other.
    The rows and beats are converted in one numpy call each, which parses a
    value as `float()` does; when that fails, the lines are rescanned value
    by value so the DataError names the first bad line (the header is line
    1). `rows_name` names the rows in the DataError for a body with none."""
    table, beat_lines = lines, []
    if beats:
        table = [ln for ln in lines if not ln.startswith(_BEATS)]
        beat_lines = [ln for ln in lines if ln.startswith(_BEATS)]
    try:
        matrix = np.array([ln.split() for ln in table], np.float64)
        beat_rows = [np.array(ln.removeprefix(_BEATS).split(), np.float64) for ln in beat_lines]
        if matrix.shape == (len(table), width):
            return matrix, (beat_rows[-1] if beat_rows else None)
    except ValueError:  # rows of unequal length, or a value that does not parse
        pass
    rows, beat_times = [], None
    for i, ln in enumerate(lines, start=2):
        is_beats = beats and ln.startswith(_BEATS)
        values = ln.removeprefix(_BEATS).split() if is_beats else ln.split()
        if not is_beats and len(values) != width:
            raise DataError(f"{path}: line {i}: expected {width} values, got {len(values)}")
        try:
            numbers = [float(v) for v in values]
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
        if is_beats:
            beat_times = np.array(numbers)
        else:
            rows.append(numbers)
    if not rows:
        raise DataError(f"{path}: no {rows_name}")
    return np.array(rows), beat_times
