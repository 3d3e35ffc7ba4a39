"""Audio feature sequences and their file format.

Feature files:

    UDEFEAT v1 rate=<r> dims=<F>
    <F space separated decimals>        (one line per frame)
    beats: <t1> <t2> ...                (optional, seconds)

Feature matrices of any width F are accepted; `rate` is rows per second.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import atomic_write, format_matrix, parse_matrix, read_text

FEATURE_MAGIC = "UDEFEAT v1"


@dataclass
class AudioFeatureSequence:
    """Per-frame feature rows at `frame_rate` Hz, with optional beat times."""

    frame_rate: float
    features: np.ndarray  # [T, F]
    beat_times: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise DataError("features must be a [T, F] matrix with F >= 1")
        if not 0 < self.frame_rate < np.inf:
            raise DataError(f"frame rate must be finite and positive, got {self.frame_rate}")
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite feature values")
        if self.beat_times is not None:
            self.beat_times = np.asarray(self.beat_times, dtype=np.float64)
            if not np.all(np.isfinite(self.beat_times)):
                raise DataError("non-finite beat times")

    @property
    def length(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


_FEAT_HEADER_RE = re.compile(rf"^{FEATURE_MAGIC} rate=(\d+\.?\d*(?:[eE][+-]?\d+)?) dims=(\d+)\s*$")


def save_features(seq: AudioFeatureSequence, path) -> None:
    """Write `seq` as a UDEFEAT file: the header, one line of ".9f" decimals
    per row, then the beats line if there are beats, byte for byte what
    formatting each value alone gives."""
    text = f"{FEATURE_MAGIC} rate={seq.frame_rate!r} dims={seq.dim}\n"
    text += format_matrix(seq.features)
    if seq.beat_times is not None:
        text += "beats: " + " ".join(format(t, ".9f") for t in seq.beat_times) + "\n"
    atomic_write(path, text.encode())


def load_features(path) -> AudioFeatureSequence:
    """Read a UDEFEAT file. The rows are parsed in one numpy call that
    accepts exactly the values `float()` does and gives the same floats; a
    file it rejects is rescanned line by line, so the DataError names the
    first bad line."""
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty feature file")
    match = _FEAT_HEADER_RE.match(lines[0])
    if not match:
        raise DataError(f"{path}: line 1: bad header {lines[0]!r}")
    rate = float(match.group(1))
    dims = int(match.group(2))
    body = lines[1:]
    features = parse_matrix([ln for ln in body if not ln.startswith("beats:")], dims)
    try:  # every beats line must parse, and the last one counts
        beat_rows = [np.array(ln.removeprefix("beats:").split(), np.float64)
                     for ln in body if ln.startswith("beats:")]
    except ValueError:
        beat_rows = None
    if features is None or beat_rows is None:
        return AudioFeatureSequence(rate, *_parse_body(path, body, dims))
    return AudioFeatureSequence(rate, features, beat_rows[-1] if beat_rows else None)


def _parse_body(path, lines, dims: int) -> tuple:
    """(features, beats) parsed value by value, raising at the first bad line."""
    rows, beats = [], None
    for i, ln in enumerate(lines, start=2):
        is_beats = ln.startswith("beats:")
        values = ln.removeprefix("beats:").split()
        if not is_beats and len(values) != dims:
            raise DataError(f"{path}: line {i}: expected {dims} values, got {len(values)}")
        try:
            numbers = [float(v) for v in values]
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
        if is_beats:
            beats = np.array(numbers)
        else:
            rows.append(numbers)
    if not rows:
        raise DataError(f"{path}: no feature rows")
    return np.array(rows), beats
