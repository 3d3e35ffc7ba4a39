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
from .fileio import atomic_write, read_text

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
    lines = [f"{FEATURE_MAGIC} rate={seq.frame_rate!r} dims={seq.dim}"]
    for row in seq.features:
        lines.append(" ".join(format(v, ".9f") for v in row))
    if seq.beat_times is not None:
        lines.append("beats: " + " ".join(format(t, ".9f") for t in seq.beat_times))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def load_features(path) -> AudioFeatureSequence:
    lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty feature file")
    match = _FEAT_HEADER_RE.match(lines[0])
    if not match:
        raise DataError(f"{path}: line 1: bad header {lines[0]!r}")
    rate = float(match.group(1))
    dims = int(match.group(2))
    rows, beats = [], None
    for i, ln in enumerate(lines[1:], start=2):
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
    return AudioFeatureSequence(rate, np.array(rows), beats)
