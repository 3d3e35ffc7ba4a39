"""Audio feature sequences and their file format.

Feature files are `fileio` tables, one row per feature frame, that may
hold a beats line:

    UDEFEAT v1 rate=<r> dims=<F>
    <F space separated decimals>        (one line per frame)
    beats: <t1> <t2> ...                (optional, seconds)

Feature matrices of any width F are accepted; `rate` is rows per second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .fileio import parse_body, read_header, write_table

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


def save_features(seq: AudioFeatureSequence, path) -> None:
    """Write `seq` as a UDEFEAT file, with a beats line if it has beats."""
    write_table(path, f"{FEATURE_MAGIC} rate={seq.frame_rate!r} dims={seq.dim}", seq.features,
                seq.beat_times)


def load_features(path) -> AudioFeatureSequence:
    """Read a UDEFEAT file; a DataError names the file, and the first bad
    line when there is one."""
    rate, dims, body = read_header(path, FEATURE_MAGIC, "rate", "dims", "feature")
    features, beat_times = parse_body(path, body, dims, "feature rows", beats=True)
    try:
        return AudioFeatureSequence(rate, features, beat_times)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
