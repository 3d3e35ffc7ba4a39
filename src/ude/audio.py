"""Audio feature sequences: a simplified MFCC + delta + onset extractor,
plus the feature-matrix file format.

Feature files:

    UDEFEAT v1 rate=<r> dims=<F>
    <F space separated decimals>        (one line per frame)
    beats: <t1> <t2> ...                (optional, seconds)

Precomputed feature matrices of any width are accepted everywhere; the
extractor here produces mfcc_count MFCCs, their first-order deltas, and one
spectral-flux onset-strength channel (F = 2*mfcc_count + 1). The hop is
chosen so the feature rate equals the motion frame rate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .errors import AudioError, DimensionError, FormatError
from .fileio import atomic_write_text

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
            raise DimensionError("features must be a [T, F] matrix with F >= 1")
        if self.frame_rate <= 0:
            raise DimensionError("frame rate must be positive")
        if self.beat_times is not None:
            self.beat_times = np.asarray(self.beat_times, dtype=np.float64)

    @property
    def length(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def mel_filterbank(n_mels: int, n_fft: int, rate: float) -> np.ndarray:
    """Triangular mel filters, [n_mels, n_fft//2 + 1]."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    n_bins = n_fft // 2 + 1
    mels = np.linspace(0.0, hz_to_mel(rate / 2.0), n_mels + 2)
    freqs = mel_to_hz(mels)
    bins = np.floor((n_fft + 1) * freqs / rate).astype(int)
    bins = np.clip(bins, 0, n_bins - 1)
    bank = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        left, center, right = bins[m], bins[m + 1], bins[m + 2]
        if center > left:
            bank[m, left:center] = (np.arange(left, center) - left) / (center - left)
        if right > center:
            bank[m, center:right + 1] = (right - np.arange(center, right + 1)) / (right - center)
    return bank


def extract_audio_features(samples, rate: float, fps: float = 16.0,
                           mfcc_count: int = 7, mel_bands: int = 26) -> AudioFeatureSequence:
    """MFCCs, their deltas and spectral-flux onset strength from a waveform.

    One feature row per motion frame (hop = rate / fps). Digital silence
    yields zero onset strength everywhere.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if rate <= 0:
        raise AudioError("sample rate must be positive")
    hop = int(round(rate / fps))
    win = 2 * hop
    if samples.size < win:
        raise AudioError(f"waveform shorter than one analysis window ({win} samples)")
    n_fft = 1 << int(np.ceil(np.log2(win)))
    window = np.hanning(win)
    n_frames = 1 + (samples.size - win) // hop

    starts = np.arange(n_frames) * hop
    frames = np.stack([samples[s:s + win] for s in starts]) * window
    spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
    power = (np.abs(spectrum) ** 2) / n_fft
    bank = mel_filterbank(mel_bands, n_fft, rate)
    mel_power = power @ bank.T

    log_mel = np.log(mel_power + 1e-10)
    mfcc = dct(log_mel, type=2, norm="ortho", axis=1)[:, :mfcc_count]

    delta = np.zeros_like(mfcc)
    delta[1:] = mfcc[1:] - mfcc[:-1]

    flux = np.zeros(n_frames)
    diff = mel_power[1:] - mel_power[:-1]
    flux[1:] = np.maximum(diff, 0.0).sum(axis=1)

    features = np.hstack([mfcc, delta, flux[:, None]])
    return AudioFeatureSequence(frame_rate=fps, features=features)


_FEAT_HEADER_RE = re.compile(rf"^{FEATURE_MAGIC} rate=([0-9.eE+-]+) dims=(\d+)\s*$")


def save_features(seq: AudioFeatureSequence, path) -> None:
    lines = [f"{FEATURE_MAGIC} rate={seq.frame_rate!r} dims={seq.dim}"]
    for row in seq.features:
        lines.append(" ".join(format(v, ".9f") for v in row))
    if seq.beat_times is not None:
        lines.append("beats: " + " ".join(format(t, ".9f") for t in seq.beat_times))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_features(path) -> AudioFeatureSequence:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty feature file")
    match = _FEAT_HEADER_RE.match(lines[0])
    if not match:
        raise FormatError(f"{path}: line 1: bad header {lines[0]!r}")
    rate = float(match.group(1))
    dims = int(match.group(2))
    rows, beats = [], None
    for i, ln in enumerate(lines[1:], start=2):
        if ln.startswith("beats:"):
            beats = np.array([float(v) for v in ln[len("beats:"):].split()])
            continue
        values = ln.split()
        if len(values) != dims:
            raise FormatError(f"{path}: line {i}: expected {dims} values, got {len(values)}")
        rows.append([float(v) for v in values])
    if not rows:
        raise FormatError(f"{path}: no feature rows")
    return AudioFeatureSequence(rate, np.array(rows), beats)
