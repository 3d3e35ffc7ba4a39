"""Evaluation metrics: Frechet feature distance (kinetic / geometric),
diversity, motion-beat detection and beat alignment, contrastive
motion-text retrieval, and reconstruction accuracy (APE / AVE).

Feature extractors are handcrafted so every metric has an exact oracle:
kinetic features are per-joint speed/acceleration statistics, geometric
features are time-averaged pairwise joint distances plus bounding-box and
root-height statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from . import numerics as nm
from .errors import DimensionError, MetricError
from .motion import MotionSequence
from .nn import Embedding, Linear, Module
from .numerics import Tensor

# -- feature extractors -----------------------------------------------------------


def kinetic_features(m: MotionSequence) -> np.ndarray:
    """Per-joint mean speed, speed std and mean acceleration magnitude (3J dims).

    Speeds/accelerations are per second, so resampling the same trajectory
    at a different fps leaves the features (nearly) unchanged.
    """
    if m.length < 3:
        raise MetricError("kinetic features need at least 3 frames")
    pos = m.positions()
    vel = (pos[1:] - pos[:-1]) * m.fps          # [T-1, J, 3]
    speed = np.linalg.norm(vel, axis=-1)        # [T-1, J]
    acc = (vel[1:] - vel[:-1]) * m.fps          # [T-2, J, 3]
    acc_mag = np.linalg.norm(acc, axis=-1)
    return np.concatenate([speed.mean(axis=0), speed.std(axis=0), acc_mag.mean(axis=0)])


def geometric_features(m: MotionSequence) -> np.ndarray:
    """Time-averaged pairwise distances over a fixed subset of at most 8
    joints, plus bounding-box extents and root-height mean/std."""
    pos = m.positions()
    j = m.joint_count
    subset = np.linspace(0, j - 1, min(j, 8)).round().astype(int)
    subset = np.unique(subset)
    sub = pos[:, subset]                        # [T, S, 3]
    diff = sub[:, :, None, :] - sub[:, None, :, :]
    dist = np.linalg.norm(diff, axis=-1)        # [T, S, S]
    iu = np.triu_indices(len(subset), k=1)
    pair_means = dist[:, iu[0], iu[1]].mean(axis=0)
    extents = (pos.max(axis=(0, 1)) - pos.min(axis=(0, 1)))
    root_y = pos[:, 0, 1]
    return np.concatenate([pair_means, extents, [root_y.mean(), root_y.std()]])


@dataclass
class FeatureSet:
    kind: str                 # "kinetic" | "geometric"
    matrix: np.ndarray        # [N, F]

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=np.float64))
        if not np.all(np.isfinite(self.matrix)):
            raise MetricError("non-finite feature rows")


def feature_set(kind: str, motions) -> FeatureSet:
    extractor = {"kinetic": kinetic_features, "geometric": geometric_features}[kind]
    return FeatureSet(kind, np.stack([extractor(m) for m in motions]))


# -- Frechet distance ---------------------------------------------------------------


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition. Negative eigenvalues
    within round-off of the largest magnitude are clamped to zero; any below
    that is an error."""
    sym = (mat + mat.T) / 2.0
    w, v = np.linalg.eigh(sym)
    if w.min() < -1e-10 * np.abs(w).max():
        raise MetricError(f"matrix not PSD (eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def fid_gaussian(mu_a, cov_a, mu_b, cov_b) -> float:
    """Frechet distance between two Gaussians given their moments."""
    mu_a, mu_b = np.atleast_1d(mu_a), np.atleast_1d(mu_b)
    cov_a, cov_b = np.atleast_2d(cov_a), np.atleast_2d(cov_b)
    diff = mu_a - mu_b
    root_a = _sqrtm_psd(cov_a)
    cross = _sqrtm_psd(root_a @ cov_b @ root_a)
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross))


def fid(a: FeatureSet, b: FeatureSet) -> float:
    """Frechet distance between the empirical feature distributions."""
    if a.kind != b.kind:
        raise DimensionError(f"feature kinds differ: {a.kind} vs {b.kind}")
    if a.matrix.shape[1] != b.matrix.shape[1]:
        raise DimensionError("feature dimensions differ")
    if a.matrix.shape[0] < 2 or b.matrix.shape[0] < 2:
        raise MetricError("need at least 2 samples per set")
    mu_a, mu_b = a.matrix.mean(axis=0), b.matrix.mean(axis=0)
    cov_a = np.cov(a.matrix, rowvar=False)
    cov_b = np.cov(b.matrix, rowvar=False)
    return fid_gaussian(mu_a, cov_a, mu_b, cov_b)


def diversity(a: FeatureSet | np.ndarray) -> float:
    """Mean pairwise Euclidean distance over all unordered row pairs."""
    matrix = a.matrix if isinstance(a, FeatureSet) else np.atleast_2d(a)
    if matrix.shape[0] < 2:
        raise MetricError("diversity needs at least 2 samples")
    return float(pdist(matrix).mean())


# -- beats ------------------------------------------------------------------------


def detect_motion_beats(m: MotionSequence) -> np.ndarray:
    """Beat times (seconds): local minima of the total joint-speed envelope,
    smoothed over 5 frames."""
    if m.length < 5:
        raise MetricError("beat detection needs at least 5 frames")
    pos = m.positions()
    vel = np.linalg.norm(pos[1:] - pos[:-1], axis=-1).sum(axis=-1)  # [T-1]
    kernel = np.ones(5)
    # edge-aware moving average: divide by the actual window size at each index
    smoothed = np.convolve(vel, kernel, mode="same")
    smoothed /= np.convolve(np.ones_like(vel), kernel, mode="same")
    # tolerance keeps float jitter on flat envelopes from minting minima
    tol = 1e-9 * max(float(smoothed.max(initial=0.0)), 1e-12)
    minima = []
    for i in range(1, len(smoothed) - 1):
        if smoothed[i] < smoothed[i - 1] - tol and smoothed[i] <= smoothed[i + 1] + tol:
            minima.append(i)
    # speed sample i spans frames [i, i+1]; place the beat between them
    return np.array([(i + 0.5) / m.fps for i in minima])


def beat_align(motion_beats, audio_beats, sigma: float) -> float:
    """Mean over audio beats of exp(-min_m (t_m - t_a)^2 / (2 sigma^2))."""
    audio_beats = np.asarray(audio_beats, dtype=np.float64)
    motion_beats = np.asarray(motion_beats, dtype=np.float64)
    if audio_beats.size == 0:
        raise MetricError("no audio beats given")
    if sigma <= 0:
        raise MetricError("sigma must be positive")
    if motion_beats.size == 0:
        return 0.0
    d2 = (audio_beats[:, None] - motion_beats[None, :]) ** 2
    return float(np.mean(np.exp(-d2.min(axis=1) / (2.0 * sigma * sigma))))


# -- retrieval ------------------------------------------------------------------------


def _l2_normalize(t: Tensor) -> Tensor:
    """Each row of t [B, d] scaled to unit length."""
    return t * ((t * t).sum(axis=-1, keepdims=True) + 1e-12) ** -0.5


class RetrievalEncoder(Module):
    """Motion and text towers trained contrastively; both emit unit vectors."""

    def __init__(self, frame_dim: int, vocab_size: int, rng: np.random.Generator,
                 hidden: int = 64, out_dim: int = 32):
        self.motion_k1 = Tensor(rng.normal(0, 0.25, (4, frame_dim, hidden)), requires_grad=True)
        self.motion_b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.motion_k2 = Tensor(rng.normal(0, 0.1, (4, hidden, hidden)), requires_grad=True)
        self.motion_b2 = Tensor(np.zeros(hidden), requires_grad=True)
        self.motion_out = Linear(hidden, out_dim, rng)
        self.word_table = Embedding(vocab_size, hidden, rng, scale=0.25)
        self.text_out = Linear(hidden, out_dim, rng)
        self.out_dim = out_dim

    def encode_motion(self, frames: np.ndarray) -> Tensor:
        """Unit embeddings [B, d] of B equal-length motions [B, T, c]."""
        h = nm.conv1d_temporal(Tensor(frames), self.motion_k1, stride=2, pad=1)
        h = nm.relu(h + self.motion_b1)
        h = nm.conv1d_temporal(h, self.motion_k2, stride=2, pad=1)
        h = nm.relu(h + self.motion_b2)
        return _l2_normalize(self.motion_out(h.mean(axis=-2)))

    def encode_text(self, token_ids) -> Tensor:
        """Unit embeddings [B, d] of B token-id arrays: the mean word
        embedding over each array's own tokens."""
        lengths = np.array([len(ids) for ids in token_ids])
        real = np.arange(lengths.max()) < lengths[:, None]
        padded = np.zeros(real.shape, dtype=np.int64)
        padded[real] = np.concatenate(token_ids)
        h = (self.word_table(padded) * real[..., None]).sum(axis=1) / lengths[:, None]
        return _l2_normalize(self.text_out(h))


def contrastive_loss(motion_embs: Tensor, text_embs: Tensor,
                     temperature: float = 0.07) -> Tensor:
    """Symmetric in-batch InfoNCE over paired embeddings [B, d]."""
    logits = nm.matmul(motion_embs, text_embs.transpose((1, 0))) * (1.0 / temperature)
    targets = np.arange(motion_embs.shape[0])
    loss_mt = -nm.take_per_row(nm.log_softmax(logits, axis=-1), targets).mean()
    loss_tm = -nm.take_per_row(nm.log_softmax(logits.transpose((1, 0)), axis=-1), targets).mean()
    return (loss_mt + loss_tm) * 0.5


def train_retrieval_encoder(pairs, frame_dim: int, vocab_size: int, epochs: int,
                            seed: int, batch_size: int = 16, lr: float = 1e-3,
                            temperature: float = 0.07, out_dim: int = 32):
    """Train towers on (frames, token_ids) pairs; deterministic per seed.

    Returns (encoder, history) with one mean-loss row per epoch.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    enc = RetrievalEncoder(frame_dim, vocab_size, rng, out_dim=out_dim)
    opt = nm.Adam(enc.named_parameters(), lr=lr)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(pairs))
        total, batches = 0.0, 0
        for start in range(0, len(order) - 1, batch_size):
            batch = order[start:start + batch_size]
            if len(batch) < 2:
                continue
            loss = contrastive_loss(enc.encode_motion(np.stack([pairs[i][0] for i in batch])),
                                    enc.encode_text([pairs[i][1] for i in batch]),
                                    temperature)
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += loss.item()
            batches += 1
        history.append({"epoch": epoch, "loss": total / max(batches, 1)})
    return enc, history


def retrieval_accuracy(encoder, pairs, distractors: int = 60, trials: int = 10,
                       seed: int = 0) -> tuple:
    """Top-1/top-5 retrieval of the paired text among `distractors` + 1
    candidates, by cosine similarity of unit embeddings. The motions of
    `pairs` share one length.

    The true text is inserted at a seeded random slot; ties resolve by
    candidate order.
    """
    keys = list(dict.fromkeys(tuple(ids) for _, ids in pairs))
    if len(keys) < distractors + 1:
        raise MetricError(
            f"need at least {distractors + 1} distinct texts, have {len(keys)}")
    with nm.no_grad():
        text_emb = dict(zip(keys, encoder.encode_text(keys).data))
        motion_emb = encoder.encode_motion(np.stack([frames for frames, _ in pairs])).data
    rng = np.random.default_rng(np.random.SeedSequence([seed, 61]))
    top1 = top5 = total = 0
    for _ in range(trials):
        for i, (_, ids) in enumerate(pairs):
            true_key = tuple(ids)
            others = [k for k in keys if k != true_key]
            chosen = [others[j] for j in rng.choice(len(others), size=distractors, replace=False)]
            slot = int(rng.integers(0, distractors + 1))
            candidates = chosen[:slot] + [true_key] + chosen[slot:]
            sims = np.array([motion_emb[i] @ text_emb[k] for k in candidates])
            order = np.argsort(-sims, kind="stable")
            rank = int(np.where(order == slot)[0][0])
            top1 += rank == 0
            top5 += rank < 5
            total += 1
    return top1 / total, top5 / total


# -- reconstruction accuracy --------------------------------------------------------


def recon_accuracy(gen: MotionSequence, gt: MotionSequence) -> dict:
    """APE/AVE plus root-only variants.

    APE is the mean joint position distance; AVE is the mean absolute
    difference of per-joint temporal position variance.
    """
    if gen.frames.shape != gt.frames.shape:
        raise DimensionError("sequences must have equal T and J")
    pg, pt = gen.positions(), gt.positions()
    dist = np.linalg.norm(pg - pt, axis=-1)        # [T, J]
    var_g = pg.var(axis=0)                         # [J, 3]
    var_t = pt.var(axis=0)
    var_diff = np.abs(var_g - var_t)
    return {
        "ape": float(dist.mean()),
        "ave": float(var_diff.mean()),
        "ape_root": float(dist[:, 0].mean()),
        "ave_root": float(var_diff[0].mean()),
    }
