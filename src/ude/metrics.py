"""Evaluation metrics: Frechet feature distance (kinetic / geometric),
diversity, motion-beat detection and beat alignment, contrastive
motion-text retrieval, and reconstruction accuracy (APE / AVE).

Feature extractors are handcrafted so every metric has an exact oracle:
kinetic features are per-joint speed/acceleration statistics, geometric
features are time-averaged pairwise joint distances plus bounding-box and
root-height statistics.

Everything here needs numpy only: `diversity` computes what scipy's `pdist`
would, in the same order and to the same bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .dataset import VOCAB_WORDS
from .errors import DataError
from .motion import MotionSequence
from .nn import Embedding, Linear, Module, cross_entropy
from .numerics import Tensor

if TYPE_CHECKING:
    from .config import RunConfig

# -- feature extractors -----------------------------------------------------------


def kinetic_features(m: MotionSequence) -> np.ndarray:
    """Per-joint mean speed, speed std and mean acceleration magnitude (3J dims).

    Speeds/accelerations are per second, so resampling the same trajectory
    at a different fps leaves the features (nearly) unchanged.
    """
    if m.length < 3:
        raise DataError("kinetic features need at least 3 frames")
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
    first, second = np.triu_indices(len(subset), k=1)  # the S(S-1)/2 pairs averaged
    pair_means = np.linalg.norm(sub[:, first] - sub[:, second], axis=-1).mean(axis=0)
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
            raise DataError("non-finite feature rows")


EXTRACTORS = {"kinetic": kinetic_features, "geometric": geometric_features}


def feature_set(kind: str, motions) -> FeatureSet:
    return FeatureSet(kind, np.stack([EXTRACTORS[kind](m) for m in motions]))


# -- Frechet distance ---------------------------------------------------------------


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition. Negative eigenvalues
    within round-off of the largest magnitude are clamped to zero; any below
    that is an error."""
    sym = (mat + mat.T) / 2.0
    w, v = np.linalg.eigh(sym)
    if w.min() < -1e-10 * np.abs(w).max():
        raise DataError(f"matrix not PSD (eigenvalue {w.min():.3e})")
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
        raise DataError(f"feature kinds differ: {a.kind} vs {b.kind}")
    if a.matrix.shape[1] != b.matrix.shape[1]:
        raise DataError("feature dimensions differ")
    if a.matrix.shape[0] < 2 or b.matrix.shape[0] < 2:
        raise DataError("need at least 2 samples per set")
    mu_a, mu_b = a.matrix.mean(axis=0), b.matrix.mean(axis=0)
    cov_a = np.cov(a.matrix, rowvar=False)
    cov_b = np.cov(b.matrix, rowvar=False)
    return fid_gaussian(mu_a, cov_a, mu_b, cov_b)


def diversity(a: FeatureSet | np.ndarray) -> float:
    """Mean pairwise Euclidean distance over all unordered row pairs.

    This is scipy's ``pdist(matrix).mean()`` bit for bit: each pair's squared
    differences are summed one column at a time, in column order, as pdist
    does, where numpy's pairwise sums (``add.reduce``, ``einsum``,
    ``linalg.norm``) group them differently."""
    matrix = a.matrix if isinstance(a, FeatureSet) else np.atleast_2d(a)
    if matrix.shape[0] < 2:
        raise DataError("diversity needs at least 2 samples")
    i, j = np.triu_indices(matrix.shape[0], k=1)  # pdist's condensed pair order
    total = np.zeros(len(i))
    for column in matrix.T:
        d = column[i] - column[j]
        total += d * d
    return float(np.sqrt(total).mean())


# -- beats ------------------------------------------------------------------------


def detect_motion_beats(m: MotionSequence) -> np.ndarray:
    """Beat times (seconds): local minima of the total joint-speed envelope,
    smoothed over 5 frames."""
    if m.length < 5:
        raise DataError("beat detection needs at least 5 frames")
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
        raise DataError("no audio beats given")
    if sigma <= 0:
        raise DataError("sigma must be positive")
    if motion_beats.size == 0:
        return 0.0
    d2 = (audio_beats[:, None] - motion_beats[None, :]) ** 2
    return float(np.mean(np.exp(-d2.min(axis=1) / (2.0 * sigma * sigma))))


# -- retrieval ------------------------------------------------------------------------


def _l2_normalize(t: Tensor) -> Tensor:
    """Each row of t [B, d] scaled to unit length."""
    return t * ((t * t).sum(axis=-1, keepdims=True) + 1e-12) ** -0.5


RETRIEVAL_HIDDEN = 64      # width of both towers before their output maps
RETRIEVAL_BATCH = 16       # pairs per contrastive minibatch
RETRIEVAL_TEMPERATURE = 0.07


class RetrievalEncoder(Module):
    """Motion and text towers trained contrastively, sized by the run config;
    both emit unit vectors."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.cfg = cfg
        c, hidden = cfg.frame_dim, RETRIEVAL_HIDDEN
        self.motion_k1 = Tensor(rng.normal(0, 0.25, (4, c, hidden)), requires_grad=True)
        self.motion_b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.motion_k2 = Tensor(rng.normal(0, 0.1, (4, hidden, hidden)), requires_grad=True)
        self.motion_b2 = Tensor(np.zeros(hidden), requires_grad=True)
        self.motion_out = Linear(hidden, cfg.retrieval_dim, rng)
        self.word_table = Embedding(len(VOCAB_WORDS), hidden, rng, scale=0.25)
        self.text_out = Linear(hidden, cfg.retrieval_dim, rng)

    def encode_motion(self, frames: np.ndarray) -> Tensor:
        """Unit embeddings [B, d] of B equal-length motions [B, T, c].

        The conv trunk (both strided convs, their biases and relus, and the
        time mean) runs over at most RETRIEVAL_BATCH motions at a time, so
        its activations stay the size of one training minibatch, which is
        one chunk and so one graph as before. Each conv is one product per
        sequence and the mean is per row, so a chunk's rows are bit for bit
        those of one pass over all B. The head (`motion_out` and the
        normalization) runs once over all B pooled rows: OpenBLAS picks its
        gemm kernel by row count, so a short remainder chunk through the
        head could move the last bits."""
        pooled = [self._motion_trunk(frames[i:i + RETRIEVAL_BATCH])
                  for i in range(0, len(frames), RETRIEVAL_BATCH)]
        h = pooled[0] if len(pooled) == 1 else nm.concat(pooled, axis=0)
        return _l2_normalize(self.motion_out(h))

    def _motion_trunk(self, frames: np.ndarray) -> Tensor:
        """Time-pooled conv features [B, hidden] of motions [B, T, c]."""
        h = nm.conv1d_temporal(Tensor(frames), self.motion_k1, stride=2, pad=1)
        h = nm.relu(h + self.motion_b1)
        h = nm.conv1d_temporal(h, self.motion_k2, stride=2, pad=1)
        h = nm.relu(h + self.motion_b2)
        return h.mean(axis=-2)

    def encode_text(self, token_ids) -> Tensor:
        """Unit embeddings [B, d] of B token-id arrays: the mean word
        embedding over each array's own tokens."""
        lengths = np.array([len(ids) for ids in token_ids])
        real = np.arange(lengths.max()) < lengths[:, None]
        padded = np.zeros(real.shape, dtype=np.int64)
        padded[real] = np.concatenate(token_ids)
        h = (self.word_table(padded) * real[..., None]).sum(axis=1) / lengths[:, None]
        return _l2_normalize(self.text_out(h))


def contrastive_loss(motion_embs: Tensor, text_embs: Tensor) -> Tensor:
    """Symmetric in-batch InfoNCE over paired embeddings [B, d] at
    temperature RETRIEVAL_TEMPERATURE."""
    logits = nm.matmul(motion_embs, text_embs.transpose((1, 0))) * (1.0 / RETRIEVAL_TEMPERATURE)
    targets = np.arange(motion_embs.shape[0])
    return (cross_entropy(logits, targets) + cross_entropy(logits.transpose((1, 0)), targets)) * 0.5


def train_retrieval_encoder(enc: RetrievalEncoder, pairs, epochs: int,
                            rng: np.random.Generator) -> list:
    """Train `enc` in place on (frames, token_ids) pairs through
    `numerics.fit` at its run-config lr, in minibatches of RETRIEVAL_BATCH
    ordered by draws from `rng`. Returns one per-item mean-loss row per epoch."""
    opt = nm.Adam(enc.named_parameters(), lr=enc.cfg.lr)

    def order():
        indices = rng.permutation(len(pairs))
        # InfoNCE over one pair has no negatives: a trailing single item sits out
        return indices[:-1] if len(indices) % RETRIEVAL_BATCH == 1 else indices

    def step(batch):
        loss = contrastive_loss(enc.encode_motion(np.stack([pairs[i][0] for i in batch])),
                                enc.encode_text([pairs[i][1] for i in batch]))
        return loss, {"loss": loss.item()}

    # with fewer than two pairs every order is empty and nothing trains
    return [{"loss": 0.0, **row} for row in nm.fit(epochs, RETRIEVAL_BATCH, order, opt, step)]


def retrieval_accuracy(encoder, pairs, distractors: int, trials: int, seed: int = 0) -> tuple:
    """Top-1/top-5 retrieval of the paired text among `distractors` + 1
    candidates, by cosine similarity of unit embeddings. The motions of
    `pairs` share one length. They are embedded in one `encode_motion`
    call, which runs its conv trunk over RETRIEVAL_BATCH motions at a time
    (that bounds the activations held at once, the peak memory of `eval`)
    and its output head once over every row, so the embeddings equal one
    pass over all of them bit for bit.

    The true text is inserted at a seeded random slot; ties resolve by
    candidate order.
    """
    keys = list(dict.fromkeys(tuple(ids) for _, ids in pairs))
    if len(keys) < distractors + 1:
        raise DataError(
            f"need at least {distractors + 1} distinct texts, have {len(keys)}")
    with nm.no_grad():
        text_emb = encoder.encode_text(keys).data
        motion_emb = encoder.encode_motion(np.stack([frames for frames, _ in pairs])).data
    # [pairs, distinct texts]: every similarity a trial can read, each the
    # one dot product of a motion row with a text row
    table = np.array([[m @ t for t in text_emb] for m in motion_emb])
    key_index = {key: k for k, key in enumerate(keys)}
    every_key = np.arange(len(keys))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 61]))
    top1 = top5 = total = 0
    for _ in range(trials):
        for i, (_, ids) in enumerate(pairs):
            true_k = key_index[tuple(ids)]
            others = np.delete(every_key, true_k)  # keys in their order, less the true one
            chosen = others[rng.choice(len(others), size=distractors, replace=False)]
            slot = int(rng.integers(0, distractors + 1))
            candidates = np.insert(chosen, slot, true_k)
            order = np.argsort(-table[i, candidates], kind="stable")
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
        raise DataError("sequences must have equal T and J")
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
