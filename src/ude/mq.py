"""Motion quantizer: a VQ-VAE over motion frames.

A three-layer temporal conv encoder (two stride-2 stages, so tokens run at
a quarter of the frame rate) maps frames to embeddings, each embedding row
snaps to its nearest codebook vector, and a mirrored conv decoder maps the
codes back to frames. Training optimizes reconstruction + codebook +
commitment terms with a straight-through estimator across the quantizer.

Every forward takes a batch of equal-length sequences, frames [B, T, c] and
tokens [B, T/4]; one sequence is a batch of one. The convolutions read time
on axis -2, and leading axes carry through.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .errors import DataError
from .nn import Conv1d, Embedding, Module
from .numerics import Tensor

if TYPE_CHECKING:
    from .config import RunConfig

DOWNSAMPLE = 4  # two stride-2 convolutions


class MQModel(Module):
    """Encoder/decoder conv stacks plus the learned codebook, sized by the run config."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        c, h, d = cfg.frame_dim, cfg.mq_hidden, cfg.code_dim
        self.cfg = cfg
        # width-4 stride-2 convs halve T exactly (floor semantics for odd T)
        self.enc1 = Conv1d(4, c, h, 2, rng)
        self.enc2 = Conv1d(4, h, h, 2, rng)
        self.enc3 = Conv1d(3, h, d, 1, rng)
        self.dec1 = Conv1d(3, d, h, 1, rng)
        self.dec2 = Conv1d(3, h, h, 1, rng)
        self.dec3 = Conv1d(3, h, c, 1, rng)
        self.codebook = Embedding(cfg.code_count, d, rng, scale=0.5)
        # per-coordinate input standardization: fixed tensors, not parameters,
        # set from the training motions and saved after the codebook
        self.center = Tensor(np.zeros(c))
        self.scale = Tensor(np.ones(c))

    # -- forward pieces ------------------------------------------------------

    def encode(self, frames) -> Tensor:
        """Frames [B, T, c] -> embeddings [B, T/4, code_dim]. T must divide by 4."""
        x = frames if isinstance(frames, Tensor) else Tensor(np.asarray(frames, dtype=np.float64))
        if x.ndim != 3 or x.shape[2] != self.cfg.frame_dim:
            raise DataError(f"expected [B, T, {self.cfg.frame_dim}] frames, got {x.shape}")
        if x.shape[1] % DOWNSAMPLE != 0:
            raise DataError(
                f"frame count {x.shape[1]} not divisible by {DOWNSAMPLE}; pad or crop first")
        x = (x - self.center) * Tensor(1.0 / self.scale.data)
        h = nm.relu(self.enc1(x))
        h = nm.relu(self.enc2(h))
        return self.enc3(h)

    def decode_embedding(self, codes) -> Tensor:
        """Code rows [..., T', code_dim] -> frames [..., T'*4, frame_dim]."""
        h = nm.relu(self.dec1(codes))
        h = nm.relu(self.dec2(nm.repeat_rows(h, 2)))
        out = self.dec3(nm.repeat_rows(h, 2))
        return out * self.scale + self.center

    def decode_tokens(self, tokens) -> np.ndarray:
        """Token indices [B, T'] -> motion frames [B, 4T', c], deterministically."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.cfg.code_count):
            raise DataError(f"token index outside [0, {self.cfg.code_count})")
        with nm.no_grad():
            return self.decode_embedding(self.codebook(tokens)).data

    def encode_tokens(self, frames) -> np.ndarray:
        """Frames [B, T, c] -> nearest-code token indices [B, T/4] (no gradients)."""
        with nm.no_grad():
            e = self.encode(frames)
        return quantize(self.codebook.table.data, e.data)


def encode_motions(model: MQModel, motions, chunk: int) -> np.ndarray:
    """Token rows [N, T/4] of N equal-length motions, encoded `chunk` at a time
    so that quantize's [rows, codes, code_dim] difference array stays small."""
    return np.concatenate([model.encode_tokens(np.stack(motions[i:i + chunk]))
                           for i in range(0, len(motions), chunk)])


def quantize(codebook: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """Nearest code per row of embeddings [..., N, d] (squared Euclidean),
    as tokens [..., N]; ties go to the lowest index."""
    flat = embeddings.reshape(-1, embeddings.shape[-1])
    diff = flat[:, None, :] - codebook[None, :, :]
    d2 = np.einsum("tkd,tkd->tk", diff, diff)
    return np.argmin(d2, axis=1).astype(np.int64).reshape(embeddings.shape[:-1])


def vq_loss(model: MQModel, frames) -> tuple:
    """Total training loss and its parts for a batch of sequences [B, T, c].

    Returns (total, parts) where parts maps "recon" / "codebook" /
    "commit" to scalar tensors, "tokens" to the chosen indices [B, T/4] and
    "e" to the encoder output (the trainer's dead-code stash reads it). Each
    term is a mean over the whole batch, which for equal-length sequences is
    the mean of the per-sequence terms. The decoder consumes e + sg(q - e),
    so reconstruction gradients reach the encoder straight through the
    quantizer, while the codebook learns only from the codebook term.
    """
    x = frames if isinstance(frames, Tensor) else Tensor(np.asarray(frames, dtype=np.float64))
    e = model.encode(x)
    tokens = quantize(model.codebook.table.data, e.data)
    q = model.codebook(tokens)
    straight_through = e + Tensor(q.data - e.data)
    recon = model.decode_embedding(straight_through)
    l_rec = ((recon - x) ** 2).mean()
    l_code = ((e.detach() - q) ** 2).mean()
    l_commit = ((e - q.detach()) ** 2).mean()
    total = l_rec + model.cfg.beta_codebook * l_code + model.cfg.beta_commit * l_commit
    parts = {"recon": l_rec, "codebook": l_code, "commit": l_commit, "tokens": tokens,
             "e": e}
    return total, parts


def train_mq(model: MQModel, motions, epochs: int, seed: int) -> list:
    """Train in place through `numerics.fit` at the model's run-config lr and
    batch_size; returns one history row per epoch.

    Dead codes (unused for a whole epoch) are re-seeded to random encoder
    outputs so the codebook cannot collapse; each row counts them.
    """
    if not motions:
        raise DataError("empty training set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    model.center = Tensor(np.mean([m.mean(axis=0) for m in motions], axis=0))
    model.scale = Tensor(np.maximum(np.mean([m.std(axis=0) for m in motions], axis=0), 1e-3))
    named = model.named_parameters()
    opt = nm.Adam(named, lr=model.cfg.lr)
    code_param_index = next(i for i, (name, _) in enumerate(named) if "codebook" in name)
    stash = []  # encoder rows of the epoch's first 256 motions
    used = np.zeros(model.cfg.code_count, dtype=bool)  # the codes the epoch's tokens hit

    def order():
        # each epoch marks code use and stashes encoder rows afresh
        used[:] = False
        stash.clear()
        return rng.permutation(len(motions))

    def step(batch):
        loss, parts = vq_loss(model, np.stack([motions[i] for i in batch]))
        used[parts["tokens"]] = True
        stash.extend(parts["e"].data[:256 - len(stash)])
        return loss, {"total": loss.item(), **{
            key: parts[key].item() for key in ("recon", "codebook", "commit")}}

    def end_epoch():
        dead = np.flatnonzero(~used)
        if dead.size and stash:
            pool = np.vstack(stash)
            picks = rng.integers(0, pool.shape[0], size=dead.size)
            model.codebook.table.data[dead] = pool[picks] + 0.01 * rng.standard_normal(
                (dead.size, model.cfg.code_dim))
            opt.reset_state(code_param_index, rows=dead)
        return {"dead_codes": int(dead.size)}

    return nm.fit(epochs, model.cfg.batch_size, order, opt, step, end_epoch)
