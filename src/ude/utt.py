"""Unified token transformer: autoregressive motion-token prediction under a
causal mask whose condition prefix stays fully visible, with optional
Gaussian z-injection into the global condition for diverse sampling, and
its teacher-forced cross-entropy training loss.

The model owns its condition encoder, `model.mate`, which exists only to
feed it: the two train under one optimizer and are saved as one parameter
map, `mate.*` first, then the UTT's own.

The head predicts the K codebook ids and nothing else; the token table
holds them plus BOS (=K), which is only ever an input. A teacher-forced
step consumes [BOS, t_0..t_{S-2}] and targets t_0..t_{S-1}.

Every forward takes B conditions and B token prefixes of one length, row
b laid out as [glob, seq, padding, BOS, tokens] under one mask that hides
the condition padding, so each row sees what it would see alone. Only the
motion rows give logits, so the encoder's last layer computes everything
but its keys and values for those rows only (`nn.TransformerEncoder`'s
`start`): logits within 1e-12 of a forward whose last layer computes every
row, and MATE and UTT gradients of a default-size `utt_loss` within 1e-15.
Training runs one forward per minibatch.
Sampling draws an exact token count, so every row ends on the same step.
Its first pass is one forward, which fills a per-layer key/value cache;
each later step feeds every row's last sampled token at one shared
position. This is exact: condition rows see only condition rows and motion
rows only earlier rows, so appending a token changes no earlier row, and
the cached K/V are what a full forward over the longer prefix would
compute.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .errors import DataError
from .mate import CondEmbedding, MATEModel, encode
from .mq import MQModel, encode_motions
from .nn import (Embedding, Linear, Module, TransformerEncoder, additive_mask,
                 causal_prefix_mask, cross_entropy, sinusoidal_table)
from .numerics import Tensor

if TYPE_CHECKING:
    from .config import RunConfig


class UTTModel(Module):
    """Condition encoder, token table, z-injection MLP, encoder and codebook
    head, sized by the run config."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.cfg = cfg
        # built first, so the stage rng draws the MATE weights before the UTT's
        self.mate = MATEModel(cfg, rng)
        d = cfg.embed_dim
        self.token_table = Embedding(cfg.code_count + 1, d, rng)  # the codes and BOS
        self.z1 = Linear(cfg.z_dim, d, rng)
        # zero start: z has no effect at init, so early training learns the
        # condition cleanly; the injection path grows under training pressure
        self.z2 = Linear(d, d, rng, zero=True)
        self.encoder = TransformerEncoder(cfg.utt_layers, d, cfg.utt_heads, rng)
        self.out_proj = Linear(d, cfg.code_count, rng)
        self.pos = sinusoidal_table(cfg.max_context, d)


def _visible_keys(cond: CondEmbedding, width: int) -> np.ndarray:
    """[B, cond.length + width]: False only at each row's condition padding."""
    cols = np.arange(cond.length + width)
    return (cols <= cond.lengths[:, None]) | (cols >= cond.length)


def forward_logits(model: UTTModel, cond: CondEmbedding, prefixes, z=None,
                   caches=None) -> Tensor:
    """Next-token codebook logits [B, S, K] of B teacher-forced prefixes [B, S].

    Every prefix must start with BOS; logits at position i predict element
    i+1. z is None or B entries, each a z vector or None for none; a z
    vector makes the row's global condition mlp(z) + glob. When caches (one
    empty list per encoder layer) is given, every column's K/V is stored in
    it for later one-row steps.
    """
    ids = np.asarray(prefixes, dtype=np.int64)
    if ids.ndim != 2 or len(ids) != len(cond.lengths):
        raise DataError(f"{len(cond.lengths)} conditions got prefixes of shape {ids.shape}")
    if not ids.shape[1] or (ids[:, 0] != model.cfg.code_count).any():
        raise DataError("token prefix must start with BOS")
    if ids.min() < 0 or ids[:, 1:].max(initial=0) >= model.cfg.code_count:
        raise DataError("prefix contains non-codebook ids after BOS")
    _check_context(model, 1 + int(cond.lengths.max()) + ids.shape[1])
    glob = cond.glob
    if z is not None and any(v is not None for v in z):  # rows without z shift by 0
        rows = Tensor([np.zeros(model.cfg.z_dim) if v is None else v for v in z])
        live = np.array([[v is not None] for v in z], dtype=np.float64)
        glob = glob + model.z2(nm.relu(model.z1(rows))) * live
    motion = model.token_table(ids) + Tensor(model.pos[:ids.shape[1]])
    stacked = nm.concat([glob.reshape(len(ids), 1, -1), cond.seq, motion], axis=1)
    visible = (causal_prefix_mask(cond.length, ids.shape[1])
               & _visible_keys(cond, ids.shape[1])[:, None])
    hidden = model.encoder(stacked, additive_mask(visible)[:, None], caches, cond.length)
    return model.out_proj(hidden)


def _check_context(model: UTTModel, length: int) -> None:
    if length > model.cfg.max_context:
        raise DataError(f"context of {length} exceeds {model.cfg.max_context}")


def _step_logits(model: UTTModel, position: int, last, caches: list,
                 key_mask: np.ndarray | None = None) -> Tensor:
    """Next-token codebook logits [B, 1, K] after feeding each of B requests
    its last token (last is [B, 1]) at one shared position: one row per
    request that attends to its cached rows and to itself.

    caches hold one [K, V] pair of [B, heads, rows, dh] per layer; key_mask
    [B, 1, 1, >= rows + 1] hides condition padding, None when there is none.
    """
    rows = model.token_table(last) + Tensor(model.pos[position])
    if key_mask is not None:
        key_mask = key_mask[..., :caches[0][0].shape[-2] + 1]
    return model.out_proj(model.encoder(rows, key_mask, caches))


def _per_row(value, count: int) -> list:
    values = [None] * count if value is None else list(value)
    if len(values) != count:
        raise DataError(f"a batch of {count} requests got {len(values)} values")
    return values


def generate_tokens(model: UTTModel, cond: CondEmbedding, max_len: int, cfg: RunConfig,
                    primitive=None, z=None, *, seed) -> np.ndarray:
    """Token rows [B, max_len] of codebook ids for the B conditions of
    `cond`, with `seed` a list of B seeds; `primitive` is None or [B, P],
    and `z` None or B entries, each a z vector or None for none.

    Each row starts with its primitive verbatim; every later token is drawn
    from the K codebook logits at the top_k and temperature of `cfg`, the
    request's run config (never `model.cfg`, the recorded one), so all rows
    end on the same step. Each request keeps its own RNG, so it gets the
    same tokens alone or in any batch.

    The first pass is one `forward_logits` call over [BOS, primitive], which
    fills the K/V cache; every later step feeds each row's last token
    through `_step_logits`.
    """
    count = len(cond.lengths)
    rngs = [np.random.default_rng(np.random.SeedSequence([s, 5]))
            for s in _per_row(seed, count)]
    zs = _per_row(z, count)
    try:
        prim = np.array([[]] * count if primitive is None else primitive, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"primitives must be {count} rows of one length") from exc
    if prim.ndim != 2 or len(prim) != count:
        raise DataError(f"a batch of {count} requests got primitives of shape {prim.shape}")
    start = prim.shape[1]
    if max_len < start:
        raise DataError("max_len is smaller than the primitive")
    if prim.size and (prim.min() < 0 or prim.max() >= model.cfg.code_count):
        raise DataError("primitive contains non-codebook ids")
    _check_context(model, 1 + int(cond.lengths.max()) + max_len)
    tokens = np.zeros((count, max_len), dtype=np.int64)
    tokens[:, :start] = prim
    visible = _visible_keys(cond, max_len)
    key_mask = None if visible.all() else additive_mask(visible)[:, None, None]
    caches = [[] for _ in model.encoder.layers]
    with nm.no_grad():
        for step in range(start, max_len):
            if step == start:
                prefixes = np.pad(prim, ((0, 0), (1, 0)), constant_values=model.cfg.code_count)
                logits = forward_logits(model, cond, prefixes, zs, caches)
            else:  # BOS sits at position 0, so token step - 1 at position step
                logits = _step_logits(model, step, tokens[:, step - 1:step], caches, key_mask)
            tokens[:, step] = [_sample_one(row, cfg, rng)
                               for row, rng in zip(logits.data[:, -1], rngs)]
    return tokens


def _sample_one(logits: np.ndarray, cfg: RunConfig, rng: np.random.Generator) -> int:
    """One token id drawn from the top_k logits at the temperature of `cfg`;
    top_k 1 is greedy decoding.

    The draw is `rng.choice(k, p=probs)`'s own algorithm (a normalized
    cumulative sum searched with one `rng.random()` double) without its
    per-call checks on p, so it returns the same id and leaves the stream
    where `choice` leaves it.
    """
    k = min(cfg.top_k, logits.size)
    keep = (-logits).argsort(kind="stable")[:k]
    top = logits[keep]
    tau = max(cfg.temperature, 1e-12)
    scaled = (top - top.max()) / tau
    with np.errstate(under="ignore"):
        probs = np.exp(scaled)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return int(keep[cdf.searchsorted(rng.random(), side="right")])


# -- losses ----------------------------------------------------------------------------


def _teacher_forcing(model: UTTModel, gt_tokens) -> tuple:
    """(prefixes [BOS, t_0..t_{S-2}], targets t_0..t_{S-1}) of token rows
    [B, S]: position i of a prefix predicts t_i, so each row is S logits."""
    gt_tokens = np.asarray(gt_tokens, dtype=np.int64)
    return (np.pad(gt_tokens[:, :-1], ((0, 0), (1, 0)), constant_values=model.cfg.code_count),
            gt_tokens)


def utt_loss(model: UTTModel, cond: CondEmbedding, gt_tokens, z=None) -> Tensor:
    """Teacher-forced loss of B conditions and token rows [B, S]: the mean
    cross-entropy of the S targets t_0..t_{S-1} over the K codebook logits,
    averaged over the batch. z is as for `forward_logits`."""
    prefixes, targets = _teacher_forcing(model, gt_tokens)
    return cross_entropy(forward_logits(model, cond, prefixes, z=z), targets)


# BENCHMARK.json reads this span; the function leaves together with that span
def hinge_disc_loss(real_scores, fake_scores) -> Tensor:
    """Hinge real/fake objective on realness scores."""
    return nm.relu(1.0 - real_scores).mean() + nm.relu(1.0 + fake_scores).mean()


# -- training ---------------------------------------------------------------------------


def mean_cross_entropy(model: UTTModel, mq: MQModel, samples) -> float:
    """Held-out teacher-forced CE over (ModalityInput, frames) samples of
    equal length."""
    with nm.no_grad():
        cond = encode(model.mate, [inp for inp, _ in samples])
        tokens = mq.encode_tokens(np.stack([frames for _, frames in samples]))
        return utt_loss(model, cond, tokens).item()


def train_utt(model: UTTModel, mq: MQModel, samples, epochs: int, seed: int) -> list:
    """Teacher-forced cross-entropy training of MATE+UTT through `numerics.fit`
    at the UTT's run-config lr, batch_size and z_prob.

    `samples` are (ModalityInput, frames) pairs covering both modalities,
    all with the same frame count. A minibatch interleaves them 1:1 when
    both are present and encodes its conditions in one padded MATE forward.
    The quantizer is frozen throughout. Deterministic per seed.
    """
    if not samples:
        raise DataError("empty training set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    lr, batch_size, z_prob = model.cfg.lr, model.cfg.batch_size, model.cfg.z_prob
    opt = nm.Adam(model.named_parameters(), lr=lr)

    text_idx = [i for i, (inp, _) in enumerate(samples) if inp.modality == "text"]
    audio_idx = [i for i, (inp, _) in enumerate(samples) if inp.modality == "audio"]
    token_cache = encode_motions(mq, [frames for _, frames in samples], batch_size)

    def step(batch):
        zs = [rng.standard_normal(model.cfg.z_dim) if rng.random() < z_prob else None
              for _ in batch]
        loss = utt_loss(model, encode(model.mate, [samples[i][0] for i in batch]),
                        token_cache[batch], z=zs)
        return loss, {"ce": loss.item()}

    return nm.fit(epochs, batch_size, lambda: _interleave(rng, text_idx, audio_idx), opt, step)


def _interleave(rng: np.random.Generator, text_idx, audio_idx) -> list:
    text = [text_idx[j] for j in rng.permutation(len(text_idx))]
    audio = [audio_idx[j] for j in rng.permutation(len(audio_idx))]
    if not text or not audio:
        return text or audio
    order = []
    for pair in zip(text, audio):
        order.extend(pair)
    longer = text if len(text) > len(audio) else audio
    order.extend(longer[min(len(text), len(audio)):])
    return order
