"""Unified token transformer: autoregressive motion-token prediction under a
causal mask whose condition prefix stays fully visible, with optional
Gaussian z-injection into the global condition for diverse sampling, plus a
patch discriminator over decoded motion and the combined training loss.

Token vocabulary: the K codebook ids plus BOS (=K) and EOS (=K+1). A
teacher-forced step consumes [BOS, t_0..t_{S-1}] and targets
[t_0..t_{S-1}, EOS].

Every forward takes a batch of B conditions and B token prefixes, row b
laid out as [glob, seq, padding, BOS, tokens, padding] under one mask that
hides the padding, so each row sees what it would see alone. Training runs
one forward per minibatch. Sampling runs one as its first pass, which fills
a per-layer key/value cache; each later step feeds one row per unfinished
request, its last sampled token. This is exact: condition rows see only
condition rows and motion rows only earlier rows, so appending a token
changes no earlier row, and the cached K/V are what a full forward over
the longer prefix would compute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, DimensionError, LengthError, TokenError, TrainingError
from .mate import CondEmbedding, MATEModel, encode, stack_conditions
from .mq import MQModel, encode_motions
from .nn import (Embedding, Linear, Module, TransformerEncoder, additive_mask,
                 causal_prefix_mask, sinusoidal_table)
from .numerics import Tensor


@dataclass
class UTTConfig:
    code_count: int
    dim: int = 64
    layers: int = 2
    heads: int = 4
    z_dim: int = 16
    max_context: int = 512
    beta_adv: float = 1.0

    @property
    def bos(self) -> int:
        return self.code_count

    @property
    def eos(self) -> int:
        return self.code_count + 1

    @property
    def vocab(self) -> int:
        return self.code_count + 2


@dataclass
class SamplingConfig:
    mode: str = "topk"        # "greedy" | "topk"
    temperature: float = 1.0
    top_k: int = 16


class UTTModel(Module):
    def __init__(self, cfg: UTTConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.dim
        self.token_table = Embedding(cfg.vocab, d, rng)
        self.z1 = Linear(cfg.z_dim, d, rng)
        # zero start: z has no effect at init, so early training learns the
        # condition cleanly; the injection path grows under training pressure
        self.z2 = Linear(d, d, rng, zero=True)
        self.encoder = TransformerEncoder(cfg.layers, d, cfg.heads, rng)
        self.out_proj = Linear(d, cfg.vocab, rng)
        self.pos = sinusoidal_table(cfg.max_context, d)


def build_mask(cond_len: int, seq_len: int) -> np.ndarray:
    """Visibility matrix over [condition rows, motion rows]: column c is
    visible to row r iff c < cond_len or c <= r."""
    if cond_len < 1 or seq_len < 0:
        raise ContractError("need cond_len >= 1 and seq_len >= 0")
    return causal_prefix_mask(cond_len, seq_len)


def _visible_keys(cond: CondEmbedding, seq_lens: np.ndarray, room: int = 0) -> np.ndarray:
    """[B, cond.length + longest prefix + room]: False at the padding
    columns of a pass over B prefixes of seq_lens tokens."""
    cols = np.arange(seq_lens.max() + room)
    return np.concatenate([np.arange(cond.length) <= cond.lengths[:, None],
                           (cols < seq_lens[:, None]) | (cols >= seq_lens.max())], axis=1)


def forward_logits(model: UTTModel, cond: CondEmbedding, prefixes, z=None,
                   caches=None) -> Tensor:
    """Next-token logits [B, S, K+2] of B teacher-forced prefixes, S the
    longest; row b's logits past its own prefix are padding.

    Every prefix must start with BOS; logits at position i predict element
    i+1. z is None or B entries, each a z vector or None for none; a z
    vector makes the row's global condition mlp(z) + glob. When caches (one
    empty list per encoder layer) is given, every column's K/V is stored in
    it for later one-row steps.
    """
    if len(prefixes) != len(cond.lengths):
        raise ContractError(f"{len(cond.lengths)} conditions got {len(prefixes)} prefixes")
    seq_lens = np.array([len(p) for p in prefixes])
    if not seq_lens.all() or any(p[0] != model.cfg.bos for p in prefixes):
        raise ContractError("token prefix must start with BOS")
    ids = np.full((len(prefixes), seq_lens.max()), model.cfg.bos)
    for row, prefix in zip(ids, prefixes):
        row[:len(prefix)] = prefix
    if ids.min() < 0 or ids.max() >= model.cfg.vocab:
        raise TokenError("prefix contains out-of-vocabulary ids")
    _check_context(model, int((1 + cond.lengths + seq_lens).max()))
    glob = cond.glob
    if z is not None and any(v is not None for v in z):  # rows without z shift by 0
        rows = Tensor([np.zeros(model.cfg.z_dim) if v is None else v for v in z])
        live = np.array([[v is not None] for v in z], dtype=np.float64)
        glob = glob + model.z2(nm.relu(model.z1(rows))) * live
    motion = model.token_table(ids) + Tensor(model.pos[:ids.shape[1]])
    stacked = nm.concat([glob.reshape(len(ids), 1, -1), cond.seq, motion], axis=1)
    visible = build_mask(cond.length, ids.shape[1]) & _visible_keys(cond, seq_lens)[:, None]
    hidden = model.encoder(stacked, additive_mask(visible)[:, None], caches)
    return model.out_proj(hidden[:, cond.length:])


def _check_context(model: UTTModel, length: int) -> None:
    if length > model.cfg.max_context:
        raise LengthError(f"context of {length} exceeds {model.cfg.max_context}")


def _step_logits(model: UTTModel, cond_lens, tokens: list, caches: list,
                 key_mask: np.ndarray | None = None) -> Tensor:
    """Next-token logits [B, 1, K+2] of B requests after [BOS] + tokens[b],
    feeding only each request's last token: one row per request, at its own
    position, that attends to its cached rows and to itself.

    cond_lens are the requests' real condition rows (1 + elements); caches
    hold one [K, V] pair of [B, heads, rows, dh] per layer; key_mask
    [B, 1, 1, >= rows + 1] hides padding columns, None when there are none.
    """
    positions = [len(t) for t in tokens]  # BOS sits at position 0
    _check_context(model, max(map(sum, zip(cond_lens, positions))) + 1)
    last = [t[-1:] for t in tokens]  # [B, 1]
    rows = model.token_table(last) + Tensor(model.pos[positions][:, None])
    if key_mask is not None:
        key_mask = key_mask[..., :caches[0][0].shape[-2] + 1]
    return model.out_proj(model.encoder(rows, key_mask, caches))


class TokenBatch(list):
    """Token arrays of a `generate_tokens` call in request order; `size` counts all tokens."""

    @property
    def size(self) -> int:
        return sum(tokens.size for tokens in self)


def _per_row(value, count: int) -> list:
    values = [None] * count if value is None else list(value)
    if len(values) != count:
        raise ContractError(f"a batch of {count} requests got {len(values)} values")
    return values


def generate_tokens(model: UTTModel, cond: CondEmbedding, max_len: int,
                    sampling: SamplingConfig | None = None, primitive=None,
                    z=None, *, seed, min_len: int = 0) -> TokenBatch:
    """Sample a codebook-token sequence for each of the B conditions of
    `cond`, with `seed` a list of B seeds; `primitive` and `z` are None or
    B entries, each None for none.

    Each output starts with its primitive verbatim and continues until EOS
    or max_len tokens. EOS is suppressed before min_len so exact lengths can
    be requested. Each request keeps its own RNG, position and EOS, so it
    gets the same tokens alone or in any batch.

    The first pass is one `forward_logits` call over the unfinished
    requests; it fills the K/V cache of the batch, padding columns
    included. Every later step feeds one row per unfinished request through
    `_step_logits`, under a key mask that hides those padding columns.
    """
    count = len(cond.lengths)
    seeds = _per_row(seed, count)
    zs = _per_row(z, count)
    sampling = sampling or SamplingConfig()
    tokens = []
    for prim in _per_row(primitive, count):
        prim = np.asarray(prim if prim is not None else [], dtype=np.int64)
        if max_len < prim.size:
            raise ContractError("max_len is smaller than the primitive")
        if prim.size and (prim.min() < 0 or prim.max() >= model.cfg.code_count):
            raise TokenError("primitive contains non-codebook ids")
        tokens.append([int(t) for t in prim])
    rngs = [np.random.default_rng(np.random.SeedSequence([s, 5])) for s in seeds]
    live = [b for b in range(count) if len(tokens[b]) < max_len]
    with nm.no_grad():
        if 0 < len(live) < count:  # the first pass takes the unfinished rows
            cond = CondEmbedding(Tensor(cond.glob.data[live]), Tensor(cond.seq.data[live]),
                                 cond.lengths[live])
        if live:
            caches = [[] for _ in model.encoder.layers]
            prefixes = [[model.cfg.bos] + tokens[b] for b in live]
            ends = np.array([len(p) for p in prefixes])
            logits = forward_logits(model, cond, prefixes, [zs[b] for b in live],
                                    caches).data[np.arange(len(live)), ends - 1]
            visible = _visible_keys(cond, ends, max_len)
            key_mask = None if visible.all() else additive_mask(visible)[:, None, None]
            cond_lens = 1 + cond.lengths
        while live:
            logits[:, model.cfg.bos] = -np.inf
            keep = []
            for row, b in enumerate(live):
                if len(tokens[b]) < min_len:
                    logits[row, model.cfg.eos] = -np.inf
                choice = _sample_one(logits[row], sampling, rngs[b])
                if choice != model.cfg.eos:
                    tokens[b].append(choice)
                    if len(tokens[b]) < max_len:
                        keep.append(row)
            if len(keep) < len(live):  # drop the finished requests
                live = [live[row] for row in keep]
                for layer in caches:
                    layer[:] = [Tensor(t.data[keep]) for t in layer]
                key_mask = None if key_mask is None else key_mask[keep]
                cond_lens = cond_lens[keep]
            if live:
                logits = _step_logits(model, cond_lens, [tokens[b] for b in live], caches,
                                      key_mask).data[:, -1]
    return TokenBatch(np.array(t, dtype=np.int64) for t in tokens)


def _sample_one(logits: np.ndarray, sampling: SamplingConfig,
                rng: np.random.Generator) -> int:
    if sampling.mode == "greedy":
        return int(np.argmax(logits))
    if sampling.mode != "topk":
        raise ContractError(f"unknown sampling mode {sampling.mode!r}")
    k = max(1, min(sampling.top_k, np.isfinite(logits).sum()))
    keep = np.argsort(-logits, kind="stable")[:k]
    tau = max(sampling.temperature, 1e-12)
    scaled = (logits[keep] - logits[keep].max()) / tau
    with np.errstate(under="ignore"):
        probs = np.exp(scaled)
    probs /= probs.sum()
    return int(keep[rng.choice(k, p=probs)])


# -- discriminator -------------------------------------------------------------------


class Discriminator(Module):
    """Per-patch realness scores for (global condition, motion) pairs.

    Two stride-2 convs reduce T frames to T/4 patch features; a linear map
    of the global embedding is added to every patch; a 2-layer transformer
    plus a per-position linear head yields one score per patch.
    """

    def __init__(self, frame_dim: int, dim: int, heads: int, rng: np.random.Generator):
        scale1 = np.sqrt(2.0 / (4 * frame_dim))
        scale2 = np.sqrt(2.0 / (4 * dim))
        self.k1 = Tensor(rng.normal(0, scale1, (4, frame_dim, dim)), requires_grad=True)
        self.b1 = Tensor(np.zeros(dim), requires_grad=True)
        self.k2 = Tensor(rng.normal(0, scale2, (4, dim, dim)), requires_grad=True)
        self.b2 = Tensor(np.zeros(dim), requires_grad=True)
        self.glob_proj = Linear(dim, dim, rng)
        self.encoder = TransformerEncoder(2, dim, heads, rng)
        self.score = Linear(dim, 1, rng)


def discriminate(disc: Discriminator, glob, motion) -> Tensor:
    """Validity scores [B, T/4] of motions [B, T, c] under global conditions [B, D]."""
    if motion.shape[-2] % 4 != 0:
        raise DimensionError(f"frame count {motion.shape[-2]} not divisible by 4")
    h = nm.relu(nm.conv1d_temporal(motion, disc.k1, stride=2, pad=1) + disc.b1)
    h = nm.relu(nm.conv1d_temporal(h, disc.k2, stride=2, pad=1) + disc.b2)
    h = h + disc.glob_proj(glob).reshape(glob.shape[0], 1, -1)
    hidden = disc.encoder(h)
    return disc.score(hidden).reshape(glob.shape[0], -1)


# -- losses ----------------------------------------------------------------------------


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean token-level cross-entropy of next-token logits [..., V] against
    targets [...]."""
    targets = np.asarray(targets, dtype=np.int64)
    flat = logits.reshape(-1, logits.shape[-1])
    return -nm.take_per_row(nm.log_softmax(flat, axis=-1), targets.ravel()).mean()


def straight_through_decode(model: UTTModel, mq: MQModel, logits: Tensor) -> Tensor:
    """Decode the argmax codebook tokens of logits [B, S, K+2] with
    gradients flowing through the softmax-weighted codebook mixture
    (straight-through)."""
    code_logits = logits[..., :model.cfg.code_count]
    tokens = np.argmax(code_logits.data, axis=-1)
    probs = nm.softmax(code_logits, axis=-1)
    soft = nm.matmul(probs, mq.codebook.table.detach())
    hard = mq.codebook.table.data[tokens]
    mixed = soft + Tensor(hard - soft.data)
    return mq.decode_embedding(mixed)


def _teacher_forcing(model: UTTModel, gt_tokens) -> tuple:
    """(prefixes [BOS, t..], targets [t.., EOS]) of token rows [B, S]."""
    gt_tokens = np.asarray(gt_tokens, dtype=np.int64)
    return (np.pad(gt_tokens, ((0, 0), (1, 0)), constant_values=model.cfg.bos),
            np.pad(gt_tokens, ((0, 0), (0, 1)), constant_values=model.cfg.eos))


def utt_loss(model: UTTModel, disc: Discriminator, cond: CondEmbedding,
             gt_tokens, mq: MQModel, z=None, beta_adv: float | None = None) -> tuple:
    """Teacher-forced training loss of B conditions and token rows [B, S],
    averaged over the batch: (total, parts).

    parts carries "ce" (cross-entropy over [t_0.., EOS]), "adv" (the
    non-saturating generator term on the decoded predicted tokens) and
    "fake" (the decoded motions [B, 4S, c], for the discriminator step).
    z is as for `forward_logits`.
    """
    beta = model.cfg.beta_adv if beta_adv is None else beta_adv
    prefixes, targets = _teacher_forcing(model, gt_tokens)
    logits = forward_logits(model, cond, prefixes, z=z)
    l_ce = cross_entropy(logits, targets)
    fake = straight_through_decode(model, mq, logits[:, :-1])
    l_adv = -discriminate(disc, cond.glob, fake).mean()
    total = l_ce + beta * l_adv
    return total, {"ce": l_ce, "adv": l_adv, "fake": fake}


def hinge_disc_loss(disc: Discriminator, glob, real, fake) -> Tensor:
    """Hinge real/fake objective on globs [B, D] and motions [B, T, c]."""
    real_scores = discriminate(disc, glob, real)
    fake_scores = discriminate(disc, glob, fake)
    return nm.relu(1.0 - real_scores).mean() + nm.relu(1.0 + fake_scores).mean()


# -- training ---------------------------------------------------------------------------


def mean_cross_entropy(mate: MATEModel, model: UTTModel, mq: MQModel, samples) -> float:
    """Held-out teacher-forced CE over (ModalityInput, frames) samples of
    equal length."""
    with nm.no_grad():
        cond = stack_conditions([encode(mate, inp) for inp, _ in samples])
        tokens = mq.encode_tokens(np.stack([frames for _, frames in samples]))
        prefixes, targets = _teacher_forcing(model, tokens)
        return cross_entropy(forward_logits(model, cond, prefixes), targets).item()


def train_utt(mate: MATEModel, model: UTTModel, disc: Discriminator, mq: MQModel,
              samples, epochs: int, seed: int, lr: float = 1e-3,
              batch_size: int = 4, z_prob: float = 0.5, log=None) -> list:
    """Adversarial teacher-forced training of MATE+UTT against the patch
    discriminator, alternating generator/discriminator steps 1:1, one
    graph each per minibatch.

    `samples` are (ModalityInput, frames) pairs covering both modalities,
    all with the same frame count; batches interleave them 1:1 when both
    are present. The quantizer is frozen throughout. Deterministic per seed.
    """
    if not samples:
        raise TrainingError("empty training set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    gen_opt = nm.Adam(mate.named_parameters() + model.named_parameters(), lr=lr)
    disc_opt = nm.Adam(disc.named_parameters(), lr=lr)
    mq_params = {id(p) for _, p in mq.named_parameters()}
    assert not any(id(p) in mq_params for _, p in gen_opt.params)

    text_idx = [i for i, (inp, _) in enumerate(samples) if inp.modality == "text"]
    audio_idx = [i for i, (inp, _) in enumerate(samples) if inp.modality == "audio"]
    token_cache = encode_motions(mq, [frames for _, frames in samples], batch_size)

    history = []
    for epoch in range(epochs):
        order = _interleave(rng, text_idx, audio_idx)
        sums = {"ce": 0.0, "adv": 0.0, "disc": 0.0}
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            zs = [rng.standard_normal(model.cfg.z_dim) if rng.random() < z_prob else None
                  for _ in batch]
            cond = stack_conditions([encode(mate, samples[i][0]) for i in batch])
            try:
                gen_loss, parts = utt_loss(model, disc, cond, token_cache[batch], mq, z=zs)
            except nm.NumericsError as exc:
                raise TrainingError(f"non-finite loss at epoch {epoch}: {exc}") from exc
            disc_loss = hinge_disc_loss(disc, cond.glob.detach(),
                                        np.stack([samples[i][1] for i in batch]),
                                        parts["fake"].detach())
            sums["ce"] += parts["ce"].item() * len(batch)
            sums["adv"] += parts["adv"].item() * len(batch)
            sums["disc"] += disc_loss.item() * len(batch)
            gen_opt.zero_grad()
            gen_loss.backward()
            gen_opt.step()
            disc_opt.zero_grad()
            disc_loss.backward()
            disc_opt.step()
        row = {key: val / len(order) for key, val in sums.items()}
        row["epoch"] = epoch
        history.append(row)
        if log:
            log(row)
    return history


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
