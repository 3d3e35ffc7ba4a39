"""Unified token transformer: autoregressive motion-token prediction under a
causal mask whose condition prefix stays fully visible, with optional
Gaussian z-injection into the global condition for diverse sampling, plus a
patch discriminator over decoded motion and the combined training loss.

Token vocabulary: the K codebook ids plus BOS (=K) and EOS (=K+1). A
teacher-forced step consumes [BOS, t_0..t_{S-1}] and targets
[t_0..t_{S-1}, EOS].

Sampling keeps a per-layer key/value cache: the first pass runs the encoder
once over [glob, condition, BOS, primitive] under `build_mask` and stores
every row's K/V; each later step feeds one row, the last sampled token. This
is exact, not an approximation: condition rows see only condition rows and
motion rows see only earlier rows, so appending a token changes no earlier
row's hidden state, and the cached K/V are what a full forward over the
longer prefix would compute for those rows. A batch of requests shares the
later steps: their caches are stacked, padded to the longest first pass,
and a key mask hides the padding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, DimensionError, LengthError, TokenError, TrainingError
from .mate import CondEmbedding, MATEModel, ModalityInput, encode
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

    def z_shift(self, z) -> Tensor:
        row = Tensor(np.asarray(z, dtype=np.float64)).reshape(1, -1)
        return self.z2(nm.relu(self.z1(row))).reshape(-1)


def build_mask(cond_len: int, seq_len: int) -> np.ndarray:
    """Visibility matrix over [condition rows, motion rows]: column c is
    visible to row r iff c < cond_len or c <= r."""
    if cond_len < 1 or seq_len < 0:
        raise ContractError("need cond_len >= 1 and seq_len >= 0")
    return causal_prefix_mask(cond_len, seq_len)


def forward_logits(model: UTTModel, cond: CondEmbedding, prefix, z=None,
                   caches=None) -> Tensor:
    """Next-token logits [S, K+2] for a teacher-forced prefix.

    prefix must start with BOS; logits at position i predict element i+1.
    When z is given the global condition becomes mlp(z) + glob. When
    caches (one empty list per encoder layer) is given, every row's K/V is
    stored in it for later one-row steps.
    """
    prefix = np.asarray(prefix, dtype=np.int64)
    if prefix.size == 0 or prefix[0] != model.cfg.bos:
        raise ContractError("token prefix must start with BOS")
    if prefix.min() < 0 or prefix.max() >= model.cfg.vocab:
        raise TokenError("prefix contains out-of-vocabulary ids")
    cond_len = cond.length
    seq_len = prefix.size
    _check_context(model, cond_len + seq_len)
    glob = cond.glob
    if z is not None:
        glob = glob + model.z_shift(z)
    motion = model.token_table(prefix) + Tensor(model.pos[:seq_len])
    stacked = nm.concat([glob.reshape(1, -1), cond.seq, motion], axis=0)
    mask = additive_mask(build_mask(cond_len, seq_len))
    hidden = model.encoder(stacked, mask, caches)
    return model.out_proj(hidden[cond_len:])


def _check_context(model: UTTModel, length: int) -> None:
    if length > model.cfg.max_context:
        raise LengthError(f"context of {length} exceeds {model.cfg.max_context}")


def _step_logits(model: UTTModel, cond_lens, tokens: list, caches: list,
                 key_mask: np.ndarray | None = None) -> Tensor:
    """Next-token logits [B, 1, K+2] of B requests after [BOS] + tokens[b],
    feeding only each request's last token: one row per request, at its own
    position, that attends to its cached rows and to itself.

    caches hold one [K, V] pair of [B, heads, rows, dh] per layer (see
    `_stack_caches`); key_mask [B, 1, 1, >= rows + 1] hides the padding
    between a request's first-pass rows and its later rows, None when no
    request is padded.
    """
    positions = [len(t) for t in tokens]  # BOS sits at position 0
    _check_context(model, max(map(sum, zip(cond_lens, positions))) + 1)
    last = [t[-1:] for t in tokens]  # [B, 1]
    rows = model.token_table(last) + Tensor(model.pos[positions][:, None])
    if key_mask is not None:
        key_mask = key_mask[..., :caches[0][0].shape[-2] + 1]
    return model.out_proj(model.encoder(rows, key_mask, caches))


def _stack_caches(caches: list, room: int) -> tuple:
    """One batch cache from per-request caches (per layer, [K, V] of
    [heads, rows, dh]): per layer, [K, V] of [B, heads, longest, dh] with
    each request's rows first and zeros after them, plus the additive key
    mask [B, 1, 1, longest + room] that hides the zeros (None when every
    request has the same rows). The zero keys get exactly zero attention
    weight, so padding changes no logit beyond float reassociation."""
    lengths = np.array([per_request[0][0].shape[-2] for per_request in caches])
    longest = int(lengths.max())
    stacked = []
    for layer in zip(*caches):  # the [K, V] of every request at one layer
        pair = []
        for j in (0, 1):
            heads, _, dh = layer[0][j].shape
            arr = np.zeros((len(layer), heads, longest, dh))
            for b, kv in enumerate(layer):
                arr[b, :, :lengths[b]] = kv[j].data
            pair.append(Tensor(arr))
        stacked.append(pair)
    if (lengths == longest).all():
        return stacked, None
    cols = np.arange(longest + room)
    padded = (cols >= lengths[:, None]) & (cols < longest)
    return stacked, additive_mask(~padded)[:, None, None, :]


class TokenBatch(list):
    """The token arrays of a batched `generate_tokens` call, one per request
    in request order; `size` counts all their tokens, as an array's does."""

    @property
    def size(self) -> int:
        return sum(tokens.size for tokens in self)


def _per_request(value, count: int, batch: bool) -> list:
    if not batch:
        return [value]
    values = [None] * count if value is None else list(value)
    if len(values) != count:
        raise ContractError(f"a batch of {count} requests got {len(values)} values")
    return values


def generate_tokens(model: UTTModel, cond, max_len: int,
                    sampling: SamplingConfig | None = None, primitive=None,
                    z=None, seed=0, min_len: int = 0):
    """Sample a codebook-token sequence.

    The output starts with `primitive` verbatim (if given) and continues
    until EOS or max_len tokens. EOS is suppressed before min_len so exact
    lengths can be requested. Deterministic given the seed.

    For a batch, `cond` is a list of conditions and `seed` a list of seeds;
    `primitive` and `z` are then per-request lists, or None for none. The
    result is a `TokenBatch`. Each request keeps its own RNG, position and
    EOS, so it gets the same tokens alone or in any batch.

    Each request's first step runs `forward_logits` over its condition, BOS
    and primitive and fills its own per-layer K/V cache. The caches are then
    stacked, padded to the longest, and every later step feeds one row per
    unfinished request, the token it just sampled, through one encoder call.
    The logits equal those of `forward_logits` on the full prefix, because
    no row of the mask sees a later row, so the cached K/V never change as
    the prefix grows.
    """
    batch = isinstance(cond, (list, tuple))
    conds = list(cond) if batch else [cond]
    seeds = _per_request(seed, len(conds), batch)
    zs = _per_request(z, len(conds), batch)
    sampling = sampling or SamplingConfig()
    tokens = []
    for prim in _per_request(primitive, len(conds), batch):
        prim = np.asarray(prim if prim is not None else [], dtype=np.int64)
        if max_len < prim.size:
            raise ContractError("max_len is smaller than the primitive")
        if prim.size and (prim.min() < 0 or prim.max() >= model.cfg.code_count):
            raise TokenError("primitive contains non-codebook ids")
        tokens.append([int(t) for t in prim])
    rngs = [np.random.default_rng(np.random.SeedSequence([s, 5])) for s in seeds]
    live = [b for b in range(len(conds)) if len(tokens[b]) < max_len]
    with nm.no_grad():
        caches = [[[] for _ in model.encoder.layers] for _ in live]
        logits = np.array([
            forward_logits(model, conds[b], [model.cfg.bos] + tokens[b], zs[b], c).data[-1]
            for b, c in zip(live, caches)])
        if live:
            caches, key_mask = _stack_caches(caches, max_len)
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
            if live:
                logits = _step_logits(model, [conds[b].length for b in live],
                                      [tokens[b] for b in live], caches, key_mask).data[:, -1]
    out = [np.array(t, dtype=np.int64) for t in tokens]
    return TokenBatch(out) if batch else out[0]


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
    """T/4 validity scores for a motion of T frames under a condition."""
    x = motion if isinstance(motion, Tensor) else Tensor(np.asarray(motion, dtype=np.float64))
    if x.shape[0] % 4 != 0:
        raise DimensionError(f"frame count {x.shape[0]} not divisible by 4")
    g = glob if isinstance(glob, Tensor) else Tensor(np.asarray(glob, dtype=np.float64))
    h = nm.relu(nm.conv1d_temporal(x, disc.k1, stride=2, pad=1) + disc.b1)
    h = nm.relu(nm.conv1d_temporal(h, disc.k2, stride=2, pad=1) + disc.b2)
    h = h + disc.glob_proj(g.reshape(1, -1))
    hidden = disc.encoder(h)
    return disc.score(hidden).reshape(-1)


# -- losses ----------------------------------------------------------------------------


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean token-level cross-entropy of next-token logits."""
    targets = np.asarray(targets, dtype=np.int64)
    return -nm.take_per_row(nm.log_softmax(logits, axis=-1), targets).mean()


def straight_through_decode(model: UTTModel, mq: MQModel, logits: Tensor) -> tuple:
    """Decode the argmax codebook tokens with gradients flowing through the
    softmax-weighted codebook mixture (straight-through)."""
    code_logits = logits[:, :model.cfg.code_count]
    tokens = np.argmax(code_logits.data, axis=-1)
    probs = nm.softmax(code_logits, axis=-1)
    soft = nm.matmul(probs, mq.codebook.table.detach())
    hard = mq.codebook.table.data[tokens]
    mixed = soft + Tensor(hard - soft.data)
    return mq.decode_embedding(mixed), tokens


def utt_loss(model: UTTModel, disc: Discriminator, cond: CondEmbedding,
             gt_tokens, mq: MQModel, z=None, beta_adv: float | None = None) -> tuple:
    """Teacher-forced training loss: (total, parts).

    parts carries "ce" (cross-entropy over [t_0.., EOS]), "adv" (the
    non-saturating generator term on the decoded predicted tokens) and
    "fake" (the decoded motion, for the discriminator step).
    """
    beta = model.cfg.beta_adv if beta_adv is None else beta_adv
    gt_tokens = np.asarray(gt_tokens, dtype=np.int64)
    prefix = np.concatenate([[model.cfg.bos], gt_tokens])
    targets = np.concatenate([gt_tokens, [model.cfg.eos]])
    logits = forward_logits(model, cond, prefix, z=z)
    assert logits.shape[0] == targets.size  # teacher-forcing bookkeeping
    l_ce = cross_entropy(logits, targets)
    fake, pred_tokens = straight_through_decode(model, mq, logits[:gt_tokens.size])
    l_adv = -discriminate(disc, cond.glob, fake).mean()
    total = l_ce + beta * l_adv
    return total, {"ce": l_ce, "adv": l_adv, "fake": fake, "pred_tokens": pred_tokens}


def hinge_disc_loss(disc: Discriminator, glob, real, fake) -> Tensor:
    """Hinge real/fake objective on (condition, motion) pairs."""
    real_scores = discriminate(disc, glob, real)
    fake_scores = discriminate(disc, glob, fake)
    return nm.relu(1.0 - real_scores).mean() + nm.relu(1.0 + fake_scores).mean()


# -- training ---------------------------------------------------------------------------


def mean_cross_entropy(mate: MATEModel, model: UTTModel, mq: MQModel, samples) -> float:
    """Held-out teacher-forced CE over (ModalityInput, frames) samples."""
    total = 0.0
    with nm.no_grad():
        for inp, frames in samples:
            cond = encode(mate, inp)
            tokens = mq.encode_tokens(frames[None])[0]
            prefix = np.concatenate([[model.cfg.bos], tokens])
            targets = np.concatenate([tokens, [model.cfg.eos]])
            logits = forward_logits(model, cond, prefix)
            total += cross_entropy(logits, targets).item()
    return total / max(len(samples), 1)


def train_utt(mate: MATEModel, model: UTTModel, disc: Discriminator, mq: MQModel,
              samples, epochs: int, seed: int, lr: float = 1e-3,
              batch_size: int = 4, z_prob: float = 0.5, log=None) -> list:
    """Adversarial teacher-forced training of MATE+UTT against the patch
    discriminator, alternating generator/discriminator steps 1:1.

    `samples` are (ModalityInput, frames) pairs covering both modalities;
    batches interleave them 1:1 when both are present. The quantizer is
    frozen throughout. Deterministic per seed.
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
            gen_losses, disc_losses = [], []
            for i in batch:
                inp, frames = samples[i]
                tokens = token_cache[i]
                z = rng.standard_normal(model.cfg.z_dim) if rng.random() < z_prob else None
                cond = encode(mate, inp)
                try:
                    total, parts = utt_loss(model, disc, cond, tokens, mq, z=z)
                except nm.NumericsError as exc:
                    raise TrainingError(f"non-finite loss at epoch {epoch}: {exc}") from exc
                gen_losses.append(total)
                sums["ce"] += parts["ce"].item()
                sums["adv"] += parts["adv"].item()
                d_loss = hinge_disc_loss(disc, cond.glob.detach(),
                                         frames, parts["fake"].detach())
                disc_losses.append(d_loss)
                sums["disc"] += d_loss.item()
            gen_loss = sum(gen_losses[1:], gen_losses[0]) * (1.0 / len(gen_losses))
            gen_opt.zero_grad()
            gen_loss.backward()
            gen_opt.step()
            disc_loss = sum(disc_losses[1:], disc_losses[0]) * (1.0 / len(disc_losses))
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
