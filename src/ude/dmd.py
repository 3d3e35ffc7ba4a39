"""Diffusion motion decoder: a DDPM over motion frames conditioned on a
token sequence, used in place of the deterministic quantizer decoder when
diverse decodes are wanted.

The condition path embeds tokens, runs a small transformer and max-pools
over time to one vector. The denoiser projects noisy frames to the model
width, adds (condition + timestep embedding + frame positions) to every
row, runs a transformer and projects back to frame space, predicting the
injected noise. The model builds its noise schedule from its run config's
`diffusion_steps` and trains and samples under it; only `q_sample` takes a
schedule. Sampling is the standard ancestral reverse process with
sigma_t = sqrt(beta_t) and no noise at the final step.

Every function takes a batch of equal-length sequences (tokens [B, N],
frames [B, T, c], conditions [B, dim], a diffusion step t[b] and, to sample,
one seed and so one random stream per row); one sequence is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .errors import ConfigError, DataError
from .mq import DOWNSAMPLE, MQModel, encode_motions
from .nn import Embedding, Linear, Module, TransformerEncoder, sinusoidal_table
from .numerics import Tensor

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass
class NoiseSchedule:
    """beta/alpha/alpha-bar tables indexed by t in [1, steps]."""

    steps: int
    betas: np.ndarray       # [steps + 1]; betas[0] unused
    alphas: np.ndarray
    alpha_bars: np.ndarray  # alpha_bars[0] == 1


def make_schedule(steps: int) -> NoiseSchedule:
    """Linear beta schedule.

    The 1000-step convention (1e-4 .. 0.02), rescaled by 1000/steps so total
    noising stays comparable at smaller step counts and capped at 0.999.
    """
    if steps < 1:
        raise ConfigError("need at least one diffusion step")
    beta_start = min(1e-4 * (1000.0 / steps), 0.999)
    beta_end = min(0.02 * (1000.0 / steps), 0.999)
    betas = np.concatenate([[0.0], np.linspace(beta_start, beta_end, steps)])
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    return NoiseSchedule(steps, betas, alphas, alpha_bars)


def _check_steps(t, steps: int) -> None:
    t = np.asarray(t)
    if t.min() < 1 or t.max() > steps:
        raise DataError(f"steps {t} outside [1, {steps}]")


def q_sample(sched: NoiseSchedule, x0: np.ndarray, t, eps: np.ndarray) -> np.ndarray:
    """Noisy sample at step t: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps, with
    x0 and eps [B, T, c] and one step per row, t [B]."""
    _check_steps(t, sched.steps)
    if x0.shape != eps.shape or np.shape(t) != x0.shape[:-2]:
        raise DataError("need noise of the data's shape and one step per sequence")
    abar = sched.alpha_bars[np.asarray(t)][..., None, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


# the longest token sequence the decoder takes; its frame position table
# covers the DOWNSAMPLE frames of each token
MAX_TOKENS = 128


class DMDModel(Module):
    """Token condition encoder (max-pooled) plus the denoiser, sized by the run config."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.embed_dim
        self.token_table = Embedding(cfg.code_count, d, rng)
        self.cond_encoder = TransformerEncoder(cfg.dmd_cond_layers, d, cfg.dmd_heads, rng)
        self.step_table = Embedding(cfg.diffusion_steps + 1, d, rng)
        self.in_proj = Linear(cfg.frame_dim, d, rng)
        self.denoiser = TransformerEncoder(cfg.dmd_layers, d, cfg.dmd_heads, rng)
        self.out_proj = Linear(d, cfg.frame_dim, rng)
        self.token_pos = sinusoidal_table(MAX_TOKENS, d)
        self.frame_pos = sinusoidal_table(DOWNSAMPLE * MAX_TOKENS, d)
        self.sched = make_schedule(cfg.diffusion_steps)


def encode_condition(model: DMDModel, tokens) -> Tensor:
    """Token sequences [B, N] -> condition vectors [B, dim] via element-wise
    temporal max."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        raise DataError("empty token sequence")
    if tokens.min() < 0 or tokens.max() >= model.cfg.code_count:
        raise DataError(f"token index outside [0, {model.cfg.code_count})")
    h = model.token_table(tokens) + Tensor(model.token_pos[:tokens.shape[-1]])
    return nm.reduce_max(model.cond_encoder(h), axis=-2)


def predict_noise(model: DMDModel, cond: Tensor, t, x_t) -> Tensor:
    """Predicted noise for x_t [B, T, c] under pooled token conditions
    [B, dim], row b at diffusion step t[b]."""
    _check_steps(t, model.sched.steps)
    x = x_t if isinstance(x_t, Tensor) else Tensor(np.asarray(x_t, dtype=np.float64))
    shift = (cond + model.step_table(t)).reshape(*np.shape(t), 1, -1)
    h = model.in_proj(x) + shift + Tensor(model.frame_pos[:x.shape[-2]])
    return model.out_proj(model.denoiser(h))


def dmd_loss_at(model: DMDModel, x0: np.ndarray, tokens, t, eps: np.ndarray) -> Tensor:
    """Squared noise-prediction error at fixed per-row (t, eps), averaged
    over the batch (for equal lengths, the mean of the per-row losses)."""
    x_t = q_sample(model.sched, x0, t, eps)
    cond = encode_condition(model, tokens)
    eps_hat = predict_noise(model, cond, t, x_t)
    return ((eps_hat - Tensor(eps)) ** 2).mean()


def dmd_loss(model: DMDModel, x0: np.ndarray, tokens, rng: np.random.Generator) -> Tensor:
    """Training loss with t ~ Uniform[1, steps] and eps ~ N(0, I), both
    drawn row by row in batch order."""
    draws = [(rng.integers(1, model.sched.steps + 1), rng.standard_normal(x0.shape[1:]))
             for _ in x0]
    return dmd_loss_at(model, x0, tokens, np.array([t for t, _ in draws]),
                       np.stack([eps for _, eps in draws]))


def sample_reverse(model: DMDModel, cond: Tensor, n_frames: int, seeds) -> np.ndarray:
    """Ancestral reverse sampling from x_T ~ N(0, I), [B, n_frames, c] for
    conditions [B, dim]; row b draws all its noise from seeds[b].

    x_{t-1} = (x_t - beta_t/sqrt(1-abar_t) * eps_hat)/sqrt(alpha_t) + sqrt(beta_t)*z,
    with z = 0 at t = 1.
    """
    if n_frames < 1:
        raise DataError("need at least one frame")
    rngs = [np.random.default_rng(np.random.SeedSequence([s, 9])) for s in seeds]
    shape = (n_frames, model.cfg.frame_dim)
    x = np.stack([rng.standard_normal(shape) for rng in rngs])
    sched = model.sched
    with nm.no_grad():
        for t in range(sched.steps, 0, -1):
            eps_hat = predict_noise(model, cond, np.full(len(rngs), t), x).data
            beta = sched.betas[t]
            coef = beta / math.sqrt(1.0 - sched.alpha_bars[t])
            x = (x - coef * eps_hat) / math.sqrt(sched.alphas[t])
            if t > 1:
                x = x + math.sqrt(beta) * np.stack([rng.standard_normal(shape) for rng in rngs])
    return x


def decode_tokens_dmd(model: DMDModel, tokens, seeds) -> np.ndarray:
    """Sample one motion per token sequence of tokens [B, N] (DOWNSAMPLE
    frames per token), row b from seeds[b]."""
    tokens = np.asarray(tokens)
    with nm.no_grad():
        cond = encode_condition(model, tokens)
    return sample_reverse(model, cond, DOWNSAMPLE * tokens.shape[-1], seeds)


def train_dmd(model: DMDModel, mq: MQModel, motions, epochs: int, seed: int) -> list:
    """Noise-prediction training through `numerics.fit` at the model's
    run-config lr and batch_size; conditioning tokens come from the frozen
    quantizer. Deterministic per seed."""
    if not motions:
        raise DataError("empty training set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    batch_size = model.cfg.batch_size
    token_cache = encode_motions(mq, motions, batch_size)
    opt = nm.Adam(model.named_parameters(), lr=model.cfg.lr)

    def step(batch):
        loss = dmd_loss(model, np.stack([motions[i] for i in batch]), token_cache[batch], rng)
        return loss, {"loss": loss.item()}

    return nm.fit(epochs, batch_size, lambda: rng.permutation(len(motions)), opt, step)
