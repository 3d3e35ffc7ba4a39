"""Diffusion motion decoder: a DDPM over motion frames conditioned on a
token sequence, used in place of the deterministic quantizer decoder when
diverse decodes are wanted.

The condition path embeds tokens, runs a small transformer and max-pools
over time to one vector. The denoiser projects noisy frames to the model
width, adds (condition + timestep embedding + frame positions) to every
row, runs a transformer and projects back to frame space, predicting the
injected noise. Sampling is the standard ancestral reverse process with
sigma_t = sqrt(beta_t) and no noise at the final step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ConfigError, ContractError, TokenError, TrainingError
from .mq import MQModel
from .nn import Embedding, Linear, Module, TransformerEncoder, sinusoidal_table
from .numerics import Tensor


@dataclass
class NoiseSchedule:
    """beta/alpha/alpha-bar tables indexed by t in [1, steps]."""

    steps: int
    betas: np.ndarray       # [steps + 1]; betas[0] unused
    alphas: np.ndarray
    alpha_bars: np.ndarray  # alpha_bars[0] == 1

    def check_step(self, t: int) -> None:
        if not 1 <= t <= self.steps:
            raise ContractError(f"step {t} outside [1, {self.steps}]")


def make_schedule(steps: int, beta_start: float | None = None,
                  beta_end: float | None = None) -> NoiseSchedule:
    """Linear beta schedule.

    Defaults follow the 1000-step convention (1e-4 .. 0.02) rescaled by
    1000/steps so total noising stays comparable at smaller step counts.
    """
    if steps < 1:
        raise ConfigError("need at least one diffusion step")
    if beta_start is None:
        beta_start = min(1e-4 * (1000.0 / steps), 0.999)
    if beta_end is None:
        beta_end = min(0.02 * (1000.0 / steps), 0.999)
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(f"invalid beta range [{beta_start}, {beta_end}]")
    betas = np.concatenate([[0.0], np.linspace(beta_start, beta_end, steps)])
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    return NoiseSchedule(steps, betas, alphas, alpha_bars)


def q_sample(sched: NoiseSchedule, x0: np.ndarray, t: int, eps: np.ndarray) -> np.ndarray:
    """Noisy sample at step t: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    sched.check_step(t)
    if x0.shape != eps.shape:
        raise ContractError("noise must match the data shape")
    abar = sched.alpha_bars[t]
    return math.sqrt(abar) * x0 + math.sqrt(1.0 - abar) * eps


@dataclass
class DMDConfig:
    frame_dim: int
    code_count: int
    steps: int = 50
    dim: int = 64
    cond_layers: int = 2
    layers: int = 2
    heads: int = 4
    max_tokens: int = 128
    max_frames: int = 512


class DMDModel(Module):
    """Token condition encoder (with temporal max-pool) plus the denoiser."""

    def __init__(self, cfg: DMDConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.dim
        self.token_table = Embedding(cfg.code_count, d, rng)
        self.cond_encoder = TransformerEncoder(cfg.cond_layers, d, cfg.heads, rng)
        self.step_table = Embedding(cfg.steps + 1, d, rng)
        self.in_proj = Linear(cfg.frame_dim, d, rng)
        self.denoiser = TransformerEncoder(cfg.layers, d, cfg.heads, rng)
        self.out_proj = Linear(d, cfg.frame_dim, rng)
        self.token_pos = sinusoidal_table(cfg.max_tokens, d)
        self.frame_pos = sinusoidal_table(cfg.max_frames, d)


def encode_condition(model: DMDModel, tokens) -> Tensor:
    """Token sequence -> one condition vector via element-wise temporal max."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        raise ContractError("empty token sequence")
    if tokens.min() < 0 or tokens.max() >= model.cfg.code_count:
        raise TokenError(f"token index outside [0, {model.cfg.code_count})")
    h = model.token_table(tokens) + Tensor(model.token_pos[:tokens.size])
    return nm.reduce_max(model.cond_encoder(h), axis=0)


def predict_noise(model: DMDModel, cond: Tensor, t: int, x_t) -> Tensor:
    """Predicted noise for x_t at step t under a pooled token condition."""
    if not 1 <= t <= model.cfg.steps:
        raise ContractError(f"step {t} outside [1, {model.cfg.steps}]")
    x = x_t if isinstance(x_t, Tensor) else Tensor(np.asarray(x_t, dtype=np.float64))
    step_emb = model.step_table(np.array([t]))[0]
    shift = (cond + step_emb).reshape(1, -1)
    h = model.in_proj(x) + shift + Tensor(model.frame_pos[:x.shape[0]])
    return model.out_proj(model.denoiser(h))


def dmd_loss_at(model: DMDModel, sched: NoiseSchedule, x0: np.ndarray, tokens,
                t: int, eps: np.ndarray) -> Tensor:
    """Squared noise-prediction error at a fixed (t, eps)."""
    x_t = q_sample(sched, x0, t, eps)
    cond = encode_condition(model, tokens)
    eps_hat = predict_noise(model, cond, t, x_t)
    return ((eps_hat - Tensor(eps)) ** 2).mean()


def dmd_loss(model: DMDModel, sched: NoiseSchedule, x0: np.ndarray, tokens,
             rng: np.random.Generator) -> Tensor:
    """Training loss with t ~ Uniform[1, steps] and eps ~ N(0, I)."""
    t = int(rng.integers(1, sched.steps + 1))
    eps = rng.standard_normal(x0.shape)
    return dmd_loss_at(model, sched, x0, tokens, t, eps)


def sample_reverse(model: DMDModel, sched: NoiseSchedule, cond: Tensor,
                   n_frames: int, seed: int = 0, deterministic: bool = False,
                   noise_fn=None) -> np.ndarray:
    """Ancestral reverse sampling from x_T ~ N(0, I).

    x_{t-1} = (x_t - beta_t/sqrt(1-abar_t) * eps_hat)/sqrt(alpha_t) + sqrt(beta_t)*z,
    with z = 0 at t = 1 (and at every step when deterministic=True).
    `noise_fn(t, x_t)` can replace the model prediction (testing hook).
    """
    if n_frames < 1:
        raise ContractError("need at least one frame")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
    x = rng.standard_normal((n_frames, model.cfg.frame_dim))
    with nm.no_grad():
        for t in range(sched.steps, 0, -1):
            if noise_fn is not None:
                eps_hat = np.asarray(noise_fn(t, x), dtype=np.float64)
            else:
                eps_hat = predict_noise(model, cond, t, x).data
            beta = sched.betas[t]
            coef = beta / math.sqrt(1.0 - sched.alpha_bars[t])
            x = (x - coef * eps_hat) / math.sqrt(sched.alphas[t])
            if t > 1 and not deterministic:
                x = x + math.sqrt(beta) * rng.standard_normal(x.shape)
    return x


def decode_tokens_dmd(model: DMDModel, sched: NoiseSchedule, tokens,
                      seed: int = 0) -> np.ndarray:
    """Sample one motion for a token sequence (4 frames per token)."""
    with nm.no_grad():
        cond = encode_condition(model, tokens)
    return sample_reverse(model, sched, cond, 4 * len(np.asarray(tokens)), seed=seed)


def train_dmd(model: DMDModel, sched: NoiseSchedule, mq: MQModel, motions,
              epochs: int, seed: int, lr: float = 1e-3, batch_size: int = 8,
              log=None) -> list:
    """Noise-prediction training; conditioning tokens come from the frozen
    quantizer. Deterministic per seed."""
    if not motions:
        raise TrainingError("empty training set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    token_cache = [mq.encode_tokens(frames) for frames in motions]
    opt = nm.Adam(model.named_parameters(), lr=lr)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(motions))
        total = 0.0
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            losses = []
            for i in batch:
                try:
                    losses.append(dmd_loss(model, sched, motions[i], token_cache[i], rng))
                except nm.NumericsError as exc:
                    raise TrainingError(f"non-finite loss at epoch {epoch}: {exc}") from exc
                total += losses[-1].item()
            loss = sum(losses[1:], losses[0]) * (1.0 / len(losses))
            opt.zero_grad()
            loss.backward()
            opt.step()
        row = {"epoch": epoch, "loss": total / len(motions)}
        history.append(row)
        if log:
            log(row)
    return history
