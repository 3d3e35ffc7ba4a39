"""Modality-agnostic condition encoder.

Text token ids (via a trainable word-embedding table) or audio feature rows
(via a linear projection) are mapped into one shared space: a learnable
per-modality aggregation token is prepended, a per-modality token embedding
is added to every payload element, sinusoidal positions are added to the
whole sequence, and a full-attention transformer produces the output. The
first output row is the global embedding, the rest the sequential
embedding; downstream consumers never branch on the source modality.
Each input is encoded as a batch of one; `stack_conditions` pads several
encodings into one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, LengthError
from .nn import Embedding, Linear, Module, TransformerEncoder, sinusoidal_table
from .numerics import Tensor

MODALITIES = ("text", "audio")


@dataclass
class ModalityInput:
    """Tagged condition payload: token ids for text, a [T, F] matrix for audio."""

    modality: str
    payload: np.ndarray

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ContractError(f"unknown modality {self.modality!r}")


def text_input(token_ids) -> ModalityInput:
    return ModalityInput("text", np.asarray(token_ids, dtype=np.int64))


def audio_input(features) -> ModalityInput:
    return ModalityInput("audio", np.asarray(features, dtype=np.float64))


@dataclass
class CondEmbedding:
    """(global, sequential) embeddings of B conditions; row b of seq holds
    lengths[b] real elements, then zero padding up to the longest."""

    glob: Tensor           # [B, D]
    seq: Tensor            # [B, I, D]
    lengths: np.ndarray    # [B]

    @property
    def length(self) -> int:
        """Rows each condition takes as a transformer prefix, padding included (1 + I)."""
        return 1 + self.seq.shape[1]


def stack_conditions(conds) -> CondEmbedding:
    """One batch of the conditions of several CondEmbeddings, in order."""
    longest = max(c.seq.shape[1] for c in conds)
    seqs = [nm.concat([c.seq, np.zeros((len(c.lengths), longest - c.seq.shape[1],
                                        c.seq.shape[2]))], axis=1) for c in conds]
    return CondEmbedding(nm.concat([c.glob for c in conds], axis=0), nm.concat(seqs, axis=0),
                         np.concatenate([c.lengths for c in conds]))


@dataclass
class MATEConfig:
    vocab_size: int
    audio_dim: int
    dim: int = 64
    layers: int = 2
    heads: int = 4
    max_text_len: int = 77
    max_audio_len: int = 256


class MATEModel(Module):
    def __init__(self, cfg: MATEConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.dim
        self.word_table = Embedding(cfg.vocab_size, d, rng)
        self.audio_proj = Linear(cfg.audio_dim, d, rng)
        self.text_token = Tensor(rng.normal(0, 0.02, d), requires_grad=True)
        self.audio_token = Tensor(rng.normal(0, 0.02, d), requires_grad=True)
        self.text_agg = Tensor(rng.normal(0, 0.02, d), requires_grad=True)
        self.audio_agg = Tensor(rng.normal(0, 0.02, d), requires_grad=True)
        self.encoder = TransformerEncoder(cfg.layers, d, cfg.heads, rng)
        self.pos = sinusoidal_table(1 + max(cfg.max_text_len, cfg.max_audio_len), d)

    def max_payload(self, modality: str) -> int:
        return self.cfg.max_text_len if modality == "text" else self.cfg.max_audio_len


def embed_modality(model: MATEModel, inp: ModalityInput) -> Tensor:
    """Raw per-element embeddings [I, D] before tokens/positions."""
    if inp.modality == "text":
        return model.word_table(inp.payload)
    if inp.modality == "audio":
        return model.audio_proj(Tensor(inp.payload))
    raise ContractError(f"unknown modality {inp.modality!r}")


def assemble_sequence(model: MATEModel, raw: Tensor, modality: str) -> Tensor:
    """Prepend the aggregation token, add the modality token to payload rows,
    add positions to everything: output[0] = agg + pos[0],
    output[i+1] = raw[i] + token + pos[i+1]."""
    if modality not in MODALITIES:
        raise ContractError(f"unknown modality {modality!r}")
    count = raw.shape[0]
    if count + 1 > model.pos.shape[0]:
        raise LengthError(f"condition of {count} elements exceeds the positional table")
    agg = model.text_agg if modality == "text" else model.audio_agg
    token = model.text_token if modality == "text" else model.audio_token
    first = (agg + Tensor(model.pos[0])).reshape(1, -1)
    if count == 0:
        return first
    rest = raw + token + Tensor(model.pos[1:count + 1])
    return nm.concat([first, rest], axis=0)


def encode(model: MATEModel, inp: ModalityInput) -> CondEmbedding:
    """Full condition encoding of one input, as a batch of one."""
    if len(inp.payload) > model.max_payload(inp.modality):
        raise LengthError(
            f"{inp.modality} condition of {len(inp.payload)} elements exceeds "
            f"the {model.max_payload(inp.modality)}-element limit")
    raw = embed_modality(model, inp)
    seq_in = assemble_sequence(model, raw, inp.modality)
    out = model.encoder(seq_in.reshape(1, *seq_in.shape))
    return CondEmbedding(glob=out[:, 0], seq=out[:, 1:], lengths=np.array([raw.shape[0]]))
