"""Modality-agnostic condition encoder.

Text token ids (via a trainable word-embedding table) or audio feature rows
(via a linear projection) are mapped into one shared space. Audio is
embedded at the motion-token rate: the `mq.DOWNSAMPLE` feature rows that
one motion token covers are stacked into one input row (a ViT-style patch
embedding), so a clip of T feature rows is ceil(T / DOWNSAMPLE) condition
rows; text is one row per word. A learnable
per-modality aggregation token is prepended, a per-modality token embedding
is added to every payload element, sinusoidal positions are added to the
whole sequence, and a full-attention transformer produces the output. The
first output row is the global embedding, the rest the sequential
embedding; downstream consumers never branch on the source modality.
`encode` runs a list of inputs through one transformer forward, each
zero-padded at the end to the longest under a key mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import numerics as nm
from .dataset import VOCAB_WORDS
from .errors import DataError
from .mq import DOWNSAMPLE
from .nn import Embedding, Linear, Module, TransformerEncoder, additive_mask, sinusoidal_table
from .numerics import Tensor

if TYPE_CHECKING:
    from .config import RunConfig

MODALITIES = ("text", "audio")


@dataclass
class ModalityInput:
    """Tagged condition payload: token ids for text, a [T, F] matrix for audio."""

    modality: str
    payload: np.ndarray

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise DataError(f"unknown modality {self.modality!r}")


def text_input(token_ids) -> ModalityInput:
    return ModalityInput("text", np.asarray(token_ids, dtype=np.int64))


def audio_input(features) -> ModalityInput:
    return ModalityInput("audio", np.asarray(features, dtype=np.float64))


@dataclass
class CondEmbedding:
    """(global, sequential) embeddings of B conditions; row b of seq holds
    lengths[b] real elements (one per text word, one per DOWNSAMPLE audio
    feature rows, i.e. one per motion token), then zero padding up to the
    longest."""

    glob: Tensor           # [B, D]
    seq: Tensor            # [B, I, D]
    lengths: np.ndarray    # [B]

    @property
    def length(self) -> int:
        """Rows each condition takes as a transformer prefix, padding included (1 + I)."""
        return 1 + self.seq.shape[1]


class MATEModel(Module):
    """Word table, audio projection and shared encoder, sized by the run config."""

    def __init__(self, cfg: RunConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.embed_dim
        self.word_table = Embedding(len(VOCAB_WORDS), d, rng)
        self.audio_proj = Linear(DOWNSAMPLE * cfg.feature_dim, d, rng)
        self.text_token = Tensor(rng.normal(0, 0.02, d), requires_grad=True)
        self.audio_token = Tensor(rng.normal(0, 0.02, d), requires_grad=True)
        self.text_agg = Tensor(rng.normal(0, 0.02, d), requires_grad=True)
        self.audio_agg = Tensor(rng.normal(0, 0.02, d), requires_grad=True)
        self.encoder = TransformerEncoder(cfg.mate_layers, d, cfg.mate_heads, rng)
        self.pos = sinusoidal_table(1 + max(cfg.max_text_len, audio_rows(cfg.max_audio_len)), d)

    def max_payload(self, modality: str) -> int:
        return self.cfg.max_text_len if modality == "text" else self.cfg.max_audio_len


def audio_rows(feature_rows: int) -> int:
    """Condition rows of an audio clip of `feature_rows` feature rows."""
    return -(-feature_rows // DOWNSAMPLE)


def embed_modality(model: MATEModel, inp: ModalityInput) -> Tensor:
    """Raw per-element embeddings [I, D] before tokens/positions: one row
    per text word, or one per DOWNSAMPLE audio feature rows concatenated in
    time order. A clip is zero-padded at the end to a multiple of
    DOWNSAMPLE rows, so it embeds exactly like the same rows followed by
    zero rows."""
    if inp.modality == "text":
        return model.word_table(inp.payload)
    if inp.modality == "audio":
        feats = inp.payload
        rows = audio_rows(len(feats))
        padded = np.pad(feats, ((0, rows * DOWNSAMPLE - len(feats)), (0, 0)))
        return model.audio_proj(Tensor(padded.reshape(rows, DOWNSAMPLE * feats.shape[1])))
    raise DataError(f"unknown modality {inp.modality!r}")


def assemble_sequence(model: MATEModel, raw: Tensor, modality: str) -> Tensor:
    """Prepend the aggregation token, add the modality token to payload rows,
    add positions to everything: output[0] = agg + pos[0],
    output[i+1] = raw[i] + token + pos[i+1]."""
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r}")
    count = raw.shape[0]
    if count + 1 > model.pos.shape[0]:
        raise DataError(f"condition of {count} elements exceeds the positional table")
    agg = model.text_agg if modality == "text" else model.audio_agg
    token = model.text_token if modality == "text" else model.audio_token
    first = (agg + Tensor(model.pos[0])).reshape(1, -1)
    if count == 0:
        return first
    rest = raw + token + Tensor(model.pos[1:count + 1])
    return nm.concat([first, rest], axis=0)


def encode(model: MATEModel, inputs) -> CondEmbedding:
    """Condition encodings of B inputs in one transformer forward: each is
    zero-padded at the end to the longest under a key mask, and `seq` holds
    the padding as zeros. An unpadded row has the bits of its lone encoding;
    a padded row agrees with it to float reordering."""
    if not inputs:
        raise DataError("no conditions to encode")
    seqs = []
    for inp in inputs:
        if len(inp.payload) > model.max_payload(inp.modality):
            raise DataError(
                f"{inp.modality} condition of {len(inp.payload)} elements exceeds "
                f"the {model.max_payload(inp.modality)}-element limit")
        seqs.append(assemble_sequence(model, embed_modality(model, inp), inp.modality))
    lengths = np.array([seq.shape[0] - 1 for seq in seqs])
    rows, dim = 1 + lengths.max(), model.cfg.embed_dim
    parts = []
    for seq in seqs:
        parts += [seq, np.zeros((rows - seq.shape[0], dim))]
    visible = np.arange(rows) <= lengths[:, None]
    out = model.encoder(nm.concat(parts, axis=0).reshape(len(seqs), rows, dim),
                        additive_mask(visible)[:, None, None])
    return CondEmbedding(glob=out[:, 0], seq=out[:, 1:] * visible[:, 1:, None], lengths=lengths)
