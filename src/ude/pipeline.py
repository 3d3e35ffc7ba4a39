"""Staged pipeline: build/train/save/load the model stack, generate motion
from text or audio conditions, stitch text-to-audio transitions through
token primitives, and run the metric battery.

Stage order is mq -> utt (mate+utt, trained against a discriminator that
is not saved) -> dmd -> retrieval, one `STAGES` entry each; the utt and
dmd stages record the content hash of the mq checkpoint they were trained
against, and loading verifies those hashes so stale mixes fail loudly.
`MODELS` maps every checkpoint section to its one constructor: the
trainers build through it and `load_models` rebuilds any stage's sections
through it.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import checkpoint as ckpt
from . import dmd as dmd_mod
from . import metrics as metrics_mod
from . import mq as mq_mod
from . import numerics as nm
from . import utt as utt_mod
from .audio import AudioFeatureSequence
from .config import RunConfig
from .dataset import UNK_ID, VOCAB_WORDS, load_samples, synth_dataset, tokenize
from .errors import ConfigError, DataError, StageError
from .fileio import atomic_write
from .mate import MATEConfig, MATEModel, audio_input, stack_conditions, text_input
from .mate import encode as mate_encode
from .motion import MotionSequence
from .mq import DOWNSAMPLE
from .utt import SamplingConfig


def run_synth(cfg: RunConfig, seed: int, out_dir) -> dict:
    entries = synth_dataset(cfg, seed, out_dir)
    atomic_write(os.path.join(os.fspath(out_dir), "config.json"),
                 (json.dumps({"config": cfg.to_dict(), "seed": seed}, indent=2) + "\n").encode())
    counts = {}
    for entry in entries:
        key = f"{entry.split}/{entry.modality}"
        counts[key] = counts.get(key, 0) + 1
    return counts


# -- models ------------------------------------------------------------------------
#
# Every checkpoint section's model, built from its recorded config dict, plus
# the utt stage's discriminator, which is trained but not saved. The trainers
# build through this table and the loaders rebuild through it, so each
# constructor is spelled once.

MODELS = {
    "mq": lambda c, rng: mq_mod.MQModel(mq_mod.MQConfig(**c), rng),
    "mate": lambda c, rng: MATEModel(MATEConfig(**c), rng),
    "utt": lambda c, rng: utt_mod.UTTModel(utt_mod.UTTConfig(**c), rng),
    "disc": lambda c, rng: utt_mod.Discriminator(**c, rng=rng),
    "dmd": lambda c, rng: dmd_mod.DMDModel(dmd_mod.DMDConfig(**c), rng),
    "retrieval": lambda c, rng: metrics_mod.RetrievalEncoder(**c, rng=rng),
}


def _build(section: str, rng, **config) -> tuple:
    """(recorded config, model) for one section; a model with a config
    dataclass records all of its fields, defaults included."""
    model = MODELS[section](config, rng)
    if hasattr(model, "cfg"):
        config = asdict(model.cfg)
    return config, model


def _write_loss_log(path, cfg: RunConfig, seed: int, history, columns) -> None:
    lines = [f"# config: {json.dumps(cfg.to_dict())} seed: {seed}",
             ",".join(["epoch", *columns])]
    for row in history:
        lines.append(",".join(str(row[c]) if isinstance(row[c], int) else repr(float(row[c]))
                              for c in ("epoch", *columns)))
    atomic_write(path, ("\n".join(lines) + "\n").encode())


# -- training stages -----------------------------------------------------------------
#
# Each trainer builds its models from `rng`, trains them on the train split for
# `epochs` epochs and returns ({section: (config, model)}, buffers, loss history).
# The utt and dmd trainers read the mq checkpoint from `out_dir`.


def _train_mq(cfg, train, out_dir, rng, seed, epochs) -> tuple:
    config, model = _build("mq", rng, frame_dim=cfg.frame_dim, code_count=cfg.code_count,
                           code_dim=cfg.code_dim, hidden=cfg.mq_hidden,
                           beta_codebook=cfg.beta_codebook, beta_commit=cfg.beta_commit)
    history = mq_mod.train_mq(model, [s.motion.frames for s in train], epochs=epochs,
                              seed=seed, lr=cfg.lr, batch_size=cfg.batch_size)
    buffers = {"center": model.center, "scale": model.scale, "usage": model.usage}
    return {"mq": (config, model)}, buffers, history


def _train_utt(cfg, train, out_dir, rng, seed, epochs) -> tuple:
    mq_model = load_mq(out_dir)
    models = {
        "mate": _build("mate", rng, vocab_size=len(VOCAB_WORDS), audio_dim=cfg.feature_dim,
                       dim=cfg.embed_dim, layers=cfg.mate_layers, heads=cfg.mate_heads,
                       max_text_len=cfg.max_text_len, max_audio_len=cfg.max_audio_len),
        "utt": _build("utt", rng, code_count=cfg.code_count, dim=cfg.embed_dim,
                      layers=cfg.utt_layers, heads=cfg.utt_heads, z_dim=cfg.z_dim,
                      max_context=cfg.max_context, beta_adv=cfg.beta_adv),
    }
    # inference reads only mate and utt, so the discriminator is not saved
    _, disc = _build("disc", rng, frame_dim=cfg.frame_dim, dim=cfg.embed_dim,
                     heads=cfg.utt_heads)
    mate, utt = (model for _, model in models.values())
    samples = [(_sample_input(s), s.motion.frames) for s in train]
    history = utt_mod.train_utt(mate, utt, disc, mq_model, samples, epochs=epochs,
                                seed=seed, lr=cfg.lr, batch_size=cfg.batch_size,
                                z_prob=cfg.z_prob)
    return models, None, history


def _train_dmd(cfg, train, out_dir, rng, seed, epochs) -> tuple:
    mq_model = load_mq(out_dir)
    config, model = _build("dmd", rng, frame_dim=cfg.frame_dim, code_count=cfg.code_count,
                           steps=cfg.diffusion_steps, dim=cfg.embed_dim,
                           cond_layers=cfg.dmd_cond_layers, layers=cfg.dmd_layers,
                           heads=cfg.dmd_heads)
    sched = dmd_mod.make_schedule(cfg.diffusion_steps)
    history = dmd_mod.train_dmd(model, sched, mq_model, [s.motion.frames for s in train],
                                epochs=epochs, seed=seed, lr=cfg.lr,
                                batch_size=cfg.batch_size)
    return {"dmd": (config, model)}, None, history


def _train_retrieval(cfg, train, out_dir, rng, seed, epochs) -> tuple:
    # the encoder draws its weights from its own rng stream inside the trainer
    config = {"frame_dim": cfg.frame_dim, "vocab_size": len(VOCAB_WORDS),
              "out_dim": cfg.retrieval_dim}
    pairs = [(s.motion.frames, s.text_ids) for s in train if s.modality == "text"]
    enc, history = metrics_mod.train_retrieval_encoder(pairs, **config, epochs=epochs,
                                                       seed=seed, lr=cfg.lr)
    return {"retrieval": (config, enc)}, None, history


@dataclass(frozen=True)
class Stage:
    """One training stage: its trainer, the stages whose checkpoint hashes it
    records, its loss-CSV columns and the tag of its rng stream (fixed, so
    that a seed keeps giving the same models)."""
    train: Callable
    deps: tuple
    columns: tuple
    tag: int


# in training order; a stage comes after every stage it depends on
STAGES = {
    "mq": Stage(_train_mq, (), ("total", "recon", "codebook", "commit", "dead_codes"), 101),
    "utt": Stage(_train_utt, ("mq",), ("ce", "adv", "disc"), 102),
    "dmd": Stage(_train_dmd, ("mq",), ("loss",), 103),
    "retrieval": Stage(_train_retrieval, (), ("loss",), 104),
}


def train_stage(stage: str, cfg: RunConfig, data_dir, out_dir, seed: int,
                epochs: int | None = None) -> dict:
    """Train one stage, or "all" of them in order, writing checkpoints and
    loss logs. The train split is read and checked once per call, after the
    first stage's dependency checkpoints are found."""
    if stage != "all" and stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    if epochs is not None and epochs < 0:
        raise ConfigError(f"epoch count {epochs} is negative")
    os.makedirs(os.fspath(out_dir), exist_ok=True)
    if stage == "all":
        train = _load_train(cfg, data_dir)
        return {s: _train_one(s, cfg, train, out_dir, seed, epochs, _dep_hashes(out_dir, s))
                for s in STAGES}
    deps = _dep_hashes(out_dir, stage)
    return _train_one(stage, cfg, _load_train(cfg, data_dir), out_dir, seed, epochs, deps)


def _dep_hashes(out_dir, stage: str) -> dict:
    return {dep: ckpt.stage_hash(out_dir, dep) for dep in STAGES[stage].deps}


def _load_train(cfg: RunConfig, data_dir) -> list:
    train = load_samples(data_dir, split="train")
    if not train:
        raise DataError(f"{data_dir}: the manifest lists no train samples")
    _check_samples(train, cfg)
    return train


def _train_one(stage: str, cfg: RunConfig, train, out_dir, seed: int, epochs, deps) -> dict:
    """Train one stage on the loaded train split and save its checkpoint,
    recording the dependency hashes `deps`, and its loss log."""
    spec = STAGES[stage]
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.tag]))
    # every op's finite check raises NumericsError on a diverging run, so
    # numpy's own overflow warnings would only come first and say less
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        models, buffers, history = spec.train(
            cfg, train, out_dir, rng, seed,
            epochs if epochs is not None else getattr(cfg, f"epochs_{stage}"))
    sections = {name: {"config": config, "params": ckpt.params_blob(model)}
                for name, (config, model) in models.items()}
    ckpt.save_checkpoint(ckpt.stage_path(out_dir, stage), stage, sections,
                         cfg.to_dict(), deps=deps, buffers=buffers)
    _write_loss_log(os.path.join(os.fspath(out_dir), f"{stage}_loss.csv"), cfg, seed,
                    history, spec.columns)
    return {"history": history}


def _check_samples(samples, cfg: RunConfig) -> None:
    """Before any model is built: every sample's motion and features run at
    the config's fps, the rate that training and the beat metrics read them
    at, and every condition fits MATE's length limits."""
    for s in samples:
        rates = {"motion": s.motion.fps}
        if s.features is not None:
            rates["features"] = s.features.frame_rate
        for kind, rate in rates.items():
            if rate != cfg.fps:
                raise DataError(f"sample {s.id}: {kind} rate {rate} is not the config's "
                                f"fps {cfg.fps}")
    for s in samples:
        if s.text_ids is not None and s.text_ids.size > cfg.max_text_len:
            raise DataError(f"sample {s.id}: text of {s.text_ids.size} tokens exceeds "
                            f"max_text_len {cfg.max_text_len}")
        if s.features is not None and s.features.length > cfg.max_audio_len:
            raise DataError(f"sample {s.id}: {s.features.length} feature rows exceed "
                            f"max_audio_len {cfg.max_audio_len}")


def _sample_input(sample):
    if sample.modality == "text":
        return text_input(sample.text_ids)
    return audio_input(sample.features.features)


# -- loading -----------------------------------------------------------------------


def load_models(ckpt_dir, stage: str) -> dict:
    """{section: model} rebuilt from one stage checkpoint, its dependency
    hashes verified and its buffers restored onto the stage's own model."""
    body = ckpt.load_stage(ckpt_dir, stage)
    models = {}
    for name, section in body["sections"].items():
        if name == "disc":  # older utt checkpoints hold it; nothing reads it
            continue
        if name not in MODELS:
            raise DataError(f"{stage} checkpoint has an unknown section {name!r}")
        try:
            models[name] = MODELS[name](section["config"], np.random.default_rng(0))
        except TypeError as exc:  # a config key the model lacks, or one it needs
            raise DataError(f"{stage} checkpoint section {name!r} does not fit its "
                            f"model ({exc}); retrain stage {stage}") from exc
        ckpt.load_params(models[name], section["params"])
    for name, value in body["buffers"].items():
        default = getattr(models[stage], name, None)
        if not isinstance(default, np.ndarray):
            raise DataError(f"{stage} checkpoint has an unknown buffer {name!r}")
        try:
            value = np.array(value, dtype=default.dtype)
        except (TypeError, ValueError) as exc:
            raise DataError(f"{stage} checkpoint buffer {name!r}: {exc}") from exc
        if value.shape != default.shape:
            raise DataError(f"{stage} checkpoint buffer {name!r} has shape {value.shape}, "
                            f"not {default.shape}")
        setattr(models[stage], name, value)
    return models


def load_mq(ckpt_dir) -> mq_mod.MQModel:
    return load_models(ckpt_dir, "mq")["mq"]


def load_utt_stack(ckpt_dir) -> tuple:
    """(mate, utt) rebuilt from the utt checkpoint, deps verified."""
    models = load_models(ckpt_dir, "utt")
    return models["mate"], models["utt"]


def load_dmd(ckpt_dir) -> tuple:
    model = load_models(ckpt_dir, "dmd")["dmd"]
    return model, dmd_mod.make_schedule(model.cfg.steps)


def load_retrieval(ckpt_dir) -> metrics_mod.RetrievalEncoder:
    return load_models(ckpt_dir, "retrieval")["retrieval"]


def load_generation_stack(ckpt_dir, decoder: str = "dmd"):
    """Everything `generate` needs, from the checkpoints alone; decoder is
    "vq" or "dmd"."""
    mq_model = load_mq(ckpt_dir)
    mate, utt = load_utt_stack(ckpt_dir)
    stack = {"mq": mq_model, "mate": mate, "utt": utt, "dmd": None, "sched": None}
    if decoder == "dmd":
        model, sched = load_dmd(ckpt_dir)
        stack["dmd"], stack["sched"] = model, sched
    elif decoder != "vq":
        raise ConfigError(f"unknown decoder {decoder!r}")
    return stack


# -- generation ----------------------------------------------------------------------


def condition_from_request(stack, cfg: RunConfig, modality: str, prompt=None,
                           features=None):
    if modality == "text":
        ids = tokenize(prompt or "")
        if ids.size == 0:
            raise DataError("empty prompt")
        if ids.size > stack["mate"].cfg.max_text_len:
            raise ConfigError(f"a prompt of {ids.size} tokens exceeds max_text_len "
                              f"{stack['mate'].cfg.max_text_len}")
        return text_input(ids), bool((ids == UNK_ID).all())
    if modality == "audio":
        if isinstance(features, AudioFeatureSequence):
            if features.frame_rate != cfg.fps:
                raise DataError(f"features at {features.frame_rate} rows/s do not match "
                                f"the config's fps {cfg.fps}")
            features = features.features
        feats = np.asarray(features, dtype=np.float64)
        want = stack["mate"].cfg.audio_dim
        if feats.ndim != 2 or feats.shape[1] != want:
            raise DataError(f"feature matrix must be [T, {want}]")
        return audio_input(feats), False
    raise ConfigError(f"unknown modality {modality!r}")


def generate_motion(stack, cfg: RunConfig, modality: str, frames: int, seed,
                    prompt=None, features=None, use_z: bool = False,
                    decoder: str = "vq", primitive=None):
    """Condition -> tokens -> frames. Returns tokens, frames, and flags.

    Every request gets exactly frames / 4 tokens. A batch of requests of
    one modality and one frame count passes a list of seeds plus a list of
    prompts (text) or feature matrices (audio), and a list of equal-length
    primitives if any; it returns one result per request, each the one it
    would get alone, and samples and decodes them together.
    """
    if frames < DOWNSAMPLE or frames % DOWNSAMPLE != 0:
        raise ConfigError(f"target frames {frames} must be a positive multiple of {DOWNSAMPLE}")
    _check_decodable(stack, decoder, frames)
    batch = isinstance(seed, (list, tuple))
    seeds = list(seed) if batch else [seed]
    prompts, feats = (utt_mod._per_row(value, len(seeds)) if batch else [value]
                      for value in (prompt, features))
    if primitive is not None and not batch:
        primitive = [primitive]
    utt = stack["utt"]
    n_tokens = frames // DOWNSAMPLE
    conds, zs, unk_only = [], [], []
    for s, p, f in zip(seeds, prompts, feats):
        inp, unk = condition_from_request(stack, cfg, modality, p, f)
        with nm.no_grad():  # a batch holds all its conditions: keep no graphs
            cond = mate_encode(stack["mate"], inp)
        if cond.length + n_tokens > utt.cfg.max_context:
            raise ConfigError(f"{frames} frames need a context of {cond.length + n_tokens}, "
                              f"more than max_context {utt.cfg.max_context}")
        conds.append(cond)
        rng = np.random.default_rng(np.random.SeedSequence([s, 41]))
        zs.append(rng.standard_normal(utt.cfg.z_dim) if use_z else None)
        unk_only.append(unk)
    sampling = SamplingConfig(temperature=cfg.temperature, top_k=cfg.top_k)
    tokens = utt_mod.generate_tokens(utt, stack_conditions(conds), n_tokens, sampling,
                                     primitive=primitive, z=zs, seed=seeds)
    frames_out = _decode(stack, decoder, tokens, seeds)
    results = [{"tokens": t, "frames": f, "unk_only": u}
               for t, f, u in zip(tokens, frames_out, unk_only)]
    return results if batch else results[0]


def _check_decodable(stack, decoder: str, frames: int) -> None:
    """Before any sampling: the diffusion decoder takes at most max_tokens
    tokens (DOWNSAMPLE frames each)."""
    dmd = stack["dmd"] if decoder == "dmd" else None
    tokens = frames // DOWNSAMPLE
    if dmd is not None and tokens > dmd.cfg.max_tokens:
        raise ConfigError(f"{frames} frames need {tokens} tokens, more than the "
                          f"diffusion decoder's max_tokens {dmd.cfg.max_tokens}")


def _decode(stack, decoder: str, tokens, seeds) -> np.ndarray:
    """Frames [B, 4N, c] for token rows [B, N], row b seeded by seeds[b]
    (the vq decoder draws nothing)."""
    if decoder == "vq":
        return stack["mq"].decode_tokens(tokens)
    if decoder == "dmd":
        if stack["dmd"] is None:
            raise StageError("requires stage dmd: no diffusion decoder loaded")
        return dmd_mod.decode_tokens_dmd(stack["dmd"], stack["sched"], tokens, seeds)
    raise ConfigError(f"unknown decoder {decoder!r}")


def transition_motion(stack, cfg: RunConfig, prompt: str, features, seed: int,
                      text_frames: int, audio_frames: int, primitive_len: int = 8,
                      decoder: str = "vq") -> dict:
    """Text segment, then an audio segment conditioned on the last
    `primitive_len` text tokens; the concatenated tokens are decoded in one
    pass and the junction discontinuity is reported."""
    # the text segment has exactly text_frames / DOWNSAMPLE tokens to take the primitive from
    if (min(text_frames, audio_frames) < DOWNSAMPLE
            or not 0 <= primitive_len <= text_frames // DOWNSAMPLE):
        raise ConfigError(f"a transition needs at least {DOWNSAMPLE} text and {DOWNSAMPLE} "
                          f"audio frames and a primitive of 0 to text_frames/{DOWNSAMPLE} "
                          f"tokens, got {text_frames}, {audio_frames} and {primitive_len}")
    _check_decodable(stack, decoder, text_frames + audio_frames)
    text_out = generate_motion(stack, cfg, "text", text_frames, seed,
                               prompt=prompt, decoder="vq")
    text_tokens = text_out["tokens"]
    primitive = text_tokens[text_tokens.size - primitive_len:]
    audio_out = generate_motion(stack, cfg, "audio", audio_frames + DOWNSAMPLE * primitive_len,
                                seed + 1, features=features, decoder="vq",
                                primitive=primitive)
    cont_tokens = audio_out["tokens"]
    full = np.concatenate([text_tokens, cont_tokens[primitive_len:]])
    boundary_frame = DOWNSAMPLE * text_tokens.size
    motion = MotionSequence(cfg.fps, _decode(stack, decoder, full[None], [seed])[0])
    report = boundary_report(motion, boundary_frame)
    report.update({
        "text_tokens": text_tokens.tolist(),
        "continuation_tokens": cont_tokens.tolist(),
        "full_tokens": full.tolist(),
        "primitive_len": primitive_len,
        "boundary_frame": boundary_frame,
    })
    return {"motion": motion, "report": report}


def boundary_report(motion: MotionSequence, boundary_frame: int) -> dict:
    """Max per-joint jump across the boundary vs the median frame-to-frame
    displacement of the whole output."""
    pos = motion.positions()
    disp = np.linalg.norm(pos[1:] - pos[:-1], axis=-1)  # [T-1, J]
    i = min(max(boundary_frame - 1, 0), disp.shape[0] - 1)
    return {
        "boundary_max_jump": float(disp[i].max()),
        "median_displacement": float(np.median(disp)),
    }


# -- plotting ------------------------------------------------------------------------


def motion_svg(motion: MotionSequence) -> str:
    """Static SVG: root ground-plane trajectory plus per-joint height strips."""
    pos = motion.positions()
    width, height = 640, 160 + 40 * motion.joint_count

    def polyline(points, color):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"/>')

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    # top: root path in the ground plane
    xz = pos[:, 0, [0, 2]]
    span = max(np.ptp(xz[:, 0]), np.ptp(xz[:, 1]), 1e-6)
    scale = 140.0 / span
    cx, cz = xz.mean(axis=0)
    points = [(320 + (x - cx) * scale, 80 - (z - cz) * scale) for x, z in xz]
    parts.append('<text x="8" y="16" font-size="12">root trajectory (x-z)</text>')
    parts.append(polyline(points, "#1f6f8b"))
    # bottom: joint heights over time
    t_axis = np.linspace(20, width - 20, motion.length)
    for j in range(motion.joint_count):
        y = pos[:, j, 1]
        base = 160 + 40 * j + 20
        span_y = max(np.ptp(y), 1e-6)
        ys = base - (y - y.min()) / span_y * 30
        parts.append(f'<text x="8" y="{base - 18}" font-size="10">joint {j} height</text>')
        parts.append(polyline(list(zip(t_axis, ys)), "#8b1f4f"))
    parts.append("</svg>")
    return "\n".join(parts)


# -- evaluation ----------------------------------------------------------------------


def evaluate(cfg: RunConfig, data_dir, ckpt_dir, split: str = "test",
             seed: int = 0, decoder: str = "vq",
             samples_per_input: int | None = None) -> dict:
    """Full metric battery on one split. Returns a JSON-ready report."""
    spi = samples_per_input if samples_per_input is not None else cfg.samples_per_input
    if spi < 1:
        raise ConfigError(f"samples per input must be at least 1, got {spi}")
    samples = load_samples(data_dir, split=split)
    if not samples:
        raise ConfigError(f"split {split!r} is empty")
    _check_samples(samples, cfg)
    # retrieval draws its distractors from the split's other texts
    texts = {tuple(s.text_ids) for s in samples if s.modality == "text"}
    if texts and len(texts) < cfg.retrieval_distractors + 1:
        raise DataError(f"need at least {cfg.retrieval_distractors + 1} distinct texts, "
                        f"have {len(texts)}")
    stack = load_generation_stack(ckpt_dir, decoder=decoder)
    retrieval = load_retrieval(ckpt_dir)
    sigma = cfg.beat_sigma_seconds()

    text_samples = [s for s in samples if s.modality == "text"]
    audio_samples = [s for s in samples if s.modality == "audio"]

    # requests of one modality and length are sampled in groups of batch_size
    groups = {}
    for sample in samples:
        key = (sample.modality, sample.motion.length)
        groups.setdefault(key, []).extend((sample, rep) for rep in range(spi))
    generated = {}
    for (modality, frames), requests in groups.items():
        for start in range(0, len(requests), cfg.batch_size):
            group = requests[start:start + cfg.batch_size]
            outs = generate_motion(
                stack, cfg, modality, frames,
                [_sample_seed(seed, rep, s.id) for s, rep in group],
                prompt=[s.sentence for s, _ in group],
                features=[s.features.features if s.features else None for s, _ in group],
                use_z=False, decoder=decoder)
            for (s, _), out in zip(group, outs):
                generated.setdefault(s.id, []).append(MotionSequence(cfg.fps, out["frames"]))

    report = {"config": cfg.to_dict(), "seed": seed, "split": split,
              "decoder": decoder, "samples_per_input": spi,
              "counts": {"text": len(text_samples), "audio": len(audio_samples)},
              "metrics": {}}

    for modality, group in (("text", text_samples), ("audio", audio_samples)):
        if not group:
            continue
        gt_motions = [s.motion for s in group]
        gen_motions = [m for s in group for m in generated[s.id]]
        block = {}
        for kind, tag in (("kinetic", "k"), ("geometric", "m")):
            gt_fs = metrics_mod.feature_set(kind, gt_motions)
            gen_fs = metrics_mod.feature_set(kind, gen_motions)
            block[f"fid_{tag}"] = metrics_mod.fid(gen_fs, gt_fs)
            block[f"div_{tag}"] = metrics_mod.diversity(gen_fs)
            block[f"div_{tag}_gt"] = metrics_mod.diversity(gt_fs)
        recon = [metrics_mod.recon_accuracy(generated[s.id][0], s.motion) for s in group]
        for key in ("ape", "ave", "ape_root", "ave_root"):
            block[key] = float(np.mean([r[key] for r in recon]))
        report["metrics"][modality] = block

    if text_samples:
        pairs = [(generated[s.id][0].frames, s.text_ids) for s in text_samples]
        top1, top5 = metrics_mod.retrieval_accuracy(
            retrieval, pairs, distractors=cfg.retrieval_distractors,
            trials=cfg.retrieval_trials, seed=seed)
        report["metrics"]["text"]["top1"] = top1
        if cfg.retrieval_distractors >= 5:  # among 5 or fewer candidates top5 is always 1
            report["metrics"]["text"]["top5"] = top5

    if audio_samples:
        aligns, gt_aligns = [], []
        for s in audio_samples:
            if s.features.beat_times is None or s.features.beat_times.size == 0:
                continue
            beats = metrics_mod.detect_motion_beats(generated[s.id][0])
            aligns.append(metrics_mod.beat_align(beats, s.features.beat_times, sigma))
            gt_beats = metrics_mod.detect_motion_beats(s.motion)
            gt_aligns.append(metrics_mod.beat_align(gt_beats, s.features.beat_times, sigma))
        if aligns:
            report["metrics"]["audio"]["beat_align"] = float(np.mean(aligns))
            report["metrics"]["audio"]["beat_align_gt"] = float(np.mean(gt_aligns))

    return report


def _sample_seed(seed: int, rep: int, sample_id: str) -> int:
    """Generation seed of one eval sample and repetition; the whole id is
    hashed, so samples with different ids get different seeds."""
    return int(np.random.SeedSequence([seed, rep, zlib.crc32(sample_id.encode())])
               .generate_state(1)[0])
