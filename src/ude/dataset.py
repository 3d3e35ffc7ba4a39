"""Procedural synthetic dataset: text-described action clips and beat-locked
dance clips with matching synthetic audio feature matrices.

Text samples pair a templated sentence over a closed vocabulary with a
motion built from that sentence (walk / wave / jump / turn families plus
optional two-action compositions). Audio samples pair a dance motion whose
speed minima land exactly on a genre's beat grid with a feature matrix
whose last channel peaks at those beats.

Everything is a pure function of the seed: the same seed reproduces the
same files byte for byte.

Manifest: one JSON object per line with string fields id, modality
("text" or "audio"), motion, cond and split; in memory, a list of
ManifestEntry. Token ids index the constant VOCAB_WORDS; no file carries
the vocabulary.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .audio import AudioFeatureSequence, load_features, save_features
from .errors import ConfigError, DataError
from .fileio import atomic_write, read_text
from .motion import MotionSequence, Skeleton, default_skeleton, normalize_heading, save_motion, load_motion

UNK = "<unk>"

VOCAB_WORDS = (
    UNK,
    "a", "the", "person", "someone", "figure", "character",
    "walks", "strolls", "marches", "forward", "backward",
    "slowly", "quickly", "steadily", "briskly", "casually",
    "waves", "raises", "their", "left", "right", "hand", "arm",
    "gently", "rapidly",
    "jumps", "hops", "bounces", "up", "and", "down", "in", "place", "high", "twice",
    "turns", "spins", "rotates", "around", "to", "fully",
    "then",
)

TEXT_FAMILIES = ("walk", "wave", "jump", "turn")
GENRE_BEAT_HZ = {"sway": 1.0, "groove": 1.6, "pulse": 2.0}


VOCAB = {w: i for i, w in enumerate(VOCAB_WORDS)}
UNK_ID = VOCAB[UNK]

_PUNCT = str.maketrans({c: " " for c in ".,!?;:()\"'"})


def tokenize(text: str) -> np.ndarray:
    """Lowercase, strip punctuation, split on whitespace, map unknowns to UNK."""
    words = text.lower().translate(_PUNCT).split()
    return np.array([VOCAB.get(w, UNK_ID) for w in words], dtype=np.int64)


# -- manifest -------------------------------------------------------------------


@dataclass
class ManifestEntry:
    id: str
    modality: str  # "text" | "audio"
    motion: str    # motion file path, relative to the manifest directory
    cond: str      # condition file path (sentence .txt / feature .udef)
    split: str     # "train" | "test"


_MANIFEST_KEYS = tuple(f.name for f in fields(ManifestEntry))


def save_manifest(entries: list, path) -> None:
    lines = [json.dumps({key: getattr(e, key) for key in _MANIFEST_KEYS}) for e in entries]
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def load_manifest(path) -> list:
    """The manifest's entries; a line that is not an object of the five
    string fields, with modality "text" or "audio" and split "train" or
    "test", raises DataError."""
    entries = []
    base = os.path.dirname(os.fspath(path))
    for i, ln in enumerate(read_text(path).splitlines(), start=1):
        if not ln.strip():
            continue
        try:
            obj = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
        if not isinstance(obj, dict) or not all(isinstance(obj.get(k), str)
                                                for k in _MANIFEST_KEYS):
            raise DataError(f"{path}: line {i}: need an object with string fields "
                            f"{', '.join(_MANIFEST_KEYS)}")
        if obj["modality"] not in ("text", "audio"):
            raise DataError(f"{path}: line {i}: unknown modality {obj['modality']!r}")
        if obj["split"] not in ("train", "test"):
            raise DataError(f"{path}: line {i}: unknown split {obj['split']!r}")
        entries.append(ManifestEntry(*(obj[k] for k in _MANIFEST_KEYS)))
    for e in entries:
        for rel in (e.motion, e.cond):
            if not os.path.exists(os.path.join(base, rel)):
                raise DataError(f"{path}: referenced file missing: {rel}")
    ids = [e.id for e in entries]
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate sample ids")
    return entries


# -- motion assembly ---------------------------------------------------------------


def _rot_axis(axis: str, theta: np.ndarray) -> np.ndarray:
    """Stack of rotation matrices about a principal axis, [T, 3, 3]."""
    t = theta.shape[0]
    c, s = np.cos(theta), np.sin(theta)
    out = np.zeros((t, 3, 3))
    if axis == "x":
        out[:, 0, 0] = 1
        out[:, 1, 1], out[:, 1, 2] = c, -s
        out[:, 2, 1], out[:, 2, 2] = s, c
    elif axis == "y":
        out[:, 1, 1] = 1
        out[:, 0, 0], out[:, 0, 2] = c, s
        out[:, 2, 0], out[:, 2, 2] = -s, c
    elif axis == "z":
        out[:, 2, 2] = 1
        out[:, 0, 0], out[:, 0, 1] = c, -s
        out[:, 1, 0], out[:, 1, 1] = s, c
    else:
        raise DataError(f"unknown rotation axis {axis!r}")
    return out


def _assemble(skel: Skeleton, root: np.ndarray, yaw: np.ndarray, local: dict) -> np.ndarray:
    """Build [T, J*3] frames from a root path, yaw track and per-joint local
    rotations (joint name -> [T,3,3]). Rotations keep bone lengths exact."""
    t = root.shape[0]
    j = skel.joint_count
    yaw_mat = _rot_axis("y", yaw)
    pos = np.zeros((t, j, 3))
    pos[:, 0] = root
    for idx in range(1, j):
        name = skel.names[idx]
        rot = yaw_mat
        if name in local:
            rot = np.einsum("tij,tjk->tik", yaw_mat, local[name])
        offset = skel.offsets[idx]
        pos[:, idx] = pos[:, skel.parents[idx]] + np.einsum("tij,j->ti", rot, offset)
    return pos.reshape(t, j * 3)


ROOT_HEIGHT = 1.0


def _build_action_track(family: str, params: dict, times: np.ndarray,
                        root0: np.ndarray, yaw0: float):
    """Root path, yaw and local joint rotations for one action over `times`
    (local time starting at 0). Returns (root, yaw, local, root_end, yaw_end)."""
    t = times.shape[0]
    root = np.tile(root0, (t, 1))
    yaw = np.full(t, yaw0)
    local = {}
    zeros = np.zeros(t)

    # each family starts mid-action (fixed phase offsets) so its opening
    # frames are already distinctive; autoregressive models commit to a
    # family at the first token and need the condition to decide it there
    if family == "walk":
        speed = params["speed"] * (1.0 if params["direction"] == "forward" else -1.0)
        f_step = 1.6
        heading = np.array([math.cos(yaw0), 0.0, -math.sin(yaw0)])
        root = root0[None, :] + speed * times[:, None] * heading[None, :]
        root[:, 1] = ROOT_HEIGHT + 0.03 * np.sin(2 * math.pi * 2 * f_step * times)
        swing = 0.55 * np.sin(2 * math.pi * f_step * times + math.pi / 2)
        local["l_foot"] = _rot_axis("z", swing)
        local["r_foot"] = _rot_axis("z", -swing)
        local["l_wrist"] = _rot_axis("z", -0.25 * swing / 0.55)
        local["r_wrist"] = _rot_axis("z", 0.25 * swing / 0.55)
        root_end = root0 + speed * (times[-1] + times[1] - times[0]) * heading
        root_end[1] = root0[1]
        return root, yaw, local, root_end, yaw0

    if family == "wave":
        freq = params["freq"]
        side = params["side"]
        root[:, 1] = ROOT_HEIGHT
        theta = 0.9 * np.sin(2 * math.pi * freq * times + 1.1)
        joint = "l_wrist" if side == "left" else "r_wrist"
        sign = 1.0 if side == "left" else -1.0
        local[joint] = _rot_axis("x", sign * theta)
        # barely-moving legs so the waving wrist dominates every other joint
        local["l_foot"] = _rot_axis("z", 0.01 * np.sin(2 * math.pi * times))
        local["r_foot"] = _rot_axis("z", -0.01 * np.sin(2 * math.pi * times))
        return root, yaw, local, root0, yaw0

    if family == "jump":
        freq = params["freq"]
        height = params["height"]
        phase = (times * freq + 0.35) % 1.0
        root[:, 1] = ROOT_HEIGHT + height * 4.0 * phase * (1.0 - phase)
        lift = 0.4 * np.sin(math.pi * np.clip(phase * 2, 0, 1))
        local["l_wrist"] = _rot_axis("x", lift)
        local["r_wrist"] = _rot_axis("x", -lift)
        return root, yaw, local, root0, yaw0

    if family == "turn":
        total = params["angle"] * (1.0 if params["side"] == "left" else -1.0)
        duration = times[-1] + (times[1] - times[0]) if t > 1 else 1.0
        yaw = yaw0 + total * times / duration
        root[:, 1] = ROOT_HEIGHT
        sway = 0.08 * np.sin(2 * math.pi * 1.0 * times)
        local["l_wrist"] = _rot_axis("z", sway)
        local["r_wrist"] = _rot_axis("z", -sway)
        return root, yaw, local, root0, yaw0 + total

    raise ConfigError(f"unknown action family {family!r}")


_SUBJECTS = ("a person", "the person", "someone", "a figure", "the character")
_WALK_SPEEDS = {"slowly": 0.5, "steadily": 0.9, "quickly": 1.4, "briskly": 1.4, "casually": 0.7}
_WAVE_FREQS = {"gently": 1.0, "": 1.5, "rapidly": 2.2}
_JUMP_STYLES = {"up and down": (1.25, 0.22), "in place": (1.25, 0.18), "high": (1.0, 0.35),
                "twice": (0.5, 0.25)}  # (frequency, height)
_SIDES = ("left", "right")
# A family's phrase is one choice from each of its slots, joined by spaces;
# an empty choice adds no word.
_PHRASES = {
    "walk": (("walks", "strolls", "marches"), ("forward", "backward"), tuple(_WALK_SPEEDS)),
    "wave": (("waves", "raises"), ("their",), _SIDES, ("hand",), tuple(_WAVE_FREQS)),
    "jump": (("jumps", "hops", "bounces"), tuple(_JUMP_STYLES)),
    "turn": (("turns", "spins", "rotates"), ("around to the",), _SIDES, ("fully", "")),
}
# clips at least this long may compose two actions joined by "then"
_COMPOSE_MIN_FRAMES = 16


def _sample_action(family: str, rng: np.random.Generator):
    """One action draw: (phrase, params). The phrase omits the subject."""
    if family not in _PHRASES:
        raise ConfigError(f"unknown action family {family!r}")
    slots = _PHRASES[family]
    picks = [rng.integers(len(slots[0]))]  # the verb
    if family == "walk":
        picks += [int(rng.random() >= 0.7), rng.integers(len(slots[2]))]
    elif family == "wave":
        picks += [0, int(rng.random() >= 0.5), 0, rng.integers(len(slots[4]))]
    elif family == "jump":
        picks += [rng.integers(len(slots[1]))]
    else:
        picks += [0, int(rng.random() >= 0.5), int(rng.random() >= 0.4)]
    words = [slot[i] for slot, i in zip(slots, picks)]
    phrase = " ".join(w for w in words if w)
    if family == "walk":
        return phrase, {"speed": _WALK_SPEEDS[words[2]], "direction": words[1]}
    if family == "wave":
        return phrase, {"side": words[2], "freq": _WAVE_FREQS[words[4]]}
    if family == "jump":
        freq, height = _JUMP_STYLES[words[1]]
        return phrase, {"freq": freq, "height": height}
    return phrase, {"side": words[2], "angle": math.pi if words[3] else math.pi / 2}


def longest_sentence(cfg) -> int:
    """Tokens in the longest sentence `synth` can write for a RunConfig's
    train and test action families (0 when it writes none): the longest
    subject and phrase, plus "then" and a second phrase when clips may be
    composed."""
    families = {name for counts in synth_counts(cfg)[:2] for name in counts}
    if not families:
        return 0

    def words(options):
        return max(len(option.split()) for option in options)

    phrase = max(sum(map(words, _PHRASES[family])) for family in families)
    composed = cfg.compose_fraction > 0 and cfg.frames >= _COMPOSE_MIN_FRAMES
    return words(_SUBJECTS) + phrase + (1 + phrase if composed else 0)


def make_text_motion(families, frames: int, fps: float, rng: np.random.Generator,
                     compose_fraction: float = 0.3):
    """One text sample: (MotionSequence, sentence)."""
    skel = default_skeleton()
    subject = _SUBJECTS[rng.integers(len(_SUBJECTS))]
    compose = rng.random() < compose_fraction and frames >= _COMPOSE_MIN_FRAMES
    chosen = [families[rng.integers(len(families))]]
    if compose:
        chosen.append(families[rng.integers(len(families))])

    segments = np.array_split(np.arange(frames), len(chosen))
    root0 = np.array([0.0, ROOT_HEIGHT, 0.0])
    yaw0 = 0.0
    parts, phrases = [], []
    for fam, seg in zip(chosen, segments):
        times = (seg - seg[0]) / fps
        phrase, params = _sample_action(fam, rng)
        root, yaw, local, root0, yaw0 = _build_action_track(fam, params, times, root0, yaw0)
        parts.append(_assemble(skel, root, yaw, local))
        phrases.append(phrase)
    sentence = f"{subject} " + " then ".join(phrases)
    return MotionSequence(fps, np.vstack(parts)), sentence


def _genre_pattern(genre: str, dim: int) -> np.ndarray:
    """Deterministic per-genre channel signature."""
    seed = int.from_bytes(genre.encode(), "little") % (2 ** 31)
    g = np.random.default_rng(seed)
    vec = g.normal(0.0, 1.0, size=dim)
    return vec / np.linalg.norm(vec)


def make_dance_motion(genre: str, frames: int, fps: float, feature_dim: int,
                      rng: np.random.Generator):
    """One audio sample: (MotionSequence, AudioFeatureSequence).

    All oscillators follow cos(pi * f_beat * t) so every joint's speed
    vanishes exactly at the beat grid t = k / f_beat. The feature matrix's
    last channel is an onset envelope peaking at those beats.
    """
    if genre not in GENRE_BEAT_HZ:
        raise ConfigError(f"unknown dance genre {genre!r}")
    skel = default_skeleton()
    f_beat = GENRE_BEAT_HZ[genre]
    duration = frames / fps
    times = np.arange(frames) / fps
    amp = rng.uniform(0.7, 1.0)

    profile = {
        "sway": {"arms": 1.0, "root_z": 1.0, "legs": 0.2, "bob": 0.3},
        "groove": {"arms": 0.6, "root_z": 0.4, "legs": 0.8, "bob": 1.0},
        "pulse": {"arms": 0.3, "root_z": 0.2, "legs": 1.0, "bob": 1.2},
    }[genre]

    carrier = np.cos(math.pi * f_beat * times)
    root = np.zeros((frames, 3))
    root[:, 1] = ROOT_HEIGHT + 0.06 * amp * profile["bob"] * carrier
    root[:, 2] = 0.15 * amp * profile["root_z"] * carrier
    yaw = 0.15 * amp * profile["root_z"] * carrier

    local = {
        "l_wrist": _rot_axis("x", 0.8 * amp * profile["arms"] * carrier),
        "r_wrist": _rot_axis("x", -0.8 * amp * profile["arms"] * carrier),
        "l_foot": _rot_axis("z", 0.3 * amp * profile["legs"] * carrier),
        "r_foot": _rot_axis("z", -0.3 * amp * profile["legs"] * carrier),
    }
    motion = MotionSequence(fps, _assemble(skel, root, yaw, local))

    n_beats = int(math.floor(duration * f_beat - 1e-9))
    beat_times = np.arange(1, n_beats + 1) / f_beat
    beat_times = beat_times[beat_times < duration - 1.0 / fps]

    pattern = _genre_pattern(genre, feature_dim - 1)
    envelope = 0.5 + 0.5 * carrier
    features = np.zeros((frames, feature_dim))
    features[:, :-1] = pattern[None, :] * envelope[:, None]
    features[:, :-1] += 0.05 * rng.standard_normal((frames, feature_dim - 1))
    sigma = 1.5 / fps
    for b in beat_times:
        features[:, -1] += np.exp(-((times - b) ** 2) / (2 * sigma * sigma))
    return motion, AudioFeatureSequence(fps, features, beat_times)


# -- dataset synthesis -----------------------------------------------------------------


def parse_counts(spec: str) -> dict:
    """Parse "name:count,name:count" (or bare "name" = count 1) specs."""
    out = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            name, _, count = chunk.partition(":")
            try:
                out[name.strip()] = int(count)
            except ValueError as exc:
                raise ConfigError(f"bad count in {chunk!r}") from exc
        else:
            out[chunk] = 1
    return {k: v for k, v in out.items() if v > 0}


def synth_counts(cfg) -> tuple:
    """(families_train, families_test, genres_train, genres_test), each
    {name: sample count}, parsed from a RunConfig's count strings; a name the
    generators do not know raises ConfigError."""
    out = tuple(map(parse_counts, (cfg.families, cfg.families_test, cfg.genres, cfg.genres_test)))
    kinds = [(TEXT_FAMILIES, "action family")] * 2 + [(GENRE_BEAT_HZ, "dance genre")] * 2
    for counts, (known, kind) in zip(out, kinds):
        unknown = [name for name in counts if name not in known]
        if unknown:
            raise ConfigError(f"unknown {kind} {unknown[0]!r}")
    return out


def synth_dataset(cfg, seed: int, out_dir) -> list:
    """Generate the dataset a RunConfig describes under out_dir and return
    its manifest entries."""
    families_train, families_test, genres_train, genres_test = synth_counts(cfg)
    out_dir = os.fspath(out_dir)
    os.makedirs(os.path.join(out_dir, "motions"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "conds"), exist_ok=True)
    entries = []
    counter = 0

    def add(modality: str, split: str, motion, ext: str, write_cond):
        nonlocal counter
        sid = f"{modality}_{split}_{counter:05d}"
        mrel, crel = f"motions/{sid}.udem", f"conds/{sid}.{ext}"
        save_motion(motion, os.path.join(out_dir, mrel))
        write_cond(os.path.join(out_dir, crel))
        entries.append(ManifestEntry(sid, modality, mrel, crel, split))
        counter += 1

    def text_batch(counts: dict, split: str):
        used = set()
        for fam in TEXT_FAMILIES:
            for _ in range(counts.get(fam, 0)):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 1, counter]))
                # keep sentences unique within the split so retrieval is well posed
                for _attempt in range(64):
                    motion, sentence = make_text_motion(
                        [fam], cfg.frames, cfg.fps, rng, cfg.compose_fraction)
                    if sentence not in used:
                        break
                used.add(sentence)
                add("text", split, motion, "txt",
                    lambda path: atomic_write(path, (sentence + "\n").encode()))

    def audio_batch(counts: dict, split: str):
        for gen in GENRE_BEAT_HZ:
            for _ in range(counts.get(gen, 0)):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 2, counter]))
                motion, feats = make_dance_motion(gen, cfg.frames, cfg.fps,
                                                  cfg.feature_dim, rng)
                add("audio", split, motion, "udef", lambda path: save_features(feats, path))

    text_batch(families_train, "train")
    text_batch(families_test, "test")
    audio_batch(genres_train, "train")
    audio_batch(genres_test, "test")

    save_manifest(entries, os.path.join(out_dir, "manifest.jsonl"))
    return entries


# -- loading ------------------------------------------------------------------------


@dataclass
class Sample:
    id: str
    modality: str
    split: str
    motion: MotionSequence
    text_ids: np.ndarray | None = None
    sentence: str | None = None
    features: AudioFeatureSequence | None = None


def load_samples(data_dir, split=None) -> list:
    """Load the manifest entries of `split` (all when None) into memory,
    heading-normalizing motions."""
    data_dir = os.fspath(data_dir)
    entries = load_manifest(os.path.join(data_dir, "manifest.jsonl"))
    out = []
    for e in entries:
        if split is not None and e.split != split:
            continue
        motion = normalize_heading(load_motion(os.path.join(data_dir, e.motion)))
        sample = Sample(e.id, e.modality, e.split, motion)
        if e.modality == "text":
            sample.sentence = read_text(os.path.join(data_dir, e.cond)).strip()
            sample.text_ids = tokenize(sample.sentence)
        else:
            sample.features = load_features(os.path.join(data_dir, e.cond))
        out.append(sample)
    return out
