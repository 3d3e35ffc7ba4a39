import hashlib
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ude.config import RunConfig
from ude.dataset import (GENRE_BEAT_HZ, TEXT_FAMILIES, UNK_ID, VOCAB, VOCAB_WORDS,
                         load_manifest, load_samples, longest_sentence, make_dance_motion,
                         make_text_motion, synth_dataset, tokenize)
from ude.errors import ConfigError
from ude.metrics import detect_motion_beats
from ude.motion import default_skeleton


def _tiny_config():
    return RunConfig(families="walk:2,wave:2,jump:2,turn:2", families_test="walk:1,wave:1",
                     genres="sway:2,groove:2,pulse:2", genres_test="sway:1")


def _bone_lengths(m, skel):
    """Per-frame length of each non-root joint's bone, [T, J-1]."""
    pos = m.positions()
    return np.linalg.norm(pos[:, 1:] - pos[:, list(skel.parents[1:])], axis=-1)


def _dir_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode())
                digest.update(fh.read())
    return digest.hexdigest()


class TestVocabulary:
    def test_unknown_words_map_to_unk(self):
        ids = tokenize("A person zorbulates Forward!")
        assert ids.tolist() == [VOCAB["a"], VOCAB["person"], UNK_ID, VOCAB["forward"]]
        assert VOCAB_WORDS[UNK_ID] == "<unk>"

    def test_all_ids_in_range(self):
        ids = tokenize("someone waves their left hand then jumps twice")
        assert ids.max() < len(VOCAB_WORDS)
        assert (ids >= 0).all() and UNK_ID not in ids


class TestGenerators:
    def test_wave_wrist_dominates(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            motion, sentence = make_text_motion(["wave"], 64, 16.0, rng,
                                                compose_fraction=0.0)
            pos = motion.positions()
            amp = pos[:, :, 1].max(axis=0) - pos[:, :, 1].min(axis=0)
            skel = default_skeleton()
            wrists = [skel.names.index("l_wrist"), skel.names.index("r_wrist")]
            others = [j for j in range(skel.joint_count) if j not in wrists]
            assert amp[wrists].max() >= 3.0 * amp[others].max()

    def test_bone_lengths_preserved(self):
        rng = np.random.default_rng(4)
        skel = default_skeleton()
        rest = np.linalg.norm(skel.offsets[1:], axis=-1)
        for fam in ("walk", "wave", "jump", "turn"):
            motion, _ = make_text_motion([fam], 32, 16.0, rng, compose_fraction=0.5)
            lengths = _bone_lengths(motion, skel)
            assert np.abs(lengths - rest).max() <= 0.05 * rest.min() + 1e-9

    def test_dance_beats_spacing_2hz(self):
        rng = np.random.default_rng(5)
        motion, feats = make_dance_motion("pulse", 64, 16.0, 16, rng)
        assert GENRE_BEAT_HZ["pulse"] == 2.0
        spacing = np.diff(feats.beat_times)
        assert np.allclose(spacing, 0.5)

    def test_dance_beats_recoverable_from_motion(self):
        rng = np.random.default_rng(6)
        for genre in GENRE_BEAT_HZ:
            for _ in range(3):
                motion, feats = make_dance_motion(genre, 64, 16.0, 16, rng)
                detected = detect_motion_beats(motion)
                tol = 2.0 / motion.fps
                hits = sum(np.min(np.abs(detected - b)) <= tol + 1e-9
                           for b in feats.beat_times)
                assert hits >= 0.9 * len(feats.beat_times)

    def test_onset_channel_peaks_at_beats(self):
        rng = np.random.default_rng(7)
        motion, feats = make_dance_motion("sway", 64, 16.0, 16, rng)
        onset = feats.features[:, -1]
        for b in feats.beat_times:
            frame = int(round(b * 16.0))
            window = onset[max(0, frame - 2):frame + 3]
            assert onset[frame] >= window.max() - 1e-9


class TestSynthDataset:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_dataset(_tiny_config(), seed=9, out_dir=a)
        synth_dataset(_tiny_config(), seed=9, out_dir=b)
        assert _dir_digest(a) == _dir_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_dataset(_tiny_config(), seed=9, out_dir=a)
        synth_dataset(_tiny_config(), seed=10, out_dir=b)
        assert _dir_digest(a) != _dir_digest(b)

    def test_counts_and_splits(self, tmp_path):
        entries = synth_dataset(_tiny_config(), seed=1, out_dir=tmp_path)
        counts = Counter((e.split, e.modality) for e in entries)
        assert counts == {("train", "text"): 8, ("test", "text"): 2,
                          ("train", "audio"): 6, ("test", "audio"): 1}

    def test_zero_count_family_absent(self, tmp_path):
        cfg = replace(_tiny_config(), families="walk:3", families_test="")
        synth_dataset(cfg, seed=2, out_dir=tmp_path)
        samples = [s for s in load_samples(tmp_path) if s.modality == "text"]
        assert len(samples) == 3
        assert all("walk" in s.sentence or "stroll" in s.sentence
                   or "march" in s.sentence for s in samples)

    def test_unknown_family_rejected(self, tmp_path):
        cfg = replace(_tiny_config(), families="moonwalk:4")
        with pytest.raises(ConfigError):
            synth_dataset(cfg, seed=0, out_dir=tmp_path)

    def test_manifest_round_trip(self, tmp_path):
        entries = synth_dataset(_tiny_config(), seed=3, out_dir=tmp_path)
        assert load_manifest(tmp_path / "manifest.jsonl") == entries
        ids = [e.id for e in entries]
        assert len(set(ids)) == len(ids)

    def test_loaded_samples_have_conditions(self, tmp_path):
        synth_dataset(_tiny_config(), seed=4, out_dir=tmp_path)
        samples = load_samples(tmp_path, split="train")
        for s in samples:
            if s.modality == "text":
                assert s.text_ids is not None and len(s.text_ids) >= 3
            else:
                assert s.features is not None
                assert s.features.length == s.motion.length


class TestSentenceBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_synthesized_sentence_fits_the_bound(self, tmp_path, tiny_cfg, seed):
        synth_dataset(tiny_cfg, seed, tmp_path)
        lengths = [tokenize(path.read_text()).size for path in (tmp_path / "conds").glob("*.txt")]
        assert len(lengths) == 16
        assert max(lengths) <= longest_sentence(tiny_cfg) == 15

    @pytest.mark.parametrize("family", TEXT_FAMILIES)
    @pytest.mark.parametrize("compose", [0.0, 1.0])
    def test_each_familys_bound_is_reached(self, family, compose):
        cfg = replace(RunConfig(), families=f"{family}:1", families_test="",
                      compose_fraction=compose)
        rng = np.random.default_rng(0)
        lengths = [tokenize(make_text_motion([family], 16, 16.0, rng, compose)[1]).size
                   for _ in range(100)]
        assert max(lengths) == longest_sentence(cfg)
