import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ude import numerics as nm
from ude.config import RunConfig
from ude.dataset import VOCAB_WORDS
from ude.errors import DataError
from ude.metrics import (FeatureSet, RetrievalEncoder, beat_align, contrastive_loss,
                         detect_motion_beats, diversity, feature_set, fid, fid_gaussian,
                         geometric_features, kinetic_features, recon_accuracy,
                         retrieval_accuracy, train_retrieval_encoder)
from ude.motion import MotionSequence


def _static_pose(t=8, joints=4):
    frames = np.tile(np.arange(joints * 3, dtype=float), (t, 1))
    return MotionSequence(16.0, frames)


class TestKineticFeatures:
    def test_static_pose_all_zero(self):
        assert np.allclose(kinetic_features(_static_pose()), 0.0)

    def test_uniform_translation(self):
        t, j, fps, v = 16, 3, 10.0, 1.5
        pos = np.zeros((t, j, 3))
        pos[:, :, 0] = (np.arange(t) * v / fps)[:, None]
        m = MotionSequence(fps, pos.reshape(t, -1))
        feats = kinetic_features(m)
        mean_speed, speed_std, accel = feats[:j], feats[j:2 * j], feats[2 * j:]
        assert np.allclose(mean_speed, v, atol=1e-9)
        assert np.allclose(speed_std, 0.0, atol=1e-9)
        assert np.allclose(accel, 0.0, atol=1e-9)

    def test_fps_invariance_of_speeds(self):
        # sample the same 1 Hz trajectory at 16 and 32 fps
        def sample(fps):
            t = np.arange(int(fps * 2)) / fps
            pos = np.zeros((len(t), 2, 3))
            pos[:, 1, 1] = 0.3 * np.sin(2 * math.pi * t)
            return MotionSequence(fps, pos.reshape(len(t), -1))

        f_lo = kinetic_features(sample(16.0))
        f_hi = kinetic_features(sample(32.0))
        # mean speeds agree up to discretization error
        assert np.allclose(f_lo[:2], f_hi[:2], rtol=0.05, atol=1e-6)

    def test_too_short_rejected(self):
        with pytest.raises(DataError, match="at least 3 frames"):
            kinetic_features(MotionSequence(16.0, np.zeros((2, 6))))


class TestGeometricFeatures:
    def test_identical_sequences_identical_features(self, rng):
        frames = rng.standard_normal((10, 12))
        a = geometric_features(MotionSequence(16.0, frames))
        b = geometric_features(MotionSequence(16.0, frames.copy()))
        assert np.array_equal(a, b)

    def test_uniform_scaling_doubles_pairwise(self, rng):
        frames = rng.standard_normal((6, 12))
        base = geometric_features(MotionSequence(16.0, frames))
        scaled = geometric_features(MotionSequence(16.0, frames * 2.0))
        n_pairs = 4 * 3 // 2
        assert np.allclose(scaled[:n_pairs], 2.0 * base[:n_pairs])

    def test_heading_rotation_invariance_of_pairwise(self, rng):
        frames = rng.standard_normal((6, 12))
        pos = frames.reshape(6, 4, 3)
        c, s = np.cos(0.77), np.sin(0.77)
        rot = pos.copy()
        rot[:, :, 0] = c * pos[:, :, 0] + s * pos[:, :, 2]
        rot[:, :, 2] = -s * pos[:, :, 0] + c * pos[:, :, 2]
        a = geometric_features(MotionSequence(16.0, frames))
        b = geometric_features(MotionSequence(16.0, rot.reshape(6, -1)))
        n_pairs = 4 * 3 // 2
        assert np.allclose(a[:n_pairs], b[:n_pairs], atol=1e-9)


def test_geometric_features_equal_the_full_distance_array_bit_for_bit(rng):
    for _ in range(8):
        m = MotionSequence(16.0, rng.standard_normal((12, 24)) * 3.0)
        pos = m.positions()
        subset = np.unique(np.linspace(0, 7, 8).round().astype(int))
        sub = pos[:, subset]
        dist = np.linalg.norm(sub[:, :, None, :] - sub[:, None, :, :], axis=-1)  # [T, S, S]
        iu = np.triu_indices(len(subset), k=1)
        np.testing.assert_array_equal(geometric_features(m)[:len(iu[0])],
                                      dist[:, iu[0], iu[1]].mean(axis=0))


class TestFid:
    def test_identical_sets_zero(self, rng):
        x = rng.standard_normal((20, 5))
        assert abs(fid(FeatureSet("kinetic", x), FeatureSet("kinetic", x.copy()))) < 1e-9

    def test_analytic_unit_gaussians(self):
        # N(0,1) vs N(1,1) in one dimension has Frechet distance exactly 1
        assert abs(fid_gaussian([0.0], [[1.0]], [1.0], [[1.0]]) - 1.0) < 1e-12

    def test_symmetric(self, rng):
        a = FeatureSet("kinetic", rng.standard_normal((30, 4)))
        b = FeatureSet("kinetic", rng.standard_normal((25, 4)) + 0.5)
        assert abs(fid(a, b) - fid(b, a)) < 1e-9

    def test_nonnegative(self, rng):
        for _ in range(5):
            a = FeatureSet("kinetic", rng.standard_normal((10, 3)))
            b = FeatureSet("kinetic", rng.standard_normal((12, 3)))
            assert fid(a, b) >= -1e-9

    def test_rank_deficient_covariance_at_large_scale(self, rng):
        # 4 and 6 samples in 24 dims: the covariances (about 1e8) are singular,
        # and round-off leaves eigenvalues far below an absolute -1e-8
        a = FeatureSet("kinetic", rng.standard_normal((4, 24)) * 1e4)
        b = FeatureSet("kinetic", rng.standard_normal((6, 24)) * 1e4)
        assert fid(a, b) >= 0.0

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(DataError, match="not PSD"):
            fid_gaussian([0.0, 0.0], np.diag([1.0, -1.0]), [0.0, 0.0], np.eye(2))

    def test_kind_mismatch_rejected(self, rng):
        a = FeatureSet("kinetic", rng.standard_normal((5, 3)))
        b = FeatureSet("geometric", rng.standard_normal((5, 3)))
        with pytest.raises(DataError, match="feature kinds differ"):
            fid(a, b)


class TestDiversity:
    def test_identical_rows_zero(self):
        assert diversity(np.ones((5, 3))) == 0.0

    def test_single_pair(self):
        assert abs(diversity(np.array([[0.0], [2.0]])) - 2.0) < 1e-12

    def test_three_rows(self):
        val = diversity(np.array([[0.0], [1.0], [2.0]]))
        assert abs(val - 4.0 / 3.0) < 1e-12

    @given(st.integers(0, 1000))
    def test_permutation_invariant_and_scaling(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 3))
        base = diversity(x)
        perm = diversity(x[rng.permutation(6)])
        assert abs(base - perm) < 1e-9
        assert abs(diversity(3.0 * x) - 3.0 * base) < 1e-9

    def test_enumeration_oracle(self, rng):
        x = rng.standard_normal((7, 4))
        total, count = 0.0, 0
        for i in range(7):
            for j in range(i + 1, 7):
                total += np.linalg.norm(x[i] - x[j])
                count += 1
        assert abs(diversity(x) - total / count) < 1e-12

    @pytest.mark.parametrize("width", [1, 3, 8, 9, 24, 33, 100])
    def test_bits_of_the_column_order_reference(self, width):
        x = np.random.default_rng(width).standard_normal((17, width)) * np.geomspace(
            1e-3, 1e3, width)
        pairs = [(a, b) for a in range(17) for b in range(a + 1, 17)]
        dists = []
        for a, b in pairs:  # pdist's loop: one running sum, one column at a time
            total = 0.0
            for k in range(width):
                total += (x[a, k] - x[b, k]) ** 2
            dists.append(math.sqrt(total))
        assert diversity(x) == float(np.mean(dists))

    @pytest.mark.parametrize("width", [1, 3, 8, 9, 24, 33, 100])
    def test_bits_of_scipy_pdist(self, width):
        pdist = pytest.importorskip("scipy.spatial.distance").pdist
        x = np.random.default_rng(width + 1).standard_normal((40, width))
        assert diversity(x) == float(pdist(x).mean())

    def test_needs_two_rows(self):
        with pytest.raises(DataError, match="at least 2 samples"):
            diversity(np.ones((1, 3)))


class TestMotionBeats:
    def test_sinusoidal_limb_beats_every_half_period(self):
        fps, t = 32.0, 128
        times = np.arange(t) / fps
        pos = np.zeros((t, 2, 3))
        pos[:, 1, 1] = 0.5 * np.sin(2 * math.pi * 1.0 * times)  # 1 Hz
        m = MotionSequence(fps, pos.reshape(t, -1))
        beats = detect_motion_beats(m)
        # speed minima at every half period
        spacing = np.diff(beats)
        assert len(beats) >= 5
        assert np.allclose(spacing, 0.5, atol=2.0 / fps)

    def test_constant_velocity_no_beats(self):
        t = 32
        pos = np.zeros((t, 2, 3))
        pos[:, :, 0] = np.arange(t)[:, None] * 0.1
        m = MotionSequence(16.0, pos.reshape(t, -1))
        assert detect_motion_beats(m).size == 0

    def test_beats_increasing_and_in_range(self, rng):
        frames = rng.standard_normal((40, 9)).cumsum(axis=0) * 0.05
        m = MotionSequence(16.0, frames)
        beats = detect_motion_beats(m)
        assert np.all(np.diff(beats) > 0)
        assert np.all((beats >= 0) & (beats <= m.length / m.fps))


class TestBeatAlign:
    def test_equal_sets_exactly_one(self):
        beats = np.array([0.5, 1.0, 1.5])
        assert beat_align(beats, beats, sigma=0.1) == 1.0

    def test_single_pair_formula(self):
        val = beat_align(np.array([0.5]), np.array([0.0]), sigma=0.5)
        assert abs(val - math.exp(-0.5)) < 1e-12

    @given(st.integers(0, 500))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        bm = np.sort(rng.uniform(0, 4, size=rng.integers(1, 6)))
        ba = np.sort(rng.uniform(0, 4, size=rng.integers(1, 6)))
        sigma = 0.3
        expected = np.mean([
            math.exp(-min((tm - ta) ** 2 for tm in bm) / (2 * sigma ** 2))
            for ta in ba
        ])
        assert abs(beat_align(bm, ba, sigma) - expected) < 1e-12
        assert 0.0 <= beat_align(bm, ba, sigma) <= 1.0

    def test_empty_motion_beats_zero(self):
        assert beat_align(np.array([]), np.array([1.0]), sigma=0.5) == 0.0

    def test_empty_audio_beats_rejected(self):
        with pytest.raises(DataError, match="no audio beats"):
            beat_align(np.array([1.0]), np.array([]), sigma=0.5)

    def test_superset_never_decreases(self, rng):
        ba = np.sort(rng.uniform(0, 4, 4))
        bm = np.sort(rng.uniform(0, 4, 3))
        base = beat_align(bm, ba, 0.25)
        more = beat_align(np.append(bm, rng.uniform(0, 4)), ba, 0.25)
        assert more >= base - 1e-12

    def test_moving_closer_to_single_audio_beat(self):
        ba = np.array([1.0])
        far = beat_align(np.array([0.2]), ba, 0.3)
        near = beat_align(np.array([0.6]), ba, 0.3)
        assert near > far


class TestReconAccuracy:
    def test_identical_all_zero(self, rng):
        frames = rng.standard_normal((10, 9))
        m = MotionSequence(16.0, frames)
        out = recon_accuracy(m, MotionSequence(16.0, frames.copy()))
        assert all(v == 0.0 for v in out.values())

    def test_constant_offset(self, rng):
        frames = rng.standard_normal((10, 9))
        delta = np.array([0.3, -0.4, 1.2])
        shifted = frames + np.tile(delta, 3)
        out = recon_accuracy(MotionSequence(16.0, shifted), MotionSequence(16.0, frames))
        assert abs(out["ape"] - np.linalg.norm(delta)) < 1e-9
        assert out["ave"] < 1e-12

    def test_root_only_perturbation(self, rng):
        frames = rng.standard_normal((10, 9))
        bumped = frames.copy()
        bumped[:, :3] += 0.5
        out = recon_accuracy(MotionSequence(16.0, bumped), MotionSequence(16.0, frames))
        assert out["ape_root"] > 0
        # non-root joints agree, so overall APE is the root error averaged over joints
        assert abs(out["ape"] - out["ape_root"] / 3.0) < 1e-9

    def test_triangle_inequality(self, rng):
        a, b, c = (MotionSequence(16.0, rng.standard_normal((6, 9))) for _ in range(3))
        ab = recon_accuracy(a, b)["ape"]
        bc = recon_accuracy(b, c)["ape"]
        ac = recon_accuracy(a, c)["ape"]
        assert ac <= ab + bc + 1e-12

    def test_shape_mismatch_rejected(self, rng):
        a = MotionSequence(16.0, rng.standard_normal((5, 9)))
        b = MotionSequence(16.0, rng.standard_normal((6, 9)))
        with pytest.raises(DataError, match="equal T and J"):
            recon_accuracy(a, b)


class TestFeatureSetHelper:
    def test_stacks_rows(self, rng):
        motions = [MotionSequence(16.0, rng.standard_normal((8, 6))) for _ in range(3)]
        fs = feature_set("kinetic", motions)
        assert fs.matrix.shape[0] == 3
        assert fs.kind == "kinetic"


RETRIEVAL_CFG = RunConfig(retrieval_dim=8)
C = RETRIEVAL_CFG.frame_dim


class TestRetrieval:
    def test_batch_equals_its_slices(self, rng):
        # one batched graph, ragged texts included, gives the loss and
        # gradients of embeddings encoded one pair at a time
        enc = RetrievalEncoder(RETRIEVAL_CFG, np.random.default_rng(3))
        frames = rng.standard_normal((4, 16, C))
        texts = [rng.integers(0, len(VOCAB_WORDS), size=n) for n in (3, 7, 1, 5)]

        def gradients(loss):
            nm.Adam(enc.named_parameters(), lr=1e-4).zero_grad()
            loss.backward()
            return [p.grad.copy() for _, p in enc.named_parameters()]

        batched = contrastive_loss(enc.encode_motion(frames), enc.encode_text(texts))
        slices = contrastive_loss(
            nm.concat([enc.encode_motion(frames[b:b + 1]) for b in range(4)], axis=0),
            nm.concat([enc.encode_text(texts[b:b + 1]) for b in range(4)], axis=0))
        assert abs(batched.item() - slices.item()) < 1e-12
        for a, b in zip(gradients(batched), gradients(slices)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_one_pair_trains_nothing_and_reads_loss_zero(self, rng):
        # InfoNCE over one pair has no negatives, so no batch runs
        pairs = [(rng.standard_normal((16, C)), np.array([1, 2]))]
        enc = RetrievalEncoder(RETRIEVAL_CFG, np.random.default_rng(0))
        fresh = RetrievalEncoder(RETRIEVAL_CFG, np.random.default_rng(0))
        history = train_retrieval_encoder(enc, pairs, epochs=2, rng=np.random.default_rng(1))
        assert history == [{"loss": 0.0, "epoch": 0}, {"loss": 0.0, "epoch": 1}]
        for (_, p), (_, q) in zip(enc.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data)

    def test_coinciding_embeddings_retrieve_every_text_first(self):
        class Matched:
            """Motion b and text (b,) both embed as the b-th unit vector."""

            def encode_motion(self, frames):
                assert frames.shape == (6, 8, 3)  # every motion in one call
                return nm.Tensor(np.eye(6)[frames[:, 0, 0].astype(int)])

            def encode_text(self, token_ids):
                assert len(token_ids) == 6  # every distinct text in one call
                return nm.Tensor(np.eye(6)[[ids[0] for ids in token_ids]])

        pairs = [(np.full((8, 3), float(b)), np.array([b])) for b in range(6)]
        assert retrieval_accuracy(Matched(), pairs, distractors=4, trials=3) == (1.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_similarity_table_matches_the_per_candidate_loop(self, seed):
        rng = np.random.default_rng(seed)
        texts, motions = 12, 30
        # texts 0-3 share one embedding and 4-5 another, and motions 0-9 embed
        # as text 0, so exact ties fall among the candidates
        text_rows = rng.standard_normal((texts, 5))
        text_rows[1:4] = text_rows[0]
        text_rows[5] = text_rows[4]
        motion_rows = rng.standard_normal((motions, 5))
        motion_rows[:10] = text_rows[0]

        class Planted:
            def encode_motion(self, frames):
                return nm.Tensor(motion_rows[frames[:, 0, 0].astype(int)])

            def encode_text(self, token_ids):
                return nm.Tensor(text_rows[[ids[0] for ids in token_ids]])

        pairs = [(np.full((4, 2), float(i)), np.array([i % texts])) for i in range(motions)]
        for distractors in (3, 6, 11):
            got = retrieval_accuracy(Planted(), pairs, distractors=distractors, trials=4,
                                     seed=seed)
            assert got == _per_candidate_retrieval(Planted(), pairs, distractors, 4, seed)


def _per_candidate_retrieval(encoder, pairs, distractors, trials, seed):
    """`retrieval_accuracy` as one dot product per candidate of every trial."""
    keys = list(dict.fromkeys(tuple(ids) for _, ids in pairs))
    text_emb = dict(zip(keys, encoder.encode_text(keys).data))
    motion_emb = encoder.encode_motion(np.stack([frames for frames, _ in pairs])).data
    rng = np.random.default_rng(np.random.SeedSequence([seed, 61]))
    top1 = top5 = total = 0
    for _ in range(trials):
        for i, (_, ids) in enumerate(pairs):
            true_key = tuple(ids)
            others = [k for k in keys if k != true_key]
            chosen = [others[j] for j in rng.choice(len(others), size=distractors, replace=False)]
            slot = int(rng.integers(0, distractors + 1))
            candidates = chosen[:slot] + [true_key] + chosen[slot:]
            sims = np.array([motion_emb[i] @ text_emb[k] for k in candidates])
            rank = int(np.where(np.argsort(-sims, kind="stable") == slot)[0][0])
            top1 += rank == 0
            top5 += rank < 5
            total += 1
    return top1 / total, top5 / total
