import math

import numpy as np
import pytest

from ude import numerics as nm
from ude import utt as utt_mod
from ude.errors import ContractError, DimensionError, LengthError
from ude.mate import (MATEConfig, MATEModel, audio_input, encode, stack_conditions,
                      text_input)
from ude.mq import MQConfig, MQModel
from ude.nn import additive_mask
from ude.numerics import Tensor
from ude.utt import (Discriminator, SamplingConfig, UTTConfig, UTTModel,
                     build_mask, cross_entropy, discriminate, forward_logits,
                     generate_tokens, hinge_disc_loss, mean_cross_entropy,
                     train_utt, utt_loss)

K = 8
FRAME_DIM = 6


def _models(seed=0):
    rng = np.random.default_rng(seed)
    mate = MATEModel(MATEConfig(vocab_size=16, audio_dim=5, dim=16, layers=1,
                                heads=2, max_text_len=12, max_audio_len=20), rng)
    utt = UTTModel(UTTConfig(code_count=K, dim=16, layers=2, heads=2, z_dim=4), rng)
    disc = Discriminator(FRAME_DIM, 16, 2, rng)
    mq = MQModel(MQConfig(frame_dim=FRAME_DIM, code_count=K, code_dim=4, hidden=8),
                 np.random.default_rng(seed + 1))
    return mate, utt, disc, mq


def _cond(mate, ids=(1, 2, 3)):
    return encode(mate, text_input(list(ids)))


def _logits(utt, cond, prefix, z=None):
    """forward_logits of one request, as a batch of one: [S, K+2]."""
    return forward_logits(utt, cond, [prefix], None if z is None else [z]).data[0]


def _generate(utt, cond, max_len, sampling=None, primitive=None, z=None, seed=0,
              min_len=0):
    """generate_tokens of one request, as a batch of one."""
    out = generate_tokens(utt, cond, max_len, sampling, primitive=[primitive], z=[z],
                          seed=[seed], min_len=min_len)
    assert isinstance(out, utt_mod.TokenBatch) and len(out) == 1
    return out[0]


class TestBuildMask:
    def test_enumerated_rule(self):
        mask = build_mask(2, 3)
        for r in range(5):
            for c in range(5):
                assert mask[r, c] == (c < 2 or c <= r)

    def test_motion_rows_see_condition_plus_own_prefix(self):
        mask = build_mask(2, 3)
        for i in range(3):
            row = 2 + i
            visible = set(np.where(mask[row])[0])
            assert visible == set(range(2)) | set(range(2, 2 + i + 1))

    def test_no_motion_rows_all_visible(self):
        assert build_mask(4, 0).all()

    def test_last_motion_row_sees_everything(self):
        assert build_mask(3, 5)[-1].all()


class TestForwardLogits:
    def test_zeroed_z_mlp_matches_no_z(self):
        mate, utt, _, _ = _models()
        utt.z1.w.data[...] = 0.0
        utt.z1.b.data[...] = 0.0
        utt.z2.w.data[...] = 0.0
        utt.z2.b.data[...] = 0.0
        cond = _cond(mate)
        prefix = [utt.cfg.bos, 1, 2]
        a = _logits(utt, cond, prefix)
        b = _logits(utt, cond, prefix, z=np.zeros(4))
        assert np.array_equal(a, b)

    def test_causality_bitwise(self):
        mate, utt, _, _ = _models()
        cond = _cond(mate)
        prefix = np.array([utt.cfg.bos, 1, 2, 3, 4])
        base = _logits(utt, cond, prefix)
        for j in range(2, 5):
            bumped = prefix.copy()
            bumped[j] = (bumped[j] + 3) % K
            out = _logits(utt, cond, bumped)
            assert np.array_equal(base[:j], out[:j])
            assert not np.array_equal(base[j:], out[j:])

    def test_appending_tokens_preserves_prefix_logits(self):
        # appended columns carry exactly-zero attention weight; the only
        # residue is float re-association in the row sums (last-ulp level)
        mate, utt, _, _ = _models()
        cond = _cond(mate)
        short = _logits(utt, cond, [utt.cfg.bos, 1, 2])
        long = _logits(utt, cond, [utt.cfg.bos, 1, 2, 5, 6])
        assert np.abs(short - long[:3]).max() < 1e-12

    def test_glob_perturbation_changes_all_positions(self):
        # bump one coordinate; per-row constant shifts would vanish in layer norm
        mate, utt, _, _ = _models()
        cond = _cond(mate)
        base = _logits(utt, cond, [utt.cfg.bos, 1, 2, 3])
        g = cond.glob.data.copy()
        g[0, 3] += 0.5
        cond_shift = type(cond)(glob=Tensor(g), seq=cond.seq, lengths=cond.lengths)
        out = _logits(utt, cond_shift, [utt.cfg.bos, 1, 2, 3])
        for i in range(out.shape[0]):
            assert not np.allclose(base[i], out[i])

    def test_seq_elements_all_visible(self):
        mate, utt, _, _ = _models()
        cond = _cond(mate, ids=(1, 2, 3, 4))
        base = _logits(utt, cond, [utt.cfg.bos, 1])
        for i in range(cond.seq.shape[1]):
            bumped_seq = cond.seq.data.copy()
            bumped_seq[0, i, 5] += 0.5
            cond2 = type(cond)(glob=cond.glob, seq=Tensor(bumped_seq), lengths=cond.lengths)
            out = _logits(utt, cond2, [utt.cfg.bos, 1])
            assert not np.allclose(base, out)

    def test_prefix_must_start_with_bos(self):
        mate, utt, _, _ = _models()
        with pytest.raises(ContractError):
            forward_logits(utt, _cond(mate), [[1, 2]])


class TestGenerate:
    def test_greedy_deterministic(self):
        mate, utt, _, _ = _models()
        cond = _cond(mate)
        cfg = SamplingConfig(mode="greedy")
        a = _generate(utt, cond, 8, cfg, seed=1)
        b = _generate(utt, cond, 8, cfg, seed=2)
        assert np.array_equal(a, b)

    def test_primitive_prefix_verbatim(self):
        mate, utt, _, _ = _models()
        cond = _cond(mate)
        primitive = np.array([3, 1, 4, 1, 5, 2, 6, 5])
        out = _generate(utt, cond, 12, SamplingConfig(mode="greedy"), primitive=primitive)
        assert np.array_equal(out[:8], primitive)

    def test_tiny_temperature_equals_greedy(self):
        mate, utt, _, _ = _models()
        cond = _cond(mate)
        greedy = _generate(utt, cond, 8, SamplingConfig(mode="greedy"), seed=0)
        cold = _generate(utt, cond, 8,
                         SamplingConfig(mode="topk", temperature=1e-6, top_k=K), seed=0)
        assert np.array_equal(greedy, cold)

    def test_top_k_one_is_greedy(self):
        mate, utt, _, _ = _models()
        cond = _cond(mate)
        greedy = _generate(utt, cond, 8, SamplingConfig(mode="greedy"), seed=3)
        k1 = _generate(utt, cond, 8, SamplingConfig(mode="topk", temperature=1.0, top_k=1),
                       seed=3)
        assert np.array_equal(greedy, k1)

    def test_min_len_forces_exact_length(self):
        mate, utt, _, _ = _models()
        cond = _cond(mate)
        out = _generate(utt, cond, 16, SamplingConfig(mode="greedy"), min_len=16)
        assert out.size == 16
        assert out.max() < K

    def test_max_len_smaller_than_primitive_rejected(self):
        mate, utt, _, _ = _models()
        with pytest.raises(ContractError):
            _generate(utt, _cond(mate), 2, primitive=np.array([1, 2, 3]))


def _reference_tokens(model, cond, max_len, sampling, primitive=(), z=None, seed=0,
                      min_len=0):
    """Sampling without a cache: the full forward over the whole prefix for
    every token."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    tokens = [int(t) for t in primitive]
    with nm.no_grad():
        while len(tokens) < max_len:
            prefix = np.array([model.cfg.bos] + tokens, dtype=np.int64)
            logits = _logits(model, cond, prefix, z=z)[-1].copy()
            logits[model.cfg.bos] = -np.inf
            if len(tokens) < min_len:
                logits[model.cfg.eos] = -np.inf
            choice = utt_mod._sample_one(logits, sampling, rng)
            if choice == model.cfg.eos:
                break
            tokens.append(int(choice))
    return np.array(tokens, dtype=np.int64)


def _z_model(seed=0, max_context=512):
    """Models whose z path is live: the zero-initialised z2 is randomised."""
    mate = _models(seed)[0]
    utt = UTTModel(UTTConfig(code_count=K, dim=16, layers=2, heads=2, z_dim=4,
                             max_context=max_context), np.random.default_rng(seed + 7))
    utt.z2.w.data[...] = np.random.default_rng(seed + 8).normal(0, 0.3, (16, 16))
    return mate, utt


CONDITIONS = {
    "text": lambda mate: encode(mate, text_input([1, 2, 3, 4, 5])),
    "audio": lambda mate: encode(mate, audio_input(
        np.random.default_rng(9).standard_normal((7, 5)))),
}


class TestKVCache:
    @pytest.mark.parametrize("modality", sorted(CONDITIONS))
    @pytest.mark.parametrize("use_z", [False, True])
    @pytest.mark.parametrize("primitive", [[], [3, 1, 4]])
    def test_cached_logits_equal_full_forward(self, modality, use_z, primitive):
        mate, utt = _z_model()
        cond = CONDITIONS[modality](mate)
        z = np.random.default_rng(4).standard_normal(4) if use_z else None
        tokens = list(primitive)
        caches = [[] for _ in utt.encoder.layers]
        follow = np.random.default_rng(6).integers(0, K, size=10)
        with nm.no_grad():
            prefix = np.array([utt.cfg.bos] + tokens)
            cached = forward_logits(utt, cond, [prefix], [z], caches).data[0, -1]
            for token in follow:
                full = _logits(utt, cond, [utt.cfg.bos] + tokens, z=z)[-1]
                assert np.abs(cached - full).max() < 1e-12
                tokens.append(int(token))
                cached = utt_mod._step_logits(utt, [cond.length], [tokens], caches).data[0, -1]

    def test_z_changes_the_logits(self):
        mate, utt = _z_model()
        cond = CONDITIONS["text"](mate)
        a = _logits(utt, cond, [utt.cfg.bos, 1])
        b = _logits(utt, cond, [utt.cfg.bos, 1], z=np.ones(4))
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("modality", sorted(CONDITIONS))
    @pytest.mark.parametrize("use_z", [False, True])
    @pytest.mark.parametrize("primitive", [[], [2, 7]])
    @pytest.mark.parametrize("sampling, min_len", [
        (SamplingConfig(mode="greedy"), 0),
        (SamplingConfig(mode="topk", top_k=4, temperature=1.0), 0),
        (SamplingConfig(mode="topk", top_k=K + 2, temperature=2.0), 12),
    ])
    def test_tokens_equal_the_uncached_loop(self, modality, use_z, primitive, sampling,
                                            min_len):
        mate, utt = _z_model()
        cond = CONDITIONS[modality](mate)
        z = np.random.default_rng(4).standard_normal(4) if use_z else None
        for seed in range(3):
            got = _generate(utt, cond, 12, sampling, primitive=primitive, z=z, seed=seed,
                            min_len=min_len)
            want = _reference_tokens(utt, cond, 12, sampling, primitive, z, seed, min_len)
            assert np.array_equal(got, want)
            if min_len:
                assert got.size == 12

    def test_outgrowing_max_context_raises_at_the_same_step(self):
        # 1 + 5 condition rows, BOS and three tokens fill the 10 rows; the
        # step after the fourth token needs 11
        mate, utt = _z_model(max_context=10)
        cond = CONDITIONS["text"](mate)
        sampling = SamplingConfig(mode="greedy")
        with pytest.raises(LengthError) as want:
            _reference_tokens(utt, cond, 8, sampling, min_len=8)
        with pytest.raises(LengthError) as got:
            _generate(utt, cond, 8, sampling, min_len=8)
        assert str(got.value) == str(want.value) == "context of 11 exceeds 10"
        assert _generate(utt, cond, 4, sampling, min_len=4).size == 4

    def test_primitive_longer_than_the_context_raises_on_the_first_pass(self):
        mate, utt = _z_model(max_context=10)
        cond = CONDITIONS["text"](mate)
        with pytest.raises(LengthError, match="context of 11 exceeds 10"):
            _generate(utt, cond, 8, primitive=[1, 2, 3, 4])


def _mixed_requests(mate):
    """Text and audio conditions of different lengths, z and a primitive on
    some of them: (conds, zs, primitives, seeds)."""
    feats = np.random.default_rng(10).standard_normal((11, 5))
    conds = [encode(mate, text_input([1, 2, 3])), encode(mate, audio_input(feats)),
             encode(mate, text_input([4, 5, 6, 7, 8, 9])), encode(mate, audio_input(feats[:4]))]
    zs = [None, np.random.default_rng(4).standard_normal(4), None,
          np.random.default_rng(5).standard_normal(4)]
    primitives = [[], [2, 7], None, [5]]
    return conds, zs, primitives, [3, 14, 15, 92]


class TestBatchedSampling:
    @pytest.mark.parametrize("sampling, min_len", [
        (SamplingConfig(mode="greedy"), 12),
        (SamplingConfig(mode="topk", top_k=4, temperature=1.0), 12),
        (SamplingConfig(mode="topk", top_k=K + 2, temperature=2.0), 5),
    ])
    def test_tokens_equal_each_request_alone_and_the_uncached_loop(self, sampling, min_len):
        mate, utt = _z_model()
        conds, zs, primitives, seeds = _mixed_requests(mate)
        got = generate_tokens(utt, stack_conditions(conds), 12, sampling,
                              primitive=primitives, z=zs, seed=seeds, min_len=min_len)
        assert isinstance(got, utt_mod.TokenBatch) and len(got) == 4
        assert got.size == sum(t.size for t in got)
        for b in range(4):
            alone = _generate(utt, conds[b], 12, sampling, primitive=primitives[b],
                              z=zs[b], seed=seeds[b], min_len=min_len)
            want = _reference_tokens(utt, conds[b], 12, sampling, primitives[b] or (),
                                     zs[b], seeds[b], min_len)
            assert np.array_equal(got[b], alone)
            assert np.array_equal(got[b], want)
            assert min_len <= got[b].size <= 12
        if min_len < 12:  # a row ends on EOS while others go on
            assert min(t.size for t in got) < 12

    def test_padded_rows_equal_each_request_alone(self):
        # conditions of 3, 11, 6 and 4 elements, prefixes of 1, 3, 1 and 2 tokens
        mate, utt = _z_model()
        conds, zs, primitives, _ = _mixed_requests(mate)
        prefixes = [[utt.cfg.bos] + list(p or []) for p in primitives]
        got = forward_logits(utt, stack_conditions(conds), prefixes, zs).data
        assert got.shape == (4, 3, K + 2)
        for b, prefix in enumerate(prefixes):
            alone = _logits(utt, conds[b], prefix, zs[b])
            assert np.abs(got[b, :len(prefix)] - alone).max() < 1e-12

    def test_step_logits_equal_each_request_alone(self):
        mate, utt = _z_model()
        conds, zs, primitives, _ = _mixed_requests(mate)
        cond = stack_conditions(conds)
        tokens = [list(p or []) for p in primitives]
        follow = np.random.default_rng(6).integers(0, K, size=(6, 4))
        with nm.no_grad():
            caches = [[] for _ in utt.encoder.layers]
            prefixes = [[utt.cfg.bos] + t for t in tokens]
            forward_logits(utt, cond, prefixes, zs, caches)
            visible = utt_mod._visible_keys(cond, np.array([len(p) for p in prefixes]),
                                            follow.shape[0])
            assert not visible.all()
            key_mask = additive_mask(visible)[:, None, None]
            for step in follow:
                for t, token in zip(tokens, step):
                    t.append(int(token))
                got = utt_mod._step_logits(utt, 1 + cond.lengths, tokens, caches,
                                           key_mask).data[:, -1]
                for b, (z, t) in enumerate(zip(zs, tokens)):
                    full = _logits(utt, conds[b], [utt.cfg.bos] + t, z)[-1]
                    assert np.abs(got[b] - full).max() < 1e-12

    def test_a_single_request_is_a_batch_of_one(self):
        mate, utt = _z_model()
        cond = CONDITIONS["audio"](mate)
        alone = generate_tokens(utt, cond, 9, seed=[4])
        assert isinstance(alone, utt_mod.TokenBatch) and len(alone) == 1
        assert np.array_equal(alone[0], _reference_tokens(utt, cond, 9, SamplingConfig(),
                                                          seed=4))

    def test_per_request_lists_must_match_the_batch(self):
        mate, utt = _z_model()
        cond = stack_conditions(_mixed_requests(mate)[0])
        with pytest.raises(ContractError):
            generate_tokens(utt, cond, 4, seed=[1, 2])
        with pytest.raises(ContractError):
            generate_tokens(utt, cond, 4, seed=[1, 2, 3, 4], primitive=[[1]])
        with pytest.raises(ContractError):
            forward_logits(utt, cond, [[utt.cfg.bos]])


class TestDiscriminator:
    def test_sixteen_scores_for_64_frames(self, rng):
        _, _, disc, _ = _models()
        scores = discriminate(disc, rng.standard_normal((1, 16)),
                              rng.standard_normal((1, 64, FRAME_DIM)))
        assert scores.shape == (1, 16)

    def test_zero_parameters_zero_scores(self, rng):
        _, _, disc, _ = _models()
        for _, p in disc.named_parameters():
            p.data[...] = 0.0
        scores = discriminate(disc, rng.standard_normal((1, 16)),
                              rng.standard_normal((1, 32, FRAME_DIM)))
        assert np.allclose(scores.data, 0.0)

    def test_condition_changes_every_patch_score(self, rng):
        _, _, disc, _ = _models()
        motion = rng.standard_normal((1, 32, FRAME_DIM))
        glob = rng.standard_normal((1, 16))
        a = discriminate(disc, glob, motion).data
        b = discriminate(disc, glob + 0.5, motion).data
        assert np.all(np.abs(a - b) > 0)

    def test_indivisible_length_rejected(self, rng):
        _, _, disc, _ = _models()
        with pytest.raises(DimensionError):
            discriminate(disc, rng.standard_normal((1, 16)),
                         rng.standard_normal((1, 30, FRAME_DIM)))


class TestLosses:
    def test_one_hot_logits_zero_ce(self):
        logits = Tensor(np.eye(5)[[0, 3, 2]] * 50.0)
        assert cross_entropy(logits, [0, 3, 2]).item() < 1e-12

    def test_uniform_logits_give_log_v(self):
        logits = Tensor(np.zeros((4, K + 2)))
        ce = cross_entropy(logits, [0, 1, 2, 3]).item()
        assert abs(ce - math.log(K + 2)) < 1e-12

    def test_beta_zero_total_is_ce(self):
        mate, utt, disc, mq = _models()
        cond = _cond(mate)
        tokens = np.array([[1, 2, 3, 4]])
        total, parts = utt_loss(utt, disc, cond, tokens, mq, beta_adv=0.0)
        assert abs(total.item() - parts["ce"].item()) < 1e-12

    def test_total_is_weighted_sum(self):
        mate, utt, disc, mq = _models()
        cond = _cond(mate)
        tokens = np.array([[1, 2, 3, 4]])
        total, parts = utt_loss(utt, disc, cond, tokens, mq, beta_adv=0.7)
        assert abs(total.item() - parts["ce"].item() - 0.7 * parts["adv"].item()) < 1e-12

    def test_adversarial_gradient_reaches_mate_and_utt(self):
        mate, utt, disc, mq = _models()
        cond = _cond(mate)
        tokens = np.array([[1, 2, 3, 4]])
        _, parts = utt_loss(utt, disc, cond, tokens, mq)
        opt = nm.Adam(mate.named_parameters() + utt.named_parameters(), lr=0.0)
        opt.zero_grad()
        parts["adv"].backward()
        grads = [np.abs(p.grad).max() for _, p in utt.named_parameters()]
        assert max(grads) > 0.0
        mate_grads = [np.abs(p.grad).max() for _, p in mate.named_parameters()]
        assert max(mate_grads) > 0.0

    def test_codebook_table_gets_no_gradient(self):
        # the soft mixture uses a detached codebook, so the table never learns here
        mate, utt, disc, mq = _models()
        cond = _cond(mate)
        _, parts = utt_loss(utt, disc, cond, np.array([[1, 2]]), mq)
        opt = nm.Adam([("cb", mq.codebook.table)], lr=0.0)
        opt.zero_grad()
        (parts["ce"] + parts["adv"]).backward()
        assert np.abs(mq.codebook.table.grad).max() == 0.0

    def test_hinge_disc_loss_nonnegative(self, rng):
        _, _, disc, _ = _models()
        loss = hinge_disc_loss(disc, rng.standard_normal((1, 16)),
                               rng.standard_normal((1, 16, FRAME_DIM)),
                               rng.standard_normal((1, 16, FRAME_DIM)))
        assert loss.item() >= 0.0

    def test_batch_equals_mean_of_its_rows(self, rng):
        # one batched graph over a mixed text/audio batch with z on two rows
        # stands in for the mean of per-request graphs
        mate, utt = _z_model()
        _, _, disc, mq = _models()
        feats = rng.standard_normal((11, 5))
        inputs = [text_input([1, 2, 3]), audio_input(feats), text_input([4, 5, 6, 7, 8, 9]),
                  audio_input(feats[:4])]
        zs = [None, rng.standard_normal(4), None, rng.standard_normal(4)]
        tokens = rng.integers(0, K, size=(4, 4))
        real = rng.standard_normal((4, 16, FRAME_DIM))
        params = mate.named_parameters() + utt.named_parameters() + disc.named_parameters()

        def losses(rows):
            cond = stack_conditions([encode(mate, inputs[b]) for b in rows])
            total, parts = utt_loss(utt, disc, cond, tokens[rows], mq,
                                    z=[zs[b] for b in rows])
            return total, hinge_disc_loss(disc, cond.glob, real[rows], parts["fake"])

        def gradients(loss):
            nm.Adam(params).zero_grad()
            loss.backward()
            return [p.grad.copy() for _, p in params]

        for pick in (0, 1):  # utt_loss, then hinge_disc_loss
            batched = losses([0, 1, 2, 3])[pick]
            rows = [losses([b])[pick] for b in range(4)]
            mean = sum(rows[1:], rows[0]) * 0.25
            assert abs(batched.item() - mean.item()) < 1e-12
            for a, b in zip(gradients(batched), gradients(mean)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestTrainUtt:
    def _samples(self, rng, n=6):
        out = []
        for i in range(n):
            if i % 2 == 0:
                inp = text_input(rng.integers(1, 10, size=4))
            else:
                inp = audio_input(rng.standard_normal((6, 5)))
            out.append((inp, rng.standard_normal((16, FRAME_DIM))))
        return out

    def test_zero_epochs_unchanged(self, rng):
        mate, utt, disc, mq = _models()
        before = [p.data.copy() for _, p in utt.named_parameters()]
        history = train_utt(mate, utt, disc, mq, self._samples(rng), epochs=0, seed=0)
        assert history == []
        for (_, p), old in zip(utt.named_parameters(), before):
            assert np.array_equal(p.data, old)

    def test_mq_stays_frozen_during_training(self, rng):
        mate, utt, disc, mq = _models()
        before = [p.data.copy() for _, p in mq.named_parameters()]
        train_utt(mate, utt, disc, mq, self._samples(rng), epochs=2, seed=0)
        for (_, p), old in zip(mq.named_parameters(), before):
            assert np.array_equal(p.data, old)

    def test_ce_improves_on_tiny_set(self, rng):
        mate, utt, disc, mq = _models()
        samples = self._samples(rng, n=6)
        eval_samples = samples
        before = mean_cross_entropy(mate, utt, mq, eval_samples)
        train_utt(mate, utt, disc, mq, samples, epochs=12, seed=0, lr=2e-3)
        after = mean_cross_entropy(mate, utt, mq, eval_samples)
        assert after < before

    def test_both_modalities_improve(self, rng):
        mate, utt, disc, mq = _models()
        samples = self._samples(rng, n=8)
        text_s = [s for s in samples if s[0].modality == "text"]
        audio_s = [s for s in samples if s[0].modality == "audio"]
        before_t = mean_cross_entropy(mate, utt, mq, text_s)
        before_a = mean_cross_entropy(mate, utt, mq, audio_s)
        train_utt(mate, utt, disc, mq, samples, epochs=15, seed=1, lr=2e-3)
        assert mean_cross_entropy(mate, utt, mq, text_s) < before_t
        assert mean_cross_entropy(mate, utt, mq, audio_s) < before_a
