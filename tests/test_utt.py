import math

import numpy as np
import pytest

from ude import numerics as nm
from ude import utt as utt_mod
from ude.config import RunConfig
from ude.errors import DataError
from ude.mate import MATEModel, audio_input, encode, text_input
from ude.mq import MQModel
from ude.nn import additive_mask, causal_prefix_mask, cross_entropy
from ude.numerics import Tensor
from ude.utt import (UTTModel, forward_logits, generate_tokens, hinge_disc_loss,
                     mean_cross_entropy, train_utt, utt_loss)

K = 8
BOS = K  # the UTT's BOS id is its code_count


def _cfg(**kw):
    """The models' run config; generate_tokens reads only the top_k and
    temperature of the run config it is passed."""
    return RunConfig(feature_dim=5, embed_dim=16, mate_layers=1, mate_heads=2, max_text_len=12,
                     max_audio_len=20, code_count=K, utt_layers=2, utt_heads=2, z_dim=4,
                     code_dim=4, mq_hidden=8, batch_size=4, **kw)


FRAME_DIM = _cfg().frame_dim


def _models(seed=0, **kw):
    """(the UTT's MATE, the UTT, a quantizer)."""
    cfg = _cfg(**kw)
    utt = UTTModel(cfg, np.random.default_rng(seed))
    mq = MQModel(cfg, np.random.default_rng(seed + 1))
    return utt.mate, utt, mq


def _cond(mate, ids=(1, 2, 3)):
    return encode(mate, [text_input(list(ids))])


def _logits(utt, cond, prefix, z=None):
    """forward_logits of one request, as a batch of one: [S, K]."""
    return forward_logits(utt, cond, [prefix], None if z is None else [z]).data[0]


def _generate(utt, cond, max_len, sampling=None, primitive=None, z=None, seed=0):
    """generate_tokens of one request, as a batch of one."""
    out = generate_tokens(utt, cond, max_len, sampling or RunConfig(),
                          primitive=None if primitive is None else [primitive], z=[z],
                          seed=[seed])
    assert out.shape == (1, max_len) and out.dtype == np.int64
    return out[0]


class _FullRows:
    """Stands in for a UTT's encoder: computes every row of the last layer,
    as the forward did before it started at the first motion row, and drops
    the condition rows afterwards."""

    def __init__(self, encoder):
        self.encoder = encoder
        self.layers = encoder.layers

    def __call__(self, x, add_mask=None, caches=None, start=0):
        return self.encoder(x, add_mask, caches)[:, start:]


def test_the_utt_draws_its_mate_first():
    # the MATE is built before any other attribute that draws, so a UTT's
    # first parameters are those of a MATE built from the same seed, in the
    # same order; a checkpoint's payload and a seed's weights depend on it
    utt = UTTModel(_cfg(), np.random.default_rng(4))
    mate = MATEModel(_cfg(), np.random.default_rng(4)).named_parameters()
    first = utt.named_parameters()[:len(mate)]
    assert [name for name, _ in first] == [f"mate.{name}" for name, _ in mate]
    for (name, got), (_, want) in zip(first, mate):
        np.testing.assert_array_equal(got.data, want.data, err_msg=name)
    assert not any(name.startswith("mate.") for name, _ in utt.named_parameters()[len(mate):])


class TestBuildMask:
    """The condition-prefix causal mask that `forward_logits` builds."""

    def test_enumerated_rule(self):
        mask = causal_prefix_mask(2, 3)
        for r in range(5):
            for c in range(5):
                assert mask[r, c] == (c < 2 or c <= r)

    def test_motion_rows_see_condition_plus_own_prefix(self):
        mask = causal_prefix_mask(2, 3)
        for i in range(3):
            row = 2 + i
            visible = set(np.where(mask[row])[0])
            assert visible == set(range(2)) | set(range(2, 2 + i + 1))

    def test_no_motion_rows_all_visible(self):
        assert causal_prefix_mask(4, 0).all()

    def test_last_motion_row_sees_everything(self):
        assert causal_prefix_mask(3, 5)[-1].all()


class TestForwardLogits:
    def test_zeroed_z_mlp_matches_no_z(self):
        mate, utt, _ = _models()
        utt.z1.w.data[...] = 0.0
        utt.z1.b.data[...] = 0.0
        utt.z2.w.data[...] = 0.0
        utt.z2.b.data[...] = 0.0
        cond = _cond(mate)
        prefix = [BOS, 1, 2]
        a = _logits(utt, cond, prefix)
        b = _logits(utt, cond, prefix, z=np.zeros(4))
        assert np.array_equal(a, b)

    def test_causality_bitwise(self):
        mate, utt, _ = _models()
        cond = _cond(mate)
        prefix = np.array([BOS, 1, 2, 3, 4])
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
        mate, utt, _ = _models()
        cond = _cond(mate)
        short = _logits(utt, cond, [BOS, 1, 2])
        long = _logits(utt, cond, [BOS, 1, 2, 5, 6])
        assert np.abs(short - long[:3]).max() < 1e-12

    def test_glob_perturbation_changes_all_positions(self):
        # bump one coordinate; per-row constant shifts would vanish in layer norm
        mate, utt, _ = _models()
        cond = _cond(mate)
        base = _logits(utt, cond, [BOS, 1, 2, 3])
        g = cond.glob.data.copy()
        g[0, 3] += 0.5
        cond_shift = type(cond)(glob=Tensor(g), seq=cond.seq, lengths=cond.lengths)
        out = _logits(utt, cond_shift, [BOS, 1, 2, 3])
        for i in range(out.shape[0]):
            assert not np.allclose(base[i], out[i])

    def test_seq_elements_all_visible(self):
        mate, utt, _ = _models()
        cond = _cond(mate, ids=(1, 2, 3, 4))
        base = _logits(utt, cond, [BOS, 1])
        for i in range(cond.seq.shape[1]):
            bumped_seq = cond.seq.data.copy()
            bumped_seq[0, i, 5] += 0.5
            cond2 = type(cond)(glob=cond.glob, seq=Tensor(bumped_seq), lengths=cond.lengths)
            out = _logits(utt, cond2, [BOS, 1])
            assert not np.allclose(base, out)

    @pytest.mark.parametrize("modality", ["text", "audio", "mixed"])
    @pytest.mark.parametrize("use_z", [False, True])
    @pytest.mark.parametrize("primitive", [[], [3, 1, 4]])
    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_motion_rows_equal_the_full_row_forward(self, monkeypatch, modality, use_z,
                                                    primitive, cached):
        mate, utt = _z_model()
        inputs, zs, _, _ = _mixed_requests(mate)
        picks = {"text": [0, 2], "audio": [1, 3], "mixed": [0, 1, 2, 3]}[modality]
        cond = encode(mate, [inputs[b] for b in picks])
        z = [zs[b] if use_z else None for b in picks]
        prefixes = [[BOS] + primitive] * len(picks)

        def run():
            caches = [[] for _ in utt.encoder.layers] if cached else None
            with nm.no_grad():
                return forward_logits(utt, cond, prefixes, z, caches).data, caches

        got, got_caches = run()
        monkeypatch.setattr(utt, "encoder", _FullRows(utt.encoder))
        want, want_caches = run()
        assert np.abs(got - want).max() < 1e-12
        for got_kv, want_kv in zip(got_caches or [], want_caches or []):
            assert all(np.array_equal(a.data, b.data) for a, b in zip(got_kv, want_kv))

    def test_prefix_must_start_with_bos(self):
        mate, utt, _ = _models()
        with pytest.raises(DataError, match="must start with BOS"):
            forward_logits(utt, _cond(mate), [[1, 2]])

    @pytest.mark.parametrize("token", [K, K + 1, -1], ids=["bos", "past-bos", "negative"])
    def test_prefix_holds_codebook_ids_after_bos(self, token):
        mate, utt, _ = _models()
        with pytest.raises(DataError, match="non-codebook ids"):
            forward_logits(utt, _cond(mate), [[BOS, 1, token]])

    def test_the_head_is_the_codebook(self):
        # BOS is only ever an input: the table embeds it, the head never predicts it
        _, utt, _ = _models()
        assert utt.token_table.table.shape == (K + 1, 16)
        assert utt.out_proj.w.shape == (16, K)


class TestGenerate:
    def test_greedy_deterministic(self):
        mate, utt, _ = _models()
        cond = _cond(mate)
        cfg = RunConfig(top_k=1)
        a = _generate(utt, cond, 8, cfg, seed=1)
        b = _generate(utt, cond, 8, cfg, seed=2)
        assert np.array_equal(a, b)

    def test_primitive_prefix_verbatim(self):
        mate, utt, _ = _models()
        cond = _cond(mate)
        primitive = np.array([3, 1, 4, 1, 5, 2, 6, 5])
        out = _generate(utt, cond, 12, RunConfig(top_k=1), primitive=primitive)
        assert np.array_equal(out[:8], primitive)

    def test_tiny_temperature_equals_greedy(self):
        mate, utt, _ = _models()
        cond = _cond(mate)
        greedy = _generate(utt, cond, 8, RunConfig(top_k=1), seed=0)
        cold = _generate(utt, cond, 8,
                         RunConfig(temperature=1e-6, top_k=K), seed=0)
        assert np.array_equal(greedy, cold)

    def test_top_k_one_is_greedy(self):
        mate, utt, _ = _models()
        cond = _cond(mate)
        k1 = _generate(utt, cond, 8, RunConfig(temperature=1.0, top_k=1), seed=3)
        greedy = []
        with nm.no_grad():
            while len(greedy) < 8:
                greedy.append(int(np.argmax(_logits(utt, cond, [BOS] + greedy)[-1])))
        assert k1.tolist() == greedy

    def test_every_row_gets_exactly_max_len_codebook_ids(self):
        # top_k beyond the codebook at a high temperature: the head gives the
        # K codebook logits alone, so nothing else can be drawn
        mate, utt = _z_model()
        inputs, zs, _, seeds = _mixed_requests(mate)
        out = generate_tokens(utt, encode(mate, inputs), 16,
                              RunConfig(top_k=K + 2, temperature=2.0), z=zs, seed=seeds)
        assert out.shape == (4, 16) and out.dtype == np.int64
        assert out.min() >= 0 and out.max() < K

    def test_max_len_smaller_than_primitive_rejected(self):
        mate, utt, _ = _models()
        with pytest.raises(DataError, match="smaller than the primitive"):
            _generate(utt, _cond(mate), 2, primitive=np.array([1, 2, 3]))

    @pytest.mark.parametrize("primitive", [[[1, 2], [3]], [[1, 2], None], [1, 2]],
                             ids=["ragged", "a-row-of-none", "one-dimensional"])
    def test_primitives_must_be_one_row_per_request_of_one_length(self, primitive):
        mate, utt, _ = _models()
        cond = encode(mate, [text_input([1, 2, 3]), text_input([4, 5])])
        with pytest.raises(DataError, match="primitives"):
            generate_tokens(utt, cond, 4, RunConfig(), primitive=primitive, seed=[1, 2])


def _choice_draw(logits, sampling, rng):
    """The token draw through rng.choice, with its checks on p."""
    k = min(sampling.top_k, logits.size)
    keep = np.argsort(-logits, kind="stable")[:k]
    tau = max(sampling.temperature, 1e-12)
    scaled = (logits[keep] - logits[keep].max()) / tau
    with np.errstate(under="ignore"):
        probs = np.exp(scaled)
    probs /= probs.sum()
    return int(keep[rng.choice(k, p=probs)])


@pytest.mark.parametrize("width, sampling, ties", [
    (K, RunConfig(), False),
    (K, RunConfig(), True),
    (64, RunConfig(), False),
    (64, RunConfig(), True),
    (K, RunConfig(top_k=K + 5), False),  # top_k beyond the codebook
    (64, RunConfig(temperature=1e-9), False),
    (64, RunConfig(temperature=1e-9), True),
    (64, RunConfig(top_k=3, temperature=3.0), True),
    (K, RunConfig(top_k=1), False),
], ids=["k8", "k8-ties", "k64", "k64-ties", "top-k-beyond-k", "tiny-temperature",
        "tiny-temperature-ties", "hot-top-3-ties", "greedy"])
def test_the_draw_gives_rng_choices_token_and_stream_position(width, sampling, ties):
    source = np.random.default_rng(11)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(1500):
        logits = source.standard_normal(width) * 3.0
        if ties:  # a handful of distinct values, so most logits tie with another
            logits = np.round(logits / 2.0)
        assert utt_mod._sample_one(logits, sampling, rng) == _choice_draw(logits, sampling, ref)
        assert rng.random() == ref.random()


def _reference_tokens(model, cond, max_len, sampling, primitive=(), z=None, seed=0):
    """Sampling without a cache: the full forward over the whole prefix for
    every token."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    tokens = [int(t) for t in primitive]
    with nm.no_grad():
        while len(tokens) < max_len:
            prefix = np.array([model.cfg.code_count] + tokens, dtype=np.int64)
            tokens.append(utt_mod._sample_one(_logits(model, cond, prefix, z=z)[-1], sampling,
                                              rng))
    return np.array(tokens, dtype=np.int64)


def _z_model(seed=0, max_context=512):
    """(the UTT's MATE, a UTT whose z path is live: the zero-initialised z2
    is randomised)."""
    utt = UTTModel(_cfg(max_context=max_context), np.random.default_rng(seed + 7))
    utt.z2.w.data[...] = np.random.default_rng(seed + 8).normal(0, 0.3, (16, 16))
    return utt.mate, utt


INPUTS = {
    "text": text_input([1, 2, 3, 4, 5]),
    "audio": audio_input(np.random.default_rng(9).standard_normal((7, 5))),
}
CONDITIONS = {name: lambda mate, inp=inp: encode(mate, [inp]) for name, inp in INPUTS.items()}


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
            prefix = np.array([BOS] + tokens)
            cached = forward_logits(utt, cond, [prefix], [z], caches).data[0, -1]
            for token in follow:
                full = _logits(utt, cond, [BOS] + tokens, z=z)[-1]
                assert np.abs(cached - full).max() < 1e-12
                tokens.append(int(token))
                cached = utt_mod._step_logits(utt, len(tokens), [[int(token)]],
                                              caches).data[0, -1]

    def test_z_changes_the_logits(self):
        mate, utt = _z_model()
        cond = CONDITIONS["text"](mate)
        a = _logits(utt, cond, [BOS, 1])
        b = _logits(utt, cond, [BOS, 1], z=np.ones(4))
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("modality", sorted(CONDITIONS))
    @pytest.mark.parametrize("use_z", [False, True])
    @pytest.mark.parametrize("primitive", [[], [2, 7]])
    @pytest.mark.parametrize("sampling, first_seed", [
        (RunConfig(top_k=1), 0),
        (RunConfig(top_k=4, temperature=1.0), 0),
        (RunConfig(top_k=K, temperature=2.0), 12),
    ])
    def test_tokens_equal_the_uncached_loop(self, modality, use_z, primitive, sampling,
                                            first_seed):
        mate, utt = _z_model()
        cond = CONDITIONS[modality](mate)
        z = np.random.default_rng(4).standard_normal(4) if use_z else None
        for seed in range(first_seed, first_seed + 3):
            got = _generate(utt, cond, 12, sampling, primitive=primitive, z=z, seed=seed)
            want = _reference_tokens(utt, cond, 12, sampling, primitive, z, seed)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("primitive", [None, [1, 2, 3, 4]], ids=["none", "four-tokens"])
    def test_a_context_too_short_for_max_len_raises_before_sampling(self, primitive,
                                                                    monkeypatch):
        # 1 + 5 condition rows, BOS and four tokens fill the 11 rows that
        # sampling a fifth token needs; the first pass alone would fit
        mate, utt = _z_model(max_context=10)
        cond = CONDITIONS["text"](mate)
        assert _generate(utt, cond, 4, primitive=primitive).size == 4
        monkeypatch.setattr(utt_mod, "forward_logits", None)  # never reached
        with pytest.raises(DataError, match="^context of 11 exceeds 10$"):
            _generate(utt, cond, 5, primitive=primitive)


def _mixed_requests(mate):
    """Text and audio conditions of different lengths, z and a primitive on
    some of them: (inputs, zs, primitives, seeds)."""
    feats = np.random.default_rng(10).standard_normal((11, 5))
    inputs = [text_input([1, 2, 3]), audio_input(feats), text_input([4, 5, 6, 7, 8, 9]),
              audio_input(feats[:4])]
    zs = [None, np.random.default_rng(4).standard_normal(4), None,
          np.random.default_rng(5).standard_normal(4)]
    primitives = [[2, 7], [1, 0], [6, 6], [5, 3]]
    return inputs, zs, primitives, [3, 14, 15, 92]


class TestBatchedSampling:
    @pytest.mark.parametrize("sampling, max_len", [
        (RunConfig(top_k=1), 12),
        (RunConfig(top_k=4, temperature=1.0), 12),
        (RunConfig(top_k=K, temperature=2.0), 5),
    ])
    def test_tokens_equal_each_request_alone_and_the_uncached_loop(self, sampling, max_len):
        mate, utt = _z_model()
        inputs, zs, primitives, seeds = _mixed_requests(mate)
        conds = [encode(mate, [inp]) for inp in inputs]
        got = generate_tokens(utt, encode(mate, inputs), max_len, sampling,
                              primitive=primitives, z=zs, seed=seeds)
        assert got.shape == (4, max_len)
        for b in range(4):
            alone = _generate(utt, conds[b], max_len, sampling, primitive=primitives[b],
                              z=zs[b], seed=seeds[b])
            want = _reference_tokens(utt, conds[b], max_len, sampling, primitives[b],
                                     zs[b], seeds[b])
            assert np.array_equal(got[b], alone)
            assert np.array_equal(got[b], want)

    def test_padded_rows_equal_each_request_alone(self):
        # conditions of 3, 11, 6 and 4 elements
        mate, utt = _z_model()
        inputs, zs, primitives, _ = _mixed_requests(mate)
        conds = [encode(mate, [inp]) for inp in inputs]
        prefixes = [[BOS] + p for p in primitives]
        got = forward_logits(utt, encode(mate, inputs), prefixes, zs).data
        assert got.shape == (4, 3, K)
        for b, prefix in enumerate(prefixes):
            alone = _logits(utt, conds[b], prefix, zs[b])
            assert np.abs(got[b] - alone).max() < 1e-12

    def test_step_logits_equal_each_request_alone(self):
        mate, utt = _z_model()
        inputs, zs, primitives, _ = _mixed_requests(mate)
        conds = [encode(mate, [inp]) for inp in inputs]
        cond = encode(mate, inputs)
        tokens = [list(p) for p in primitives]
        follow = np.random.default_rng(6).integers(0, K, size=(6, 4))
        with nm.no_grad():
            caches = [[] for _ in utt.encoder.layers]
            forward_logits(utt, cond, [[BOS] + t for t in tokens], zs, caches)
            visible = utt_mod._visible_keys(cond, 1 + len(tokens[0]) + follow.shape[0])
            assert not visible.all()
            key_mask = additive_mask(visible)[:, None, None]
            for step in follow:
                for t, token in zip(tokens, step):
                    t.append(int(token))
                got = utt_mod._step_logits(utt, len(tokens[0]), step[:, None], caches,
                                           key_mask).data[:, -1]
                for b, (z, t) in enumerate(zip(zs, tokens)):
                    full = _logits(utt, conds[b], [BOS] + t, z)[-1]
                    assert np.abs(got[b] - full).max() < 1e-12

    def test_a_single_request_is_a_batch_of_one(self):
        mate, utt = _z_model()
        cond = CONDITIONS["audio"](mate)
        alone = generate_tokens(utt, cond, 9, RunConfig(), seed=[4])
        assert alone.shape == (1, 9)
        assert np.array_equal(alone[0], _reference_tokens(utt, cond, 9, RunConfig(),
                                                          seed=4))

    def test_per_request_lists_must_match_the_batch(self):
        mate, utt = _z_model()
        cond = encode(mate, _mixed_requests(mate)[0])
        with pytest.raises(DataError, match="got 2 values"):
            generate_tokens(utt, cond, 4, RunConfig(), seed=[1, 2])
        with pytest.raises(DataError, match="primitives of shape"):
            generate_tokens(utt, cond, 4, RunConfig(), seed=[1, 2, 3, 4], primitive=[[1]])
        with pytest.raises(DataError, match="prefixes of shape"):
            forward_logits(utt, cond, [[BOS]])


class TestLosses:
    def test_one_hot_logits_zero_ce(self):
        logits = Tensor(np.eye(5)[[0, 3, 2]] * 50.0)
        assert cross_entropy(logits, [0, 3, 2]).item() < 1e-12

    def test_uniform_logits_give_log_v(self):
        logits = Tensor(np.zeros((4, K + 2)))
        ce = cross_entropy(logits, [0, 1, 2, 3]).item()
        assert abs(ce - math.log(K + 2)) < 1e-12

    def test_default_size_gradients_equal_the_full_row_forwards(self, monkeypatch):
        # a batch of 8 at the default sizes, text and audio conditions of up
        # to 64 rows, z on two thirds of the rows: fewer rows in the last
        # layer's sums move MATE and UTT gradients (up to about 0.16) by at
        # most a few ulps (2.8e-17 here); the stated tolerance is 1e-15
        rng = np.random.default_rng(0)
        utt = UTTModel(RunConfig(), rng)
        mate = utt.mate
        utt.z2.w.data[...] = rng.normal(0.0, 0.1, utt.z2.w.shape)
        inputs = [text_input(rng.integers(1, 40, size=3 + b)) if b % 2 == 0
                  else audio_input(rng.standard_normal((64 - b, 16))) for b in range(8)]
        zs = [rng.standard_normal(16) if b % 3 else None for b in range(8)]
        tokens = rng.integers(0, 64, size=(8, 16))
        params = utt.named_parameters()

        def gradients():
            nm.Adam(params, lr=1e-4).zero_grad()
            cond = encode(mate, inputs)
            utt_loss(utt, cond, tokens, z=zs).backward()
            return [p.grad for _, p in params]

        got = gradients()
        monkeypatch.setattr(utt, "encoder", _FullRows(utt.encoder))
        want = gradients()
        for (name, _), a, b in zip(params, got, want):
            assert a is not None and b is not None, name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-15, err_msg=name)

    def test_ce_scores_every_token_over_the_codebook_logits(self, rng):
        # the reference, one request and one target at a time: target t_i is
        # scored by -log_softmax of the K code logits after [BOS, t_0..t_{i-1}],
        # and "ce" is the mean over the S targets of every row
        mate, utt = _z_model()
        conds = [CONDITIONS[modality](mate) for modality in sorted(CONDITIONS)]
        tokens = rng.integers(0, K, size=(2, 5))
        cond = encode(mate, [INPUTS[modality] for modality in sorted(INPUTS)])
        ce = utt_loss(utt, cond, tokens)
        want = []
        with nm.no_grad():
            for cond, row in zip(conds, tokens):
                for i, target in enumerate(row):
                    logits = _logits(utt, cond, [BOS, *row[:i]])[-1]
                    assert logits.shape == (K,)
                    top = logits.max()
                    want.append(top + np.log(np.exp(logits - top).sum()) - logits[target])
        assert len(want) == tokens.size
        assert abs(ce.item() - np.mean(want)) < 1e-12

    def test_held_out_ce_is_the_ce_part_of_the_training_loss(self, rng):
        # both run the motion-rows-only forward: bit for bit the same number
        mate, utt = _z_model()
        mq = _models()[2]
        inputs = [text_input([1, 2, 3, 4]), audio_input(rng.standard_normal((6, 5)))]
        samples = [(inp, rng.standard_normal((16, FRAME_DIM))) for inp in inputs]
        cond = encode(mate, [inp for inp, _ in samples])
        tokens = mq.encode_tokens(np.stack([frames for _, frames in samples]))
        ce = utt_loss(utt, cond, tokens).item()
        assert mean_cross_entropy(utt, mq, samples) == ce

    def test_held_out_ce_of_no_samples_is_a_data_error(self):
        _, utt, mq = _models()
        with pytest.raises(DataError, match="^no conditions to encode$"):
            mean_cross_entropy(utt, mq, [])

    def test_hinge_disc_loss_nonnegative(self, rng):
        loss = hinge_disc_loss(Tensor(rng.standard_normal((1, 4))),
                               Tensor(rng.standard_normal((1, 4))))
        assert loss.item() >= 0.0

    def test_hinge_disc_loss_is_the_mean_hinge_of_each_score_set(self):
        real = Tensor(np.array([[2.0, 0.5, -1.0, 1.0]]))
        fake = Tensor(np.array([[-3.0, 0.0, 0.25, -1.0]]))
        # relu(1 - real): 0, 0.5, 2, 0; relu(1 + fake): 0, 1, 1.25, 0
        assert hinge_disc_loss(real, fake).item() == 2.5 / 4 + 2.25 / 4
        # scores past both margins cost nothing
        assert hinge_disc_loss(Tensor(np.full((2, 3), 1.5)),
                               Tensor(np.full((2, 3), -1.5))).item() == 0.0

    def test_no_z_is_no_z_on_any_row(self, rng):
        mate, utt = _z_model()
        cond = encode(mate, [text_input([1, 2, 3]), audio_input(rng.standard_normal((6, 5)))])
        tokens = rng.integers(0, K, size=(2, 4))
        assert utt_loss(utt, cond, tokens).item() == \
            utt_loss(utt, cond, tokens, z=[None, None]).item()

    def test_ce_gradient_reaches_mate_and_utt(self):
        mate, utt, _ = _models()
        loss = utt_loss(utt, _cond(mate), np.array([[1, 2, 3, 4]]))
        opt = nm.Adam(utt.named_parameters(), lr=0.0)
        opt.zero_grad()
        loss.backward()
        for in_mate in (False, True):
            # a parameter no path reaches holds None, not zeros
            reached = [p.grad for name, p in utt.named_parameters()
                       if name.startswith("mate.") == in_mate and p.grad is not None]
            assert max(np.abs(g).max() for g in reached) > 0.0

    def test_batch_equals_mean_of_its_rows(self, rng):
        # one batched graph over a mixed text/audio batch with z on two rows
        # stands in for the mean of per-request graphs
        mate, utt = _z_model()
        feats = rng.standard_normal((11, 5))
        inputs = [text_input([1, 2, 3]), audio_input(feats), text_input([4, 5, 6, 7, 8, 9]),
                  audio_input(feats[:4])]
        zs = [None, rng.standard_normal(4), None, rng.standard_normal(4)]
        tokens = rng.integers(0, K, size=(4, 4))
        params = utt.named_parameters()

        def loss(rows):
            cond = encode(mate, [inputs[b] for b in rows])
            return utt_loss(utt, cond, tokens[rows], z=[zs[b] for b in rows])

        def gradients(loss):
            nm.Adam(params, lr=1e-4).zero_grad()
            loss.backward()
            return [p.grad.copy() for _, p in params]

        batched = loss([0, 1, 2, 3])
        rows = [loss([b]) for b in range(4)]
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
        _, utt, mq = _models()
        before = [p.data.copy() for _, p in utt.named_parameters()]
        history = train_utt(utt, mq, self._samples(rng), epochs=0, seed=0)
        assert history == []
        for (_, p), old in zip(utt.named_parameters(), before):
            assert np.array_equal(p.data, old)

    def test_an_empty_training_set_is_a_data_error(self):
        _, utt, mq = _models()
        with pytest.raises(DataError, match="empty training set"):
            train_utt(utt, mq, [], epochs=1, seed=0)

    def test_history_holds_the_cross_entropy_of_each_epoch(self, rng):
        _, utt, mq = _models()
        history = train_utt(utt, mq, self._samples(rng), epochs=2, seed=0)
        assert [list(row) for row in history] == [["ce", "epoch"]] * 2
        assert [row["epoch"] for row in history] == [0, 1]
        assert all(np.isfinite(row["ce"]) and row["ce"] > 0.0 for row in history)

    def test_one_optimizer_steps_mate_and_utt(self, rng):
        _, utt, mq = _models()
        before = {name: p.data.copy() for name, p in utt.named_parameters()}
        train_utt(utt, mq, self._samples(rng), epochs=1, seed=0)
        # both the MATE's parameters and the UTT's own moved
        assert {name.startswith("mate.") for name, p in utt.named_parameters()
                if not np.array_equal(p.data, before[name])} == {True, False}

    def test_same_seed_gives_the_same_parameters(self, rng):
        samples = self._samples(rng)

        def trained(seed):
            _, utt, mq = _models()
            history = train_utt(utt, mq, samples, epochs=2, seed=seed)
            params = utt.named_parameters()
            return history, [p.data.tobytes() for _, p in params]

        assert trained(0) == trained(0)
        assert trained(0)[1] != trained(1)[1]

    def test_mq_stays_frozen_during_training(self, rng):
        # bit for bit: the optimizer steps no MQ parameter, and nothing
        # touches its buffers
        _, utt, mq = _models()

        def state():
            arrays = [p.data for _, p in mq.named_parameters()] + [mq.center, mq.scale, mq.usage]
            return [a.tobytes() for a in arrays]

        before = state()
        train_utt(utt, mq, self._samples(rng), epochs=2, seed=0)
        assert state() == before

    def test_mq_holds_no_gradient_after_training(self, rng):
        # the target tokens come from the frozen quantizer outside the graph,
        # so no MQ parameter collects a gradient no optimizer reads
        _, utt, mq = _models()
        train_utt(utt, mq, self._samples(rng), epochs=1, seed=0)
        params = dict(mq.named_parameters())
        assert {"dec1.kernel", "dec3.bias", "codebook.table"} <= set(params)
        assert all(p.grad is None for p in params.values())

    def test_ce_improves_on_tiny_set(self, rng):
        _, utt, mq = _models(lr=2e-3)
        samples = self._samples(rng, n=6)
        eval_samples = samples
        before = mean_cross_entropy(utt, mq, eval_samples)
        train_utt(utt, mq, samples, epochs=12, seed=0)
        after = mean_cross_entropy(utt, mq, eval_samples)
        assert after < before

    def test_both_modalities_improve(self, rng):
        _, utt, mq = _models(lr=2e-3)
        samples = self._samples(rng, n=8)
        text_s = [s for s in samples if s[0].modality == "text"]
        audio_s = [s for s in samples if s[0].modality == "audio"]
        before_t = mean_cross_entropy(utt, mq, text_s)
        before_a = mean_cross_entropy(utt, mq, audio_s)
        train_utt(utt, mq, samples, epochs=15, seed=1)
        assert mean_cross_entropy(utt, mq, text_s) < before_t
        assert mean_cross_entropy(utt, mq, audio_s) < before_a
