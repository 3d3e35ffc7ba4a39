import numpy as np
import pytest

from ude import numerics as nm
from ude import utt as utt_mod
from ude.config import RunConfig
from ude.errors import DataError
from ude.mate import (CondEmbedding, MATEModel, ModalityInput, assemble_sequence,
                      audio_input, embed_modality, encode, text_input)
from ude.mq import DOWNSAMPLE, MQModel
from ude.utt import UTTModel, train_utt


def _cfg(**kw):
    return RunConfig(feature_dim=5, embed_dim=16, mate_layers=2, mate_heads=2, max_text_len=12,
                     max_audio_len=24, code_count=8, code_dim=4, mq_hidden=8, utt_layers=1,
                     utt_heads=2, z_dim=4, **kw)


def _model(seed=0, **kw):
    return MATEModel(_cfg(**kw), np.random.default_rng(seed))


class TestEmbedModality:
    def test_text_shape(self):
        model = _model()
        raw = embed_modality(model, text_input([1, 2, 3, 4, 5]))
        assert raw.shape == (5, 16)

    def test_zero_audio_projection_gives_zero_rows(self, rng):
        model = _model()
        model.audio_proj.w.data[...] = 0.0
        model.audio_proj.b.data[...] = 0.0
        raw = embed_modality(model, audio_input(rng.standard_normal((6, 5))))
        assert np.allclose(raw.data, 0.0)

    def test_audio_rows_stack_the_feature_rows_of_one_token(self, rng):
        # one row per DOWNSAMPLE feature rows, concatenated in time order
        model = _model()
        feats = rng.standard_normal((8, 5))
        raw = embed_modality(model, audio_input(feats))
        assert model.audio_proj.w.shape == (DOWNSAMPLE * 5, 16)
        assert raw.shape == (2, 16)
        stacked = feats.reshape(2, DOWNSAMPLE * 5)
        assert np.allclose(raw.data, stacked @ model.audio_proj.w.data + model.audio_proj.b.data)

    def test_shared_token_id_gives_identical_rows(self):
        model = _model()
        a = embed_modality(model, text_input([3, 7, 9]))
        b = embed_modality(model, text_input([1, 7, 2]))
        assert np.array_equal(a.data[1], b.data[1])

    def test_unknown_modality_rejected(self):
        with pytest.raises(DataError, match="unknown modality"):
            ModalityInput("video", np.zeros(3))


class TestAssembleSequence:
    def test_empty_payload_single_row(self):
        model = _model()
        out = assemble_sequence(model, nm.Tensor(np.zeros((0, 16))), "text")
        assert out.shape == (1, 16)
        assert np.allclose(out.data[0], model.text_agg.data + model.pos[0])

    def test_zero_tokens_and_positions_recover_raw(self, rng):
        model = _model()
        model.text_token.data[...] = 0.0
        model.pos = np.zeros_like(model.pos)  # the shared table itself is read-only
        raw = rng.standard_normal((4, 16))
        out = assemble_sequence(model, nm.Tensor(raw), "text")
        assert np.allclose(out.data[1:], raw)

    def test_modality_swap_shifts_rows_by_constant_offsets(self, rng):
        model = _model()
        raw = nm.Tensor(rng.standard_normal((5, 16)))
        t = assemble_sequence(model, raw, "text").data
        a = assemble_sequence(model, raw, "audio").data
        assert np.allclose(t[0] - a[0], model.text_agg.data - model.audio_agg.data)
        payload_delta = t[1:] - a[1:]
        expected = model.text_token.data - model.audio_token.data
        assert np.allclose(payload_delta, np.tile(expected, (5, 1)))

    def test_too_long_payload_rejected(self, rng):
        model = _model()
        with pytest.raises(DataError, match="positional table"):
            assemble_sequence(model, nm.Tensor(rng.standard_normal((40, 16))), "text")


class TestEncode:
    def test_output_shapes(self, rng):
        model = _model()
        out = encode(model, [text_input([1, 2, 3])])
        assert out.glob.shape == (1, 16)
        assert out.seq.shape == (1, 3, 16)
        out_a = encode(model, [audio_input(rng.standard_normal((7, 5)))])
        assert out_a.glob.shape == (1, 16)
        assert out_a.seq.shape == (1, 2, 16)  # ceil(7 / 4) token-rate rows

    def test_deterministic(self):
        model = _model()
        a = encode(model, [text_input([4, 5, 6])])
        b = encode(model, [text_input([4, 5, 6])])
        assert np.array_equal(a.glob.data, b.glob.data)
        assert np.array_equal(a.seq.data, b.seq.data)

    def test_permuting_tokens_changes_output(self):
        model = _model()
        a = encode(model, [text_input([1, 2, 3, 4])])
        b = encode(model, [text_input([2, 1, 3, 4])])
        assert not np.allclose(a.glob.data, b.glob.data)

    def test_modality_agnostic_shape_contract(self, rng):
        model = _model()
        t = encode(model, [text_input([1, 2, 3, 4, 5])])
        a = encode(model, [audio_input(rng.standard_normal((5 * DOWNSAMPLE, 5)))])
        assert t.glob.shape == a.glob.shape
        assert t.seq.shape == a.seq.shape
        assert t.length == a.length == 6

    def test_bidirectional_attention_witness(self, rng):
        # zeroing payload element i changes outputs at other positions
        model = _model()
        feats = rng.standard_normal((6 * DOWNSAMPLE, 5))
        base = encode(model, [audio_input(feats)]).seq.data[0]
        bumped_feats = feats.copy()
        bumped_feats[2 * DOWNSAMPLE:3 * DOWNSAMPLE] = 0.0  # every feature row of element 2
        bumped = encode(model, [audio_input(bumped_feats)]).seq.data[0]
        others = [i for i in range(6) if i != 2]
        assert not np.allclose(base[others], bumped[others])

    def test_over_limit_rejected(self, rng):
        model = _model()
        with pytest.raises(DataError, match="24-element limit"):
            encode(model, [audio_input(rng.standard_normal((25, 5)))])

    def test_no_inputs_is_a_data_error(self):
        model = _model()
        with pytest.raises(DataError, match="^no conditions to encode$"):
            encode(model, [])

    def test_condition_length_matches_payload(self):
        model = _model()
        out = encode(model, [text_input([1, 2, 3, 4, 5, 6, 7])])
        assert isinstance(out, CondEmbedding)
        assert out.seq.shape[1] == 7 and list(out.lengths) == [7]


class TestAudioPadding:
    """A clip whose feature rows are not a multiple of DOWNSAMPLE is
    zero-padded at the end to the next multiple."""

    def test_padding_is_zero_rows(self, rng):
        model = _model()
        feats = rng.standard_normal((6, 5))
        padded = np.concatenate([feats, np.zeros((2, 5))])
        a, b = encode(model, [audio_input(feats)]), encode(model, [audio_input(padded)])
        assert np.array_equal(a.glob.data, b.glob.data)
        assert np.array_equal(a.seq.data, b.seq.data)
        assert list(a.lengths) == list(b.lengths) == [2]

    @pytest.mark.parametrize("rows", range(1, 10))
    def test_lengths_are_the_token_count(self, rng, rows):
        out = encode(_model(), [audio_input(rng.standard_normal((rows, 5)))])
        assert list(out.lengths) == [-(-rows // DOWNSAMPLE)]
        assert out.length == 1 + -(-rows // DOWNSAMPLE)

    def test_the_longest_clip_fits_the_positional_table(self, rng):
        model = _model()  # max_text_len 12, max_audio_len 24: 1 + max(12, 24 / 4) positions
        assert model.pos.shape[0] == 13
        assert encode(model, [audio_input(rng.standard_normal((24, 5)))]).length == 7


def _mixed_inputs(rng):
    """Text of 3, 6 and 11 words and audio clips of 11 and 4 feature rows:
    condition lengths 3, 6, 11, 3 and 1, so only the 11-word text is unpadded."""
    return [text_input(rng.integers(1, 20, size=3)), audio_input(rng.standard_normal((11, 5))),
            text_input(rng.integers(1, 20, size=6)), text_input(rng.integers(1, 20, size=11)),
            audio_input(rng.standard_normal((4, 5)))]


class TestBatchedEncode:
    """One padded forward over B inputs against each input encoded alone."""

    def test_each_row_equals_the_input_alone(self, rng):
        model = _model()
        inputs = _mixed_inputs(rng)
        batch = encode(model, inputs)
        assert list(batch.lengths) == [3, 3, 6, 11, 1]
        assert batch.glob.shape == (5, 16) and batch.seq.shape == (5, 11, 16)
        for b, inp in enumerate(inputs):
            alone = encode(model, [inp])
            n = alone.lengths[0]
            glob, seq = batch.glob.data[b], batch.seq.data[b, :n]
            if n == 11:  # the longest row is not padded: the same bits
                assert np.array_equal(glob, alone.glob.data[0])
                assert np.array_equal(seq, alone.seq.data[0])
            else:  # masked keys only reorder the float sums
                assert np.abs(glob - alone.glob.data[0]).max() < 1e-12
                assert np.abs(seq - alone.seq.data[0]).max() < 1e-12

    def test_rows_of_one_length_are_bit_identical(self, rng):
        # text of 6 words and clips of 24 and 21 feature rows: 6 rows each, no padding
        model = _model()
        inputs = [text_input(rng.integers(1, 20, size=6)),
                  audio_input(rng.standard_normal((24, 5))),
                  audio_input(rng.standard_normal((21, 5)))]
        batch = encode(model, inputs)
        assert list(batch.lengths) == [6, 6, 6]
        for b, inp in enumerate(inputs):
            alone = encode(model, [inp])
            assert np.array_equal(batch.glob.data[b], alone.glob.data[0])
            assert np.array_equal(batch.seq.data[b], alone.seq.data[0])

    def test_padded_seq_rows_are_zero(self, rng):
        batch = encode(_model(), _mixed_inputs(rng))
        for row, n in zip(batch.seq.data, batch.lengths):
            assert (row[n:] == 0.0).all()
            assert (row[:n] != 0.0).any(axis=-1).all()

    def test_gradients_equal_the_sum_over_inputs_alone(self, rng):
        model = _model()
        inputs = _mixed_inputs(rng)
        w_glob = rng.standard_normal((len(inputs), 16))
        w_seq = rng.standard_normal((len(inputs), 11, 16))
        params = model.named_parameters()

        def gradients(losses):
            nm.Adam(params, lr=1e-4).zero_grad()
            for loss in losses:
                loss.backward()
            return [p.grad for _, p in params]

        batch = encode(model, inputs)
        got = gradients([(batch.glob * w_glob).sum() + (batch.seq * w_seq).sum()])
        alone = []
        for b, inp in enumerate(inputs):
            cond = encode(model, [inp])
            n = cond.lengths[0]
            alone.append((cond.glob * w_glob[b]).sum() + (cond.seq * w_seq[b, :n]).sum())
        want = gradients(alone)
        for (name, _), a, b in zip(params, got, want):
            assert a is not None and b is not None, name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("samples, batch_size, calls", [(12, 4, 3), (10, 4, 3)])
    def test_training_encodes_once_per_minibatch(self, rng, monkeypatch, samples,
                                                 batch_size, calls):
        sizes = []

        def counted(mate, inputs):
            sizes.append(len(inputs))
            return encode(mate, inputs)

        monkeypatch.setattr(utt_mod, "encode", counted)
        _train(rng, samples, batch_size)
        assert len(sizes) == calls and sum(sizes) == samples

    def test_training_matches_the_per_input_path(self, monkeypatch):
        # stated tolerance 1e-10 on every parameter and loss: a default-size
        # utt stage of 18 epochs moved parameters by at most 1.7e-11 (data
        # seeds 1-3) and its per-epoch ce by at most 9.3e-14
        batched = _train(np.random.default_rng(3), 12, 4, epochs=3)
        monkeypatch.setattr(utt_mod, "encode", _encode_one_at_a_time)
        alone = _train(np.random.default_rng(3), 12, 4, epochs=3)
        assert len(batched[2]) == len(alone[2]) == 3
        for got, want in zip(batched[2], alone[2]):
            assert abs(got["ce"] - want["ce"]) < 1e-10
        for model, ref in zip(batched[:2], alone[:2]):
            for (name, a), (_, b) in zip(model.named_parameters(), ref.named_parameters()):
                np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-10, err_msg=name)


def _train(rng, samples, batch_size, epochs=1):
    """(mate, utt, history) after training on a mixed set of `samples` pairs."""
    cfg = _cfg(batch_size=batch_size)
    utt = UTTModel(cfg, np.random.default_rng(1))
    mq = MQModel(cfg, np.random.default_rng(2))
    data = [(text_input(rng.integers(1, 20, size=3 + i % 4)) if i % 2 == 0
             else audio_input(rng.standard_normal((5 + i, 5))),
             rng.standard_normal((16, cfg.frame_dim))) for i in range(samples)]
    history = train_utt(utt, mq, data, epochs=epochs, seed=0)
    return utt.mate, utt, history


def _encode_one_at_a_time(model, inputs):
    """The per-input reference: each input encoded alone, then its `seq`
    zero-padded to the longest and the rows stacked."""
    conds = [encode(model, [inp]) for inp in inputs]
    longest = max(c.seq.shape[1] for c in conds)
    seqs = [nm.concat([c.seq, np.zeros((1, longest - c.seq.shape[1], c.seq.shape[2]))], axis=1)
            for c in conds]
    return CondEmbedding(nm.concat([c.glob for c in conds], axis=0), nm.concat(seqs, axis=0),
                         np.concatenate([c.lengths for c in conds]))
