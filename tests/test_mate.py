import numpy as np
import pytest

from ude import numerics as nm
from ude.errors import ContractError, LengthError
from ude.mate import (CondEmbedding, MATEConfig, MATEModel, ModalityInput,
                      assemble_sequence, audio_input, embed_modality, encode,
                      text_input)


def _model(seed=0, **kw):
    cfg = MATEConfig(vocab_size=20, audio_dim=5, dim=16, layers=2, heads=2,
                     max_text_len=12, max_audio_len=24, **kw)
    return MATEModel(cfg, np.random.default_rng(seed))


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

    def test_shared_token_id_gives_identical_rows(self):
        model = _model()
        a = embed_modality(model, text_input([3, 7, 9]))
        b = embed_modality(model, text_input([1, 7, 2]))
        assert np.array_equal(a.data[1], b.data[1])

    def test_unknown_modality_rejected(self):
        with pytest.raises(ContractError):
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
        model.pos[...] = 0.0
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
        with pytest.raises(LengthError):
            assemble_sequence(model, nm.Tensor(rng.standard_normal((40, 16))), "text")


class TestEncode:
    def test_output_shapes(self, rng):
        model = _model()
        out = encode(model, text_input([1, 2, 3]))
        assert out.glob.shape == (1, 16)
        assert out.seq.shape == (1, 3, 16)
        out_a = encode(model, audio_input(rng.standard_normal((7, 5))))
        assert out_a.glob.shape == (1, 16)
        assert out_a.seq.shape == (1, 7, 16)

    def test_deterministic(self):
        model = _model()
        a = encode(model, text_input([4, 5, 6]))
        b = encode(model, text_input([4, 5, 6]))
        assert np.array_equal(a.glob.data, b.glob.data)
        assert np.array_equal(a.seq.data, b.seq.data)

    def test_permuting_tokens_changes_output(self):
        model = _model()
        a = encode(model, text_input([1, 2, 3, 4]))
        b = encode(model, text_input([2, 1, 3, 4]))
        assert not np.allclose(a.glob.data, b.glob.data)

    def test_modality_agnostic_shape_contract(self, rng):
        model = _model()
        t = encode(model, text_input([1, 2, 3, 4, 5]))
        a = encode(model, audio_input(rng.standard_normal((5, 5))))
        assert t.glob.shape == a.glob.shape
        assert t.seq.shape == a.seq.shape
        assert t.length == a.length == 6

    def test_bidirectional_attention_witness(self, rng):
        # zeroing payload element i changes outputs at other positions
        model = _model()
        feats = rng.standard_normal((6, 5))
        base = encode(model, audio_input(feats)).seq.data[0]
        bumped_feats = feats.copy()
        bumped_feats[2] = 0.0
        bumped = encode(model, audio_input(bumped_feats)).seq.data[0]
        others = [i for i in range(6) if i != 2]
        assert not np.allclose(base[others], bumped[others])

    def test_over_limit_rejected(self, rng):
        model = _model()
        with pytest.raises(LengthError):
            encode(model, audio_input(rng.standard_normal((25, 5))))

    def test_condition_length_matches_payload(self):
        model = _model()
        out = encode(model, text_input([1, 2, 3, 4, 5, 6, 7]))
        assert isinstance(out, CondEmbedding)
        assert out.seq.shape[1] == 7 and list(out.lengths) == [7]
