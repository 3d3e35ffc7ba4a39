import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ude import numerics as nm
from ude.config import RunConfig
from ude.errors import DataError
from ude.mq import MQModel, quantize, train_mq, vq_loss

C = RunConfig().frame_dim


def _model(code_count=8, code_dim=4, seed=0, **kw):
    cfg = RunConfig(code_count=code_count, code_dim=code_dim, mq_hidden=8, **kw)
    return MQModel(cfg, np.random.default_rng(seed))


def _zero_params(model):
    for _, p in model.named_parameters():
        p.data[...] = 0.0


class TestEncode:
    def test_shape_contract(self, rng):
        model = _model()
        e = model.encode(rng.standard_normal((2, 64, C)))
        assert e.shape == (2, 16, 4)

    def test_indivisible_length_rejected(self, rng):
        model = _model()
        with pytest.raises(DataError, match="divisible"):
            model.encode(rng.standard_normal((1, 30, C)))

    def test_zero_input_zero_biases_zero_embedding(self):
        model = _model()
        _zero_params(model)
        e = model.encode(np.zeros((1, 16, C)))
        assert np.allclose(e.data, 0.0)

    def test_shift_equivariance_on_interior_rows(self, rng):
        model = _model()
        x = rng.standard_normal((1, 40, C))
        shifted = np.roll(x, -4, axis=1)
        e1 = model.encode(x).data[0]
        e2 = model.encode(shifted).data[0]
        # interior token rows shift by one (edges feel the padding)
        assert np.allclose(e1[3:8], e2[2:7], atol=1e-10)


class TestQuantize:
    def test_obvious_nearest(self):
        cb = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert quantize(cb, np.array([[0.9, 0.8]]))[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        cb = np.array([[0.0, 0.0], [1.0, 1.0]])
        e = np.array([[0.5, 0.5]])
        d0 = ((e[0] - cb[0]) ** 2).sum()
        d1 = ((e[0] - cb[1]) ** 2).sum()
        assert d0 == d1
        assert quantize(cb, e)[0] == 0

    def test_codes_map_to_themselves(self, rng):
        cb = rng.standard_normal((8, 4))
        assert np.array_equal(quantize(cb, cb.copy()), np.arange(8))

    @given(st.integers(0, 10_000))
    def test_matches_exhaustive_oracle(self, seed):
        r = np.random.default_rng(seed)
        cb = r.standard_normal((6, 3))
        e = r.standard_normal((5, 3))
        fast = quantize(cb, e)
        for i in range(5):
            dists = [float(((e[i] - cb[k]) ** 2).sum()) for k in range(6)]
            best = min(range(6), key=lambda k: (dists[k], k))
            assert fast[i] == best

    def test_output_always_in_range(self, rng):
        cb = rng.standard_normal((8, 4))
        tokens = quantize(cb, rng.standard_normal((100, 4)) * 10)
        assert tokens.min() >= 0 and tokens.max() < 8


class TestDecode:
    def test_deterministic(self, rng):
        model = _model()
        tokens = rng.integers(0, 8, size=5)
        a = model.decode_tokens(tokens)
        b = model.decode_tokens(tokens)
        assert np.array_equal(a, b)

    def test_length_contract(self, rng):
        model = _model()
        out = model.decode_tokens(rng.integers(0, 8, size=(2, 16)))
        assert out.shape == (2, 64, C)

    def test_out_of_range_token_rejected(self):
        model = _model()
        with pytest.raises(DataError, match="token index outside"):
            model.decode_tokens(np.array([0, 3, 8]))


class TestVqLoss:
    def test_zero_terms_when_embeddings_equal_codes(self, rng):
        model = _model()
        x = rng.standard_normal((1, 16, C))
        with nm.no_grad():
            e = model.encode(x).data[0]
        # shrink the codebook to exactly the embeddings produced
        model.codebook.table.data[:e.shape[0]] = e
        _, parts = vq_loss(model, x)
        assert parts["codebook"].item() < 1e-20
        assert parts["commit"].item() < 1e-20

    def test_zero_weights_reduce_to_mse(self, rng):
        model = _model(beta_codebook=0.0, beta_commit=0.0)
        x = rng.standard_normal((1, 16, C))
        total, parts = vq_loss(model, x)
        assert abs(total.item() - parts["recon"].item()) < 1e-15

    def test_total_is_weighted_sum(self, rng):
        model = _model(beta_codebook=0.7, beta_commit=1.3)
        x = rng.standard_normal((1, 16, C))
        total, parts = vq_loss(model, x)
        expected = (parts["recon"].item() + 0.7 * parts["codebook"].item()
                    + 1.3 * parts["commit"].item())
        assert abs(total.item() - expected) < 1e-12
        for key in ("recon", "codebook", "commit"):
            assert parts[key].item() >= 0.0

    def test_straight_through_reaches_encoder(self, rng):
        model = _model()
        x = rng.standard_normal((1, 16, C))
        total, parts = vq_loss(model, x)
        opt = nm.Adam(model.named_parameters(), lr=0.0)
        opt.zero_grad()
        parts["recon"].backward()
        enc_grads = [np.abs(p.grad).max() for name, p in model.named_parameters()
                     if name.startswith("enc")]
        assert max(enc_grads) > 0.0

    def test_codebook_term_pulls_codes_toward_embeddings(self, rng):
        model = _model()
        x = rng.standard_normal((1, 16, C))
        _, parts = vq_loss(model, x)
        opt = nm.Adam([("cb", model.codebook.table)], lr=1e-3)
        opt.zero_grad()
        parts["codebook"].backward()
        opt.step()
        _, parts2 = vq_loss(model, x)
        assert parts2["codebook"].item() < parts["codebook"].item()

    def test_batch_equals_mean_of_its_rows(self, rng):
        # one batched graph stands in for the mean of per-sequence graphs
        model = _model()
        x = rng.standard_normal((4, 16, C))
        batched, _ = vq_loss(model, x)
        rows = [vq_loss(model, x[b:b + 1])[0] for b in range(4)]
        mean = sum(rows[1:], rows[0]) * 0.25
        assert abs(batched.item() - mean.item()) < 1e-12
        for a, b in zip(_gradients(model, batched), _gradients(model, mean)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def _gradients(model, loss):
    nm.Adam(model.named_parameters(), lr=1e-4).zero_grad()
    loss.backward()
    return [p.grad.copy() for _, p in model.named_parameters()]


class TestTrainMq:
    def test_zero_epochs_leaves_model_unchanged(self, rng):
        model = _model()
        before = [p.data.copy() for _, p in model.named_parameters()]
        history = train_mq(model, [rng.standard_normal((16, C))], epochs=0, seed=0)
        assert history == []
        for (name, p), old in zip(model.named_parameters(), before):
            assert np.array_equal(p.data, old)

    def test_loss_decreases_on_toy_data(self, rng):
        model = _model(lr=2e-3)
        motions = [np.tile(rng.standard_normal(C), (16, 1))
                   + 0.1 * rng.standard_normal((16, C)) for _ in range(24)]
        history = train_mq(model, motions, epochs=12, seed=0)
        first = np.mean([h["total"] for h in history[:3]])
        last = np.mean([h["total"] for h in history[-3:]])
        assert last < first

    def test_history_length_and_utilization(self, rng):
        model = _model()
        motions = [rng.standard_normal((16, C)) for _ in range(8)]
        history = train_mq(model, motions, epochs=3, seed=0)
        assert len(history) == 3
        # some code is used in every epoch
        assert all(0 <= row["dead_codes"] < model.cfg.code_count for row in history)
