import math

import numpy as np
import pytest

from ude import numerics as nm
from ude.config import RunConfig
from ude.dmd import (DMDModel, NoiseSchedule, dmd_loss, dmd_loss_at, encode_condition,
                     make_schedule, predict_noise, q_sample, sample_reverse, train_dmd)
from ude.errors import ConfigError, DataError
from ude.mq import MQModel

C = RunConfig().frame_dim
K = 4


def _model(steps=10, seed=0, **kw):
    cfg = RunConfig(code_count=K, diffusion_steps=steps, embed_dim=16, dmd_cond_layers=1,
                    dmd_layers=1, dmd_heads=2, **kw)
    return DMDModel(cfg, np.random.default_rng(seed))


def _table(*betas):
    """A NoiseSchedule whose steps 1..n have the given betas."""
    betas = np.concatenate([[0.0], betas])
    alphas = 1.0 - betas
    return NoiseSchedule(len(betas) - 1, betas, alphas, np.cumprod(alphas))


def _zero_model(steps=10):
    model = _model(steps=steps)
    model.out_proj.w.data[...] = 0.0
    model.out_proj.b.data[...] = 0.0
    return model


class TestSchedule:
    def test_brute_force_alpha_bar(self):
        sched = make_schedule(50)
        for t in range(1, 51):
            prod = 1.0
            for i in range(1, t + 1):
                prod *= 1.0 - sched.betas[i]
            assert abs(sched.alpha_bars[t] - prod) < 1e-12

    def test_thousand_steps_decreasing_and_small_tail(self):
        sched = make_schedule(1000)
        assert np.all(np.diff(sched.alpha_bars[1:]) < 0)
        assert sched.alpha_bars[1000] < 0.01

    def test_fifty_step_rescaled_tail(self):
        sched = make_schedule(50)
        assert np.all(np.diff(sched.alpha_bars[1:]) < 0)
        assert sched.alpha_bars[50] < 0.01

    def test_single_step(self):
        sched = _table(0.3)
        assert abs(sched.alpha_bars[1] - 0.7) < 1e-15

    def test_alpha_bar_zero_is_one(self):
        assert make_schedule(5).alpha_bars[0] == 1.0

    def test_sigma_in_unit_interval(self):
        sched = make_schedule(50)
        sigmas = np.sqrt(sched.betas[1:])
        assert np.all((sigmas > 0) & (sigmas < 1))

    def test_fewer_than_one_step_rejected(self):
        with pytest.raises(ConfigError):
            make_schedule(0)
        with pytest.raises(ConfigError):
            make_schedule(-1)

    def test_the_model_builds_the_schedule_of_its_step_count(self):
        for steps in (1, 10):
            sched = _model(steps=steps).sched
            assert sched.steps == steps
            for name in ("betas", "alphas", "alpha_bars"):
                assert np.array_equal(getattr(sched, name), getattr(make_schedule(steps), name))

    def test_few_steps_cap_beta_below_one(self):
        sched = make_schedule(2)
        assert sched.betas[1] == 0.05 and sched.betas[2] == 0.999


class TestQSample:
    def test_no_noise_limit(self):
        sched = _table(*[1e-9] * 5)
        x0 = np.array([[1.0, 2.0, 3.0]])
        out = q_sample(sched, x0, 1, np.zeros_like(x0))
        assert np.allclose(out, x0, atol=1e-8)

    def test_quarter_alpha_bar_signal(self):
        sched = _table(0.75)
        assert abs(sched.alpha_bars[1] - 0.25) < 1e-15
        out = q_sample(sched, np.array([[1.0]]), 1, np.array([[0.0]]))
        assert abs(out[0, 0] - 0.5) < 1e-12

    def test_quarter_alpha_bar_noise(self):
        sched = _table(0.75)
        out = q_sample(sched, np.array([[0.0]]), 1, np.array([[1.0]]))
        assert abs(out[0, 0] - math.sqrt(0.75)) < 1e-12

    def test_out_of_range_step(self):
        sched = make_schedule(5)
        with pytest.raises(DataError, match="outside"):
            q_sample(sched, np.zeros((2, 1)), 6, np.zeros((2, 1)))

    def test_one_step_per_sequence(self):
        # an unbatched [T, c] with one step per frame would broadcast to [T, T, c]
        sched = make_schedule(5)
        with pytest.raises(DataError, match="noise of the data's shape"):
            q_sample(sched, np.zeros((4, 1)), np.ones(4, dtype=int), np.zeros((4, 1)))

    def test_matches_composed_single_steps_in_distribution(self):
        # iterating x_t = sqrt(1-beta_t) x_{t-1} + sqrt(beta_t) z must match
        # the closed form in mean/variance
        sched = _table(*np.linspace(0.05, 0.3, 5))
        rng = np.random.default_rng(0)
        n, x0 = 10_000, 1.7
        for t_stop in (1, 3, 5):
            x = np.full(n, x0)
            for t in range(1, t_stop + 1):
                x = math.sqrt(1 - sched.betas[t]) * x + math.sqrt(sched.betas[t]) * rng.standard_normal(n)
            abar = sched.alpha_bars[t_stop]
            expected_mean = math.sqrt(abar) * x0
            expected_var = 1.0 - abar
            se_mean = math.sqrt(expected_var / n)
            assert abs(x.mean() - expected_mean) < 3 * se_mean + 1e-12
            se_var = expected_var * math.sqrt(2.0 / (n - 1))
            assert abs(x.var() - expected_var) < 3 * se_var


class TestEncodeCondition:
    def test_pool_of_one(self):
        model = _model()
        tokens = np.array([[2]])
        cond = encode_condition(model, tokens).data
        from ude import numerics as nm
        from ude.numerics import Tensor
        h = model.token_table(tokens) + Tensor(model.token_pos[:1])
        full = model.cond_encoder(h).data
        assert np.array_equal(cond, full[:, 0])

    def test_constant_rows_pool_to_that_row(self, rng):
        model = _model()
        import ude.numerics as nm
        rows = np.tile(rng.standard_normal(16), (5, 1))
        pooled = nm.reduce_max(nm.Tensor(rows), axis=0).data
        assert np.array_equal(pooled, rows[0])

    def test_permutation_changes_output(self):
        model = _model()
        a = encode_condition(model, np.array([[0, 1, 2, 3]])).data
        b = encode_condition(model, np.array([[1, 0, 2, 3]])).data
        assert not np.allclose(a, b)

    def test_empty_tokens_rejected(self):
        with pytest.raises(DataError, match="empty token sequence"):
            encode_condition(_model(), np.array([], dtype=np.int64))

    def test_out_of_range_token_rejected(self):
        with pytest.raises(DataError, match="token index outside"):
            encode_condition(_model(), np.array([0, K]))


class TestPredictNoise:
    def test_shape_and_determinism(self, rng):
        model = _model()
        cond = encode_condition(model, np.array([[0, 1]]))
        x_t = rng.standard_normal((1, 8, C))
        a = predict_noise(model, cond, [3], x_t)
        b = predict_noise(model, cond, [3], x_t)
        assert a.shape == x_t.shape
        assert np.array_equal(a.data, b.data)

    def test_sensitive_to_timestep(self, rng):
        model = _model()
        cond = encode_condition(model, np.array([[0, 1]]))
        x_t = rng.standard_normal((1, 8, C))
        a = predict_noise(model, cond, [2], x_t).data
        b = predict_noise(model, cond, [7], x_t).data
        assert not np.allclose(a, b)

    def test_step_out_of_range(self, rng):
        model = _model(steps=5)
        cond = encode_condition(model, np.array([[0], [1]]))
        with pytest.raises(DataError, match="outside"):
            predict_noise(model, cond, [1, 6], rng.standard_normal((2, 4, C)))


class TestDmdLoss:
    def test_zero_model_loss_near_one(self):
        # with eps_hat = 0 the loss is E[eps^2] = 1 per coordinate
        model = _zero_model()
        x0 = np.zeros((1, 6, C))
        tokens = np.array([[0, 1]])
        vals = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            vals.append(dmd_loss(model, x0, tokens, rng).item())
        assert abs(np.mean(vals) - 1.0) < 0.05

    def test_perfect_oracle_zero_loss(self, monkeypatch, rng):
        import ude.dmd as dmd_mod
        from ude.numerics import Tensor

        model = _model()
        x0 = rng.standard_normal((1, 4, C))
        eps = rng.standard_normal((1, 4, C))
        monkeypatch.setattr(dmd_mod, "predict_noise",
                            lambda m, c, t, x: Tensor(eps))
        loss = dmd_mod.dmd_loss_at(model, x0, np.array([[1]]), [3], eps)
        assert loss.item() == 0.0

    def test_loss_nonnegative(self, rng):
        model = _model()
        loss = dmd_loss(model, rng.standard_normal((1, 4, C)), np.array([[0]]),
                        np.random.default_rng(1))
        assert loss.item() >= 0.0

    def test_batch_equals_mean_of_its_rows(self, rng):
        model = _model()
        x0 = rng.standard_normal((4, 8, C))
        tokens = rng.integers(0, K, size=(4, 3))
        t = np.array([1, 4, 7, 10])
        eps = rng.standard_normal((4, 8, C))
        batched = dmd_loss_at(model, x0, tokens, t, eps)
        rows = [dmd_loss_at(model, x0[b:b + 1], tokens[b:b + 1], t[b:b + 1], eps[b:b + 1])
                for b in range(4)]
        mean = sum(rows[1:], rows[0]) * 0.25
        assert abs(batched.item() - mean.item()) < 1e-12
        for a, b in zip(_gradients(model, batched), _gradients(model, mean)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def _gradients(model, loss):
    nm.Adam(model.named_parameters(), lr=1e-4).zero_grad()
    loss.backward()
    return [p.grad.copy() for _, p in model.named_parameters()]


class TestSampleReverse:
    def test_single_step_zero_model(self):
        model = _zero_model(steps=1)
        model.sched = _table(0.36)
        cond = encode_condition(model, np.array([[0]]))
        out = sample_reverse(model, cond, 4, [5])
        rng = np.random.default_rng(np.random.SeedSequence([5, 9]))
        x1 = rng.standard_normal((4, C))
        assert np.allclose(out[0], x1 / math.sqrt(1 - 0.36), atol=1e-12)

    def test_deterministic_per_seed(self):
        model = _model()
        cond = encode_condition(model, np.array([[0, 1]]))
        a = sample_reverse(model, cond, 8, [3])
        b = sample_reverse(model, cond, 8, [3])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        model = _model()
        cond = encode_condition(model, np.array([[0, 1]]))
        a = sample_reverse(model, cond, 8, [3])
        b = sample_reverse(model, cond, 8, [4])
        assert np.linalg.norm(a - b) > 0

    def test_perfect_oracle_recovers_x0_with_zero_tail_noise(self, monkeypatch):
        # the oracle returns the noise that the closed form attributes to x_t;
        # the last step adds no noise, so from any x_1 it lands exactly on x0
        import ude.dmd as dmd_mod
        from ude.numerics import Tensor

        model = _model(steps=8)
        sched = model.sched = _table(*np.linspace(0.02, 0.3, 8))
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((5, C))

        def oracle(m, c, t, x_t):
            abar = sched.alpha_bars[t[0]]
            return Tensor((x_t - math.sqrt(abar) * x0) / math.sqrt(1.0 - abar))

        monkeypatch.setattr(dmd_mod, "predict_noise", oracle)
        cond = encode_condition(model, np.array([[0]]))
        out = sample_reverse(model, cond, 5, [11])
        assert np.abs(out[0] - x0).max() < 1e-9


class TestTrainDmd:
    def _mq(self):
        return MQModel(RunConfig(code_count=K, code_dim=4, mq_hidden=8),
                       np.random.default_rng(9))

    def test_zero_epochs_unchanged(self, rng):
        model = _model()
        before = [p.data.copy() for _, p in model.named_parameters()]
        history = train_dmd(model, self._mq(), [rng.standard_normal((8, C))], epochs=0, seed=0)
        assert history == []
        for (_, p), old in zip(model.named_parameters(), before):
            assert np.array_equal(p.data, old)

    def test_loss_decreases(self, rng):
        model = _model(lr=2e-3)
        motions = [np.tile(rng.standard_normal(C), (8, 1)) for _ in range(8)]
        history = train_dmd(model, self._mq(), motions, epochs=10, seed=0)
        first = np.mean([h["loss"] for h in history[:3]])
        last = np.mean([h["loss"] for h in history[-3:]])
        assert last < first

    def test_condition_api_is_token_only(self):
        # the decoder consumes token sequences; there is no text/audio path
        import inspect
        sig = inspect.signature(encode_condition)
        assert list(sig.parameters) == ["model", "tokens"]
