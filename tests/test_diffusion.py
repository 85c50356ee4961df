import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldepth.diffusion import (forward_noise, make_linear_schedule, respace, reverse_step,
                                    sample)
from fractaldepth.errors import ConfigError, InputError, ShapeError, TimestepError
from fractaldepth.rng import RngStream


class TestSchedule:
    def test_single_step(self):
        s = make_linear_schedule(1, 0.01, 0.01)
        assert s.alpha_bar[0] == pytest.approx(1 - 0.01)

    def test_monotone_and_product_identity(self):
        s = make_linear_schedule(100, 1e-4, 0.02)
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert s.alpha_bar[-1] < s.alpha_bar[0]
        prod = np.cumprod(s.alpha)
        assert np.allclose(s.alpha_bar, prod)
        for t in range(2, 101):
            assert s.alpha_bar[t - 1] == pytest.approx(s.alpha[t - 1] * s.alpha_bar[t - 2])

    def test_sigma_final_step_zero(self):
        s = make_linear_schedule(50, 1e-4, 0.02)
        assert s.sigma[0] == 0.0
        assert np.all(s.sigma[1:] > 0)

    def test_sigma_is_posterior_std(self):
        # beta-tilde_t = (1 - abar_{t-1}) / (1 - abar_t) * beta_t
        s = make_linear_schedule(50, 1e-4, 0.02)
        for t in range(2, 51):
            expect = (1 - s.abar(t - 1)) / (1 - s.abar(t)) * s.beta[t - 1]
            assert s.sigma[t - 1] ** 2 == pytest.approx(expect, rel=1e-12)

    def test_bad_betas(self):
        with pytest.raises(ConfigError):
            make_linear_schedule(10, 0.02, 1e-4)
        with pytest.raises(ConfigError):
            make_linear_schedule(10, 0.0, 0.02)
        with pytest.raises(ConfigError):
            make_linear_schedule(0, 1e-4, 0.02)

    @pytest.mark.parametrize("beta_start", [1e-17, 5e-324])
    def test_noiseless_first_step_rejected(self, beta_start):
        # 1 - beta rounds to 1, so step 1's posterior variance would be
        # 0 / 0: a nan sigma, with a RuntimeWarning, that every respaced
        # schedule would inherit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="beta_start"):
                make_linear_schedule(60, beta_start, 0.12)

    def test_nonfinite_sigma_rejected(self, monkeypatch):
        import fractaldepth.diffusion as diffusion_mod
        monkeypatch.setattr(diffusion_mod, "_posterior_sigma",
                            lambda beta, alpha_bar: np.full_like(beta, np.nan))
        with pytest.raises(ConfigError, match="non-finite sigma"):
            make_linear_schedule(60, 1e-4, 0.02)


class TestRespace:
    @pytest.mark.parametrize("T", [1, 2, 60, 1000])
    def test_full_respace_is_bit_equal(self, T):
        s = make_linear_schedule(T, 1e-4, 0.02)
        r = respace(s, T)
        for name in ("t", "beta", "alpha", "alpha_bar", "sigma"):
            a, b = getattr(s, name), getattr(r, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("steps", [0, 61])
    def test_bad_step_counts(self, steps):
        with pytest.raises(ConfigError):
            respace(make_linear_schedule(60, 1e-4, 0.02), steps)

    def test_kept_pairs(self):
        s = make_linear_schedule(60, 1e-4, 0.02)
        r = respace(s, 15)
        assert r.t.tolist() == np.round(np.linspace(60, 1, 15)).astype(int)[::-1].tolist()
        assert r.alpha_bar.tolist() == [s.abar(t) for t in r.t]
        prev = np.concatenate([[1.0], r.alpha_bar[:-1]])
        assert np.allclose(r.alpha, r.alpha_bar / prev, rtol=1e-15)
        assert np.allclose(r.sigma ** 2, (1 - prev) / (1 - r.alpha_bar) * (1 - r.alpha),
                           rtol=1e-12)
        assert r.sigma[0] == 0.0 and np.all(r.sigma[1:] > 0)

    @given(st.integers(2, 200), st.data(), st.sampled_from([0.0, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_exact_noise_collapse(self, T, data, tau):
        # with the oracle noise the step into t' = 0 lands on z* from any state
        S = data.draw(st.integers(1, T))
        sched = make_linear_schedule(T, 1e-4, 0.02)
        z_star = np.random.default_rng(T).normal(size=(4, 4))
        seen = []

        def oracle(z_t, t):
            seen.append(t)
            ab = sched.abar(t)
            return (z_t - np.sqrt(ab) * z_star) / np.sqrt(1 - ab)

        out = sample(oracle, (4, 4), respace(sched, S), tau, [RngStream(S, ("r", T))])
        assert np.max(np.abs(out - z_star)) <= 1e-9
        # S distinct timesteps from T down, ending at 1 unless the one step is T -> 0
        assert seen == sorted(set(seen), reverse=True) and len(seen) == S
        assert seen[0] == T and seen[-1] == (1 if S > 1 else T)


class TestForwardNoise:
    sched = make_linear_schedule(100, 1e-4, 0.02)

    def test_zero_latent(self):
        eps = np.random.default_rng(0).normal(size=(4, 4))
        out = forward_noise(np.zeros((4, 4)), 10, eps, self.sched)
        ab = self.sched.abar(10)
        assert np.allclose(out, np.sqrt(1 - ab) * eps)

    def test_formula_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(8, 8))
        eps = rng.normal(size=(8, 8))
        t = 100
        out = forward_noise(z, t, eps, self.sched)
        ab = self.sched.alpha_bar[t - 1]
        expect = np.sqrt(ab) * z + np.sqrt(1 - ab) * eps
        assert np.array_equal(out, expect)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward_noise(np.zeros((2, 2)), 1, np.zeros((3, 3)), self.sched)

    def test_variance_law(self):
        # E||z_t||^2 = abar ||z*||^2 + (1-abar) dim, within 4 standard errors
        rng = np.random.default_rng(2)
        z = rng.normal(size=(16, 16))
        n_draws = 10_000
        for t in (1, 50, 100):
            ab = self.sched.abar(t)
            draws = rng.normal(size=(n_draws,) + z.shape)
            norms = ((np.sqrt(ab) * z + np.sqrt(1 - ab) * draws) ** 2).sum(axis=(1, 2))
            expect = ab * (z ** 2).sum() + (1 - ab) * z.size
            a = np.sqrt(ab) * z
            b2 = 1 - ab
            var = (2 * b2 ** 2 + 4 * a ** 2 * b2).sum()
            se = np.sqrt(var / n_draws)
            assert abs(norms.mean() - expect) <= 4 * se


class TestReverseStep:
    sched = make_linear_schedule(100, 1e-4, 0.02)

    def test_exact_noise_at_t1(self):
        rng = np.random.default_rng(4)
        z_star = rng.normal(size=(4, 4))
        eps = rng.normal(size=(4, 4))
        z1 = forward_noise(z_star, 1, eps, self.sched)
        out = reverse_step(z1, 1, eps, self.sched, tau=0.0)
        assert np.max(np.abs(out - z_star)) <= 1e-12

    def test_zero_pred_rescale(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 3))
        t = 42
        out = reverse_step(z, t, np.zeros_like(z), self.sched, tau=0.0)
        assert np.allclose(out, z / np.sqrt(self.sched.alpha[t - 1]))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        z, e = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        a = reverse_step(z, 7, e, self.sched, tau=0.0)
        b = reverse_step(z, 7, e, self.sched, tau=0.0)
        assert np.array_equal(a, b)

    def test_bad_timestep(self):
        with pytest.raises(TimestepError):
            reverse_step(np.zeros((2, 2)), 0, np.zeros((2, 2)), self.sched)
        with pytest.raises(TimestepError):
            reverse_step(np.zeros((2, 2)), 101, np.zeros((2, 2)), self.sched)


class TestSample:
    def test_exact_noise_collapse(self):
        for T in (10, 100, 1000):
            sched = make_linear_schedule(T, 1e-4, 0.02)
            z_star = np.random.default_rng(7).normal(size=(4, 4))

            def oracle(z_t, t):
                ab = sched.abar(t)
                return (z_t - np.sqrt(ab) * z_star) / np.sqrt(1 - ab)

            out = sample(oracle, (4, 4), sched, 0.0, [RngStream(0, ("c", T))])
            assert np.max(np.abs(out - z_star)) <= 1e-9

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_stacked_streams_equal_single_runs(self, tau):
        # a row-wise predictor: chain k of the stack sees only its own rows
        sched = make_linear_schedule(20, 1e-4, 0.02)
        pred = lambda z, t: np.tanh(z) * (0.01 * t) + 0.5
        streams = [RngStream(4, ("n",)).child("sample", k) for k in range(3)]
        stacked = sample(pred, (5, 2), sched, tau, streams)
        alone = [sample(pred, (5, 2), sched, tau, [r]) for r in streams]
        assert stacked.shape == (15, 2)
        assert np.array_equal(stacked, np.concatenate(alone))

    def test_exact_noise_collapse_stacked(self):
        sched = make_linear_schedule(100, 1e-4, 0.02)
        z_star = np.random.default_rng(8).normal(size=(4, 4))
        target = np.tile(z_star, (3, 1))

        def oracle(z_t, t):
            ab = sched.abar(t)
            return (z_t - np.sqrt(ab) * target) / np.sqrt(1 - ab)

        out = sample(oracle, (4, 4), sched, 1.0, [RngStream(k, ("c",)) for k in range(3)])
        assert np.max(np.abs(out - target)) <= 1e-9

    def test_bad_predictor_and_no_streams(self):
        sched = make_linear_schedule(10, 1e-4, 0.02)
        with pytest.raises(ShapeError):
            sample(lambda z, t: z[:1], (2, 2), sched, 0.0, [RngStream(0)])
        with pytest.raises(InputError):
            sample(lambda z, t: z, (2, 2), sched, 0.0, [])

    def test_stochastic_determinism(self):
        sched = make_linear_schedule(20, 1e-4, 0.02)
        pred = lambda z, t: 0.1 * z
        a = sample(pred, (4, 4), sched, 1.0, [RngStream(9, ("s",))])
        b = sample(pred, (4, 4), sched, 1.0, [RngStream(9, ("s",))])
        assert np.array_equal(a, b)

    def test_temperature_changes_only_stochastic_runs(self):
        sched = make_linear_schedule(20, 1e-4, 0.02)
        pred = lambda z, t: 0.1 * z
        a = sample(pred, (4, 4), sched, 0.0, [RngStream(9, ("s",))])
        b = sample(pred, (4, 4), sched, 0.5, [RngStream(9, ("s",))])
        c = sample(pred, (4, 4), sched, 0.0, [RngStream(10, ("s2",))])
        assert not np.array_equal(a, b)
        # tau=0 chains are a pure function of the initial draw and predictor
        a2 = sample(pred, (4, 4), sched, 0.0, [RngStream(9, ("s",))])
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, c)
