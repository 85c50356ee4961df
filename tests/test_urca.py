import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldepth import urca
from fractaldepth.core import DepthMap
from fractaldepth.errors import InputError, ShapeError
from fractaldepth.urca import URCAConfig, align_samples, fuse, uncertainty_stats


def _pixel_consensus(s, r=None, cfg=URCAConfig()):
    """M and U = E(M) of one pixel, from the solver that ``fuse`` runs per pixel."""
    r = None if r is None else np.asarray(r, float)
    m, u, _ = urca._consensus_minimize(np.asarray(s, float), r, cfg)
    return float(m), float(u)


def _rho(x, eps_c):
    """rho(x) as the consensus energy computes it: one sample at z = 0, unit
    scale and weight."""
    one = np.ones(1)
    e = urca._energy(0.0, np.asarray(x, float)[None], one, one, eps_c)[0]
    return float(e) if e.ndim == 0 else e


def _prior_weight(stack):
    """lam = pairs * pixels / 2, from the stack alone."""
    n, n_pix = stack.shape
    return 0.5 * n * (n - 1) / 2 * n_pix


def _reference_objective(stack, alpha, beta, eps_c):
    aligned = alpha[:, None] * stack + beta[:, None]
    n = len(alpha)
    total = _prior_weight(stack) * float(np.sum((alpha - 1.0) ** 2))
    for a in range(n):
        for b in range(a + 1, n):
            r = aligned[a] - aligned[b]
            total += float(np.sum(np.sqrt(r * r + eps_c * eps_c) - eps_c))
    return total


def _reference_align(stack, eps_c, sweeps=100):
    """IRLS block descent under sum(alpha) = N and sum(beta) = 0.

    Each block moves (alpha_i, beta_i) by (+t, +u) and (alpha_j, beta_j) by
    (-t, -u), which keeps both sums, to the minimiser of the weighted-square
    majoriser along those two directions: one 2x2 solve per sample pair.
    """
    n = stack.shape[0]
    lam = _prior_weight(stack)
    ia, ib = np.triu_indices(n, 1)
    alpha = np.ones(n)
    beta = np.zeros(n)
    for _ in range(sweeps):
        for i in range(n):
            for j in range(i + 1, n):
                d = np.zeros(n)
                d[i], d[j] = 1.0, -1.0
                aligned = alpha[:, None] * stack + beta[:, None]
                r = aligned[ia] - aligned[ib]
                w = 0.5 / np.sqrt(r * r + eps_c * eps_c)
                gt = d[ia, None] * stack[ia] - d[ib, None] * stack[ib]   # dr / dt
                gu = (d[ia] - d[ib])[:, None]                            # dr / du
                lhs = np.array([[(w * gt * gt).sum() + 2.0 * lam, (w * gt * gu).sum()],
                                [(w * gt * gu).sum(), (w * gu * gu).sum()]])
                rhs = -np.array([(w * r * gt).sum() + lam * (alpha[i] - alpha[j]),
                                 (w * r * gu).sum()])
                t, u = np.linalg.solve(lhs, rhs)
                alpha[i] += t
                alpha[j] -= t
                beta[i] += u
                beta[j] -= u
    return alpha, beta, _reference_objective(stack, alpha, beta, eps_c)


def _distorted_stack(seed, n, h, w):
    g = np.random.default_rng(seed)
    base = g.uniform(1.0, 5.0, (h, w))
    return [DepthMap(values=g.uniform(0.8, 1.2) * base + g.uniform(-0.3, 0.3)
                     + g.normal(0, 0.02, base.shape)) for _ in range(n)]


def _grid_energy(z, s, r, cfg):
    """Independent scalar energy evaluation for grid-search oracles."""
    cs = cfg.tau_s + cfg.delta_stab
    cr = cfg.tau_r + cfg.delta_stab
    e = sum(np.sqrt(((si - z) / cs) ** 2 + cfg.eps_c ** 2) - cfg.eps_c for si in s)
    if r is not None:
        w = 1.0 / len(r)
        for ri in r:
            e += cfg.gamma * w * (np.sqrt(((ri - z) / cr) ** 2 + cfg.eps_c ** 2) - cfg.eps_c)
    return e


def _grid_slope(z, s, r, cfg):
    """Independent scalar E'(z), written like _grid_energy."""
    def slope(v, c, w):
        u = (v - z) / c
        return -w * u / np.sqrt(u ** 2 + cfg.eps_c ** 2) / c
    d = sum(slope(si, cfg.tau_s + cfg.delta_stab, 1.0) for si in s)
    if r is not None:
        d += sum(slope(ri, cfg.tau_r + cfg.delta_stab, cfg.gamma / len(r)) for ri in r)
    return d


def _grid_argmin(s, r, cfg, lo, hi):
    """Two-stage exhaustive grid search: 1e-3 sweep then 1e-6 refinement."""
    coarse = np.arange(lo, hi + 1e-3, 1e-3)
    vals = np.array([_grid_energy(z, s, r, cfg) for z in coarse])
    z0 = coarse[np.argmin(vals)]
    fine = np.arange(z0 - 2e-3, z0 + 2e-3, 1e-6)
    vals = np.array([_grid_energy(z, s, r, cfg) for z in fine])
    return fine[np.argmin(vals)], vals.min()


class TestURCAConfig:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["gamma", "tau_s", "tau_r", "delta_stab", "eps_c"])
    def test_nonfinite_rejected(self, field, value):
        with pytest.raises(InputError, match="finite"):
            URCAConfig(**{field: value})


class TestCharbonnier:
    def test_zero(self):
        assert _rho(0.0, 1e-3) == 0.0

    def test_known_value(self):
        assert _rho(3.0, 1e-3) == pytest.approx(np.sqrt(9 + 1e-6) - 1e-3, rel=1e-14)

    def test_even(self):
        x = np.linspace(-5, 5, 41)
        assert np.allclose(_rho(x, 0.01), _rho(-x, 0.01))

    def test_l1_asymptote(self):
        # rho(x) -> |x| - eps for |x| >> eps
        assert _rho(1e4, 1e-3) == pytest.approx(1e4 - 1e-3, abs=1e-9)

    def test_bad_eps(self):
        with pytest.raises(InputError):
            URCAConfig(eps_c=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.01, 0.99))
    def test_convex(self, a, b, t):
        eps = 1e-2
        mid = _rho(t * a + (1 - t) * b, eps)
        assert mid <= t * _rho(a, eps) + (1 - t) * _rho(b, eps) + 1e-12


class TestAlignSamples:
    def test_identical_samples_identity(self):
        d = DepthMap(values=np.random.default_rng(0).uniform(1, 5, (6, 6)))
        out = align_samples([d, DepthMap(values=d.values.copy()), DepthMap(values=d.values.copy())])
        assert np.allclose(out.alpha, 1.0) and np.allclose(out.beta, 0.0)
        assert out.converged and out.iterations == 0
        assert out.objective_trace == [pytest.approx(0.0, abs=1e-12)]

    def test_gauge_sum_alpha_median_beta(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(1, 5, (8, 8))
        samples = [DepthMap(values=a * base + b)
                   for a, b in [(1.0, 0.0), (1.2, 0.3), (0.8, -0.2)]]
        out = align_samples(samples)
        assert abs(out.alpha.sum() - 3.0) <= 1e-12
        assert abs(np.median(out.beta)) <= 1e-12

    def test_pixel_replication_invariant(self):
        # the prior weight grows with the pixel count like the pairwise
        # energy, so repeating every pixel 4 x 4 times scales the objective
        # by 16 and leaves the minimiser where it was
        samples = _distorted_stack(16, 5, 16, 16)
        small = align_samples(samples)
        big = align_samples([DepthMap(values=np.kron(s.values, np.ones((4, 4))))
                             for s in samples])
        assert small.converged and big.converged
        assert np.max(np.abs(big.alpha - small.alpha)) <= 1e-12
        assert np.max(np.abs(big.beta - small.beta)) <= 1e-12

    def test_flat_maps_align_exactly(self):
        # flat maps leave the scales free; the prior keeps them at 1 and the
        # shifts bring every map onto the median depth
        samples = [DepthMap(values=np.full((4, 4), d)) for d in (1.0, 2.0, 4.5)]
        out = align_samples(samples)
        assert out.converged
        assert np.max(np.abs(out.alpha - 1.0)) <= 1e-12
        aligned = [a * s.values + b for a, b, s in zip(out.alpha, out.beta, samples)]
        assert np.max(np.abs(np.array(aligned) - 2.0)) <= 1e-12

    def test_objective_monotone_nonincreasing(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(1, 5, (8, 8))
        samples = [DepthMap(values=(1 + 0.1 * i) * base + 0.05 * i + rng.normal(0, 0.02, base.shape))
                   for i in range(4)]
        out = align_samples(samples)
        tr = out.objective_trace
        assert len(tr) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(tr, tr[1:]))

    def test_affine_distortion_recovery(self):
        # known affine distortions of one structure: alignment must bring all
        # samples into a common frame (small mean pairwise L1 residual)
        rng = np.random.default_rng(3)
        base = rng.uniform(0.5, 6.0, (12, 12))
        pairs = [(1.0, 0.0), (1.15, 0.2), (0.9, -0.15), (1.05, 0.1)]
        samples = [DepthMap(values=a * base + b) for a, b in pairs]
        out = align_samples(samples)
        aligned = [out.alpha[i] * samples[i].values + out.beta[i] for i in range(4)]
        resid = []
        for i in range(4):
            for j in range(i + 1, 4):
                resid.append(np.mean(np.abs(aligned[i] - aligned[j])))
        assert np.mean(resid) <= 0.05

    def test_reports_convergence(self):
        samples = _distorted_stack(11, 4, 8, 8)
        out = align_samples(samples)
        assert out.converged
        assert out.iterations == len(out.objective_trace) - 1 >= 1
        tr = out.objective_trace
        assert tr[-2] - tr[-1] <= urca._TOL * abs(tr[-2])

    def test_reports_cap(self):
        out = align_samples(_distorted_stack(11, 4, 8, 8), URCAConfig(max_iter=2))
        assert not out.converged
        assert out.iterations == 2 and len(out.objective_trace) == 3

    def test_gauge_keeps_common_scale(self):
        # the criterion-06 recipe: the gauge sum(alpha) = N rules out the
        # collapse of every scale towards 0, and the prior must not pull the
        # scales so hard towards 1 that the samples keep different scales
        g = np.random.default_rng(606)
        base = g.uniform(1.0, 5.0, (16, 16))
        samples, scales = [], []
        for _ in range(5):
            a = g.uniform(0.8, 1.2)
            b = g.uniform(-0.3, 0.3)
            scales.append(a)
            samples.append(DepthMap(values=a * base + b + g.normal(0, 0.01, base.shape)))
        out = align_samples(samples)
        assert out.converged
        assert np.mean(out.alpha) >= 0.5
        common = out.alpha * np.array(scales)
        assert np.ptp(common) / np.mean(common) < 0.01

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(3, 8), st.integers(3, 8))
    def test_matches_block_descent_oracle(self, seed, n, h, w):
        # the objective is convex and the block descent keeps both gauges,
        # so the joint solve must end at or below the point 100 sweeps
        # reach, on the objective with lam = pairs * pixels / 2
        cfg = URCAConfig()
        samples = _distorted_stack(seed, n, h, w)
        out = align_samples(samples, cfg)
        stack = np.stack([s.values.reshape(-1) for s in samples])
        _, _, ref = _reference_align(stack, cfg.eps_c)
        assert out.converged
        assert abs(out.alpha.sum() - n) <= 1e-12
        assert out.objective_trace[-1] <= ref * (1 + 1e-9)
        assert out.objective_trace[-1] == pytest.approx(
            _reference_objective(stack, out.alpha, out.beta, cfg.eps_c), rel=1e-12)
        tr = out.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(tr, tr[1:]))
        assert abs(np.median(out.beta)) <= 1e-12

    def test_pixel_blocks_match_one_block(self, monkeypatch):
        samples = _distorted_stack(12, 5, 70, 70)   # 4900 pixels: two blocks
        assert samples[0].values.size > urca._BLOCK
        blocked = align_samples(samples)
        monkeypatch.setattr(urca, "_BLOCK", 1 << 20)
        whole = align_samples(samples)
        assert blocked.iterations == whole.iterations
        assert np.max(np.abs(blocked.alpha - whole.alpha)) <= 1e-12
        assert np.max(np.abs(blocked.beta - whole.beta)) <= 1e-12
        # the block sums add in another order: equal to summation rounding
        assert np.allclose(blocked.objective_trace, whole.objective_trace, rtol=1e-11, atol=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        samples = _distorted_stack(13, 3, 4, 4)
        samples[1].values[2, 3] = bad
        with pytest.raises(InputError):
            align_samples(samples)

    def test_too_few_samples(self):
        with pytest.raises(InputError):
            align_samples([])

    def test_one_sample(self):
        d = DepthMap(values=np.random.default_rng(14).uniform(1, 5, (6, 6)))
        out = align_samples([d])
        assert out.alpha.tolist() == [1.0] and out.beta.tolist() == [0.0]
        assert out.objective_trace == [0.0]
        assert out.iterations == 0 and out.converged

    @pytest.mark.parametrize("offset, tol", [(1e5, 1e-9), (1e6, 1e-9), (1e9, 1e-6)])
    def test_offset_invariance(self, offset, tol):
        # a common offset of every sample leaves the optimal scales as they
        # are; products of raw depths that far from 0 m would lose the
        # per-sample differences and move them
        samples = _distorted_stack(11, 5, 8, 8)
        ref = align_samples(samples)
        out = align_samples([DepthMap(values=s.values + offset) for s in samples])
        assert out.converged
        assert np.max(np.abs(out.alpha - ref.alpha)) <= tol

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            align_samples([DepthMap(values=np.ones((2, 2))),
                           DepthMap(values=np.ones((3, 3)))])


class TestConsensusPixel:
    CFG = URCAConfig()

    def test_single_sample_exact(self):
        m, u = _pixel_consensus([2.7], cfg=self.CFG)
        assert m == pytest.approx(2.7, abs=1e-5)
        assert u == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_pair_midpoint(self):
        m, _ = _pixel_consensus([1.0, 3.0], cfg=self.CFG)
        assert m == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_last_bit_stable(self, n):
        # with an even N the energy is flat to ~1e-13 between the two middle
        # samples; the sign of E' still pins the minimiser, so moving every
        # sample by one ulp must not move the consensus
        g = np.random.default_rng(n)
        for _ in range(50):
            s = g.uniform(1.0, 4.0, n)
            m0, _ = _pixel_consensus(s, cfg=self.CFG)
            m1, _ = _pixel_consensus(np.nextafter(s, np.inf), cfg=self.CFG)
            assert abs(m1 - m0) <= 1e-6

    def test_huge_depths_terminate(self, monkeypatch):
        # past ~1e10 m the float spacing exceeds the bisection tolerance and
        # brackets stop shrinking: only the round cap ends the loop
        calls = []
        energy = urca._energy
        monkeypatch.setattr(urca, "_energy", lambda *a: calls.append(1) or energy(*a))
        m, u = _pixel_consensus([1e12, 1e12 + 3.0], [1e12 + 1.0], cfg=self.CFG)
        assert 1e12 <= m <= 1e12 + 3.0 and np.isfinite(u)
        assert len(calls) <= urca._MAX_ROUNDS + 2
        calls.clear()
        out = fuse([DepthMap(values=np.full((3, 3), 1e12) + k) for k in range(4)])
        assert np.all(np.isfinite(out.consensus.values))
        assert len(calls) <= urca._MAX_ROUNDS + 2
        g = np.random.default_rng(7)
        out = fuse([DepthMap(values=1e12 + g.uniform(0.0, 3.0, (3, 3))) for _ in range(4)])
        assert out.bisection_rounds == urca._MAX_ROUNDS

    def test_bisection_rounds_reported(self):
        # brackets narrower than 3 m reach 1e-6 m within log2(3e6) < 22 halvings
        g = np.random.default_rng(8)
        out = fuse([DepthMap(values=g.uniform(1.0, 4.0, (6, 6))) for _ in range(4)])
        assert 10 < out.bisection_rounds <= 22

    def test_slope_only_is_the_energy_slope(self):
        g = np.random.default_rng(4)
        vals = g.uniform(1.0, 4.0, (6, 5, 7))
        scale, weight = g.uniform(0.05, 0.3, 6), g.uniform(0.1, 1.0, 6)
        z = g.uniform(1.0, 4.0, (5, 7))
        slope = urca._energy(z, vals, scale, weight, 1e-3, True)
        assert slope.tobytes() == urca._energy(z, vals, scale, weight, 1e-3)[1].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1.0, 4.0), min_size=1, max_size=10),
           st.lists(st.floats(1.0, 4.0), max_size=4),
           st.floats(0.0, 1.0), st.floats(0.05, 0.3), st.floats(0.05, 0.3),
           st.floats(1e-3, 1e-2))
    def test_slope_changes_sign_at_minimiser(self, s, r, gamma, tau_s, tau_r, eps_c):
        # E' is increasing, so the minimiser lies within 1e-6 of M exactly
        # when E' <= 0 at M - 1e-6 and >= 0 at M + 1e-6
        cfg = URCAConfig(gamma=gamma, tau_s=tau_s, tau_r=tau_r, eps_c=eps_c)
        r = r or None
        m, _ = _pixel_consensus(s, r, cfg)
        assert _grid_slope(m - 1e-6, s, r, cfg) <= 0.0 <= _grid_slope(m + 1e-6, s, r, cfg)

    def test_grid_oracle_samples_only(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            s = rng.uniform(1.0, 4.0, 5)
            m, u = _pixel_consensus(s, cfg=self.CFG)
            zg, ug = _grid_argmin(s, None, self.CFG, s.min(), s.max())
            assert abs(m - zg) <= 1e-3
            assert abs(u - ug) <= 1e-6 * max(1.0, abs(ug))

    def test_grid_oracle_with_recursive(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(1.0, 3.0, 4)
        r = rng.uniform(1.0, 3.0, 3)
        m, u = _pixel_consensus(s, r, cfg=self.CFG)
        zg, ug = _grid_argmin(s, list(r), self.CFG,
                              min(s.min(), r.min()), max(s.max(), r.max()))
        assert abs(m - zg) <= 1e-3
        assert abs(u - ug) <= 1e-6 * max(1.0, abs(ug))

    def test_recursive_term_pulls_toward_reference(self):
        s = [2.0, 2.0, 2.0]
        m_free, _ = _pixel_consensus(s, cfg=self.CFG)
        m_pull, _ = _pixel_consensus(s, [3.0], cfg=self.CFG)
        assert m_free == pytest.approx(2.0, abs=1e-5)
        assert m_pull > m_free

    def test_outlier_robust_vs_mean(self):
        # robust consensus of a tight cluster plus one outlier stays near the
        # cluster, unlike the arithmetic mean
        s = [2.0, 2.01, 1.99, 2.02, 9.0]
        m, _ = _pixel_consensus(s, cfg=self.CFG)
        assert abs(m - 2.0) < abs(np.mean(s) - 2.0)
        assert abs(m - 2.0) <= 0.1

    def test_energy_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            s = rng.uniform(0.5, 9.0, rng.integers(1, 6))
            _, u = _pixel_consensus(s, cfg=self.CFG)
            assert u >= -1e-12


class TestFuse:
    def test_single_sample_identity(self):
        d = DepthMap(values=np.random.default_rng(7).uniform(1, 5, (6, 6)))
        out = fuse([d], cfg=URCAConfig(gamma=0.0))
        assert np.max(np.abs(out.consensus.values - d.values)) <= 2e-5
        assert np.max(out.uncertainty) <= 1e-6

    def test_identical_samples(self):
        d = DepthMap(values=np.random.default_rng(8).uniform(1, 5, (5, 5)))
        out = fuse([d, DepthMap(values=d.values.copy())])
        assert np.max(np.abs(out.consensus.values - d.values)) <= 2e-5
        assert np.allclose(out.alignment.alpha, 1.0)

    def test_outlier_sample_suppressed(self):
        rng = np.random.default_rng(9)
        base = rng.uniform(2.0, 4.0, (6, 6))
        good = [DepthMap(values=base + rng.normal(0, 0.01, base.shape)) for _ in range(4)]
        bad = DepthMap(values=base + 3.0)
        out = fuse(good + [bad])
        naive = np.mean([s.values for s in good + [bad]], axis=0)
        err_fused = np.mean(np.abs(out.consensus.values - base))
        err_naive = np.mean(np.abs(naive - base))
        # the median shift keeps the common frame on the four good samples
        assert err_fused <= 0.01 < err_naive

    def test_mask_intersection(self):
        a = DepthMap(values=np.ones((3, 3)), valid_mask=np.array(
            [[1, 1, 0], [1, 1, 1], [1, 1, 1]], dtype=bool))
        b = DepthMap(values=np.ones((3, 3)), valid_mask=np.array(
            [[1, 1, 1], [0, 1, 1], [1, 1, 1]], dtype=bool))
        out = fuse([a, b])
        assert not out.consensus.valid_mask[0, 2]
        assert not out.consensus.valid_mask[1, 0]
        assert out.consensus.valid_mask.sum() == 7

    def test_recursive_maps_affine_fitted(self):
        # a trace level that is an affine distortion of the samples carries
        # no disagreement after the internal fit: consensus stays put
        rng = np.random.default_rng(10)
        base = rng.uniform(1.5, 4.0, (6, 6))
        samples = [DepthMap(values=base.copy()) for _ in range(3)]
        distorted = DepthMap(values=1.7 * base - 0.4)
        out_with = fuse(samples, trace_depths=[distorted])
        assert np.max(np.abs(out_with.consensus.values - base)) <= 1e-4

    def test_reliability_over_the_weight_that_entered(self):
        # U is the energy over N times the weight of the energy: N (N + gamma)
        # with the recursive term, N * N without it (no trace, or gamma = 0)
        samples = _distorted_stack(16, 3, 5, 5)
        level = DepthMap(values=samples[1].values + 0.05)
        for trace, gamma, weight in (([level], 0.5, 3.5), (None, 0.5, 3.0), ([level], 0.0, 3.0)):
            out = fuse(samples, trace_depths=trace, cfg=URCAConfig(gamma=gamma))
            assert np.all(out.uncertainty > 0)
            assert np.array_equal(out.reliability, out.uncertainty / (3 * weight))

    def test_trace_shape_mismatch(self):
        s = [DepthMap(values=np.ones((4, 4)))] * 2
        with pytest.raises(ShapeError):
            fuse(s, trace_depths=[DepthMap(values=np.ones((2, 2)))])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            fuse([])

    @pytest.mark.parametrize("n", [1, 3])
    def test_nonfinite_sample_rejected(self, n):
        samples = _distorted_stack(14, n, 4, 4)
        samples[-1].values[0, 0] = np.nan
        with pytest.raises(InputError):
            fuse(samples)

    def test_nonfinite_trace_depth_rejected(self):
        samples = _distorted_stack(15, 3, 4, 4)
        level = DepthMap(values=samples[0].values.copy())
        level.values[1, 1] = np.inf
        with pytest.raises(InputError):
            fuse(samples, trace_depths=[level])


class TestUncertaintyStats:
    def test_histogram_counts(self):
        u = np.array([0.0, 0.5, 1.0, 2.0])
        hist, edges, _ = uncertainty_stats(u, 1.0)
        assert hist.sum() == 4 and len(edges) == 65
        assert edges[0] == 0.0 and edges[-1] == 2.0

    def test_exceedance(self):
        u = np.array([0.2, 0.8, 1.5, 3.0])
        _, _, exc = uncertainty_stats(u, threshold=1.0)
        assert exc == pytest.approx(0.5)

    def test_all_zero(self):
        hist, edges, exc = uncertainty_stats(np.zeros((4, 4)), 1.0)
        assert hist.sum() == 16 and exc == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            uncertainty_stats(np.array([0.1, np.inf]), 1.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_nonfinite_threshold_rejected(self, threshold):
        # a NaN threshold would report 0 exceedance for any map
        with pytest.raises(InputError, match="threshold"):
            uncertainty_stats(np.array([0.5, 2.0, 5.0]), threshold)
