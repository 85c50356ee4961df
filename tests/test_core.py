import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldepth.core import (DepthMap, ScaleConfig, build_schedule_plan, denormalize,
                               downsample_mean, downsample_mean_adjoint, log_normalize,
                               named_scale_config, reassemble_patches, split_patches,
                               split_patches_with_context, upsample_bilinear)
from fractaldepth.errors import ConfigError, ResampleError
from fractaldepth.rng import RngStream


class TestSchedulePlan:
    def test_paper_config_token_counts(self):
        plan = build_schedule_plan(named_scale_config("paper"))
        assert tuple(l.token_count for l in plan.levels) == (1, 16, 256, 256)

    def test_paper_table_reading(self):
        plan = build_schedule_plan(named_scale_config("paper-table"))
        assert tuple(l.token_count for l in plan.levels) == (1, 16, 16, 256)

    def test_desk_config(self):
        plan = build_schedule_plan(named_scale_config("desk"))
        assert tuple(l.token_count for l in plan.levels) == (1, 16, 256, 64)
        assert tuple(l.token_dim for l in plan.levels) == (1, 1, 1, 64)

    def test_single_level_rejected(self):
        with pytest.raises(ConfigError):
            ScaleConfig(levels=((1, 1),))

    def test_non_divisible_patch_rejected(self):
        with pytest.raises(ConfigError):
            ScaleConfig(levels=((1, 1), (6, 4)))

    def test_non_increasing_resolution_rejected(self):
        with pytest.raises(ConfigError):
            ScaleConfig(levels=((4, 1), (4, 1)))

    # int() would read 16.7 as 16, "1" as 1 and True as 1
    @pytest.mark.parametrize("level, field", [
        ((16.7, 1), r"levels\[2\] resolution"), (("16", 1), r"levels\[2\] resolution"),
        ((16, True), r"levels\[2\] patch"), ((16, 1.0), r"levels\[2\] patch")])
    def test_non_int_level_rejected(self, level, field):
        with pytest.raises(ConfigError, match=field):
            ScaleConfig(levels=((1, 1), (4, 1), level, (64, 8)))

    def test_numpy_int_levels_accepted(self):
        cfg = ScaleConfig(levels=((1, 1), (np.int64(4), np.int32(1))))
        assert cfg.levels == ((1, 1), (4, 1)) and type(cfg.levels[1][0]) is int


class TestResampling:
    def test_downsample_constant(self):
        g = np.full((8, 8), 3.7)
        assert np.allclose(downsample_mean(g, 2), 3.7)

    def test_downsample_2x2_mean(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert downsample_mean(g, 1)[0, 0] == pytest.approx(2.5)

    def test_downsample_identity(self):
        g = np.arange(16.0).reshape(4, 4)
        assert np.array_equal(downsample_mean(g, 4), g)

    def test_downsample_keeps_floating_dtype(self):
        g = np.arange(64.0).reshape(8, 8)
        assert downsample_mean(g.astype(np.float32), 2).dtype == np.float32
        assert downsample_mean(g.astype(int), 2).dtype == np.float64
        assert downsample_mean(g.astype(int), 2).tobytes() == downsample_mean(g, 2).tobytes()

    def test_downsample_non_divisible(self):
        with pytest.raises(ResampleError):
            downsample_mean(np.zeros((4, 4)), 3)

    def test_downsample_channels(self):
        g = np.random.default_rng(2).normal(size=(8, 8, 3))
        out = downsample_mean(g, 2)
        assert out.shape == (2, 2, 3)
        for c in range(3):
            assert np.allclose(out[..., c], downsample_mean(g[..., c], 2), rtol=0, atol=1e-14)

    def test_downsample_adjoint(self):
        # <down(x), g> = <x, adjoint(g)> for any x and g
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 8, 2))
        g = rng.normal(size=(2, 2, 2))
        lhs = np.sum(downsample_mean(x, 2) * g)
        assert lhs == pytest.approx(np.sum(x * downsample_mean_adjoint(g, 4)), rel=1e-12)

    def test_upsample_constant(self):
        assert np.allclose(upsample_bilinear(np.full((2, 2), 1.3), 8), 1.3)

    def test_upsample_identity(self):
        g = np.random.default_rng(0).normal(size=(4, 4))
        assert np.array_equal(upsample_bilinear(g, 4), g)

    def test_upsample_monotone_endpoints(self):
        g = np.array([[0.0, 1.0], [0.0, 1.0]])
        out = upsample_bilinear(g, 4)
        row = out[0]
        assert row[0] == 0.0 and row[-1] == 1.0
        assert np.all(np.diff(row) >= 0)

    def test_upsample_range_bounded(self):
        g = np.random.default_rng(1).normal(size=(3, 3))
        out = upsample_bilinear(g, 9)
        assert out.min() >= g.min() - 1e-12 and out.max() <= g.max() + 1e-12

    def test_upsample_shrink_rejected(self):
        with pytest.raises(ResampleError):
            upsample_bilinear(np.zeros((4, 4)), 2)

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_downsample_preserves_global_mean(self, target_pow, seed):
        src = 2 ** 4
        target = 2 ** (target_pow - 1)
        g = np.random.default_rng(seed).normal(size=(src, src))
        out = downsample_mean(g, target)
        assert out.mean() == pytest.approx(g.mean(), rel=1e-10, abs=1e-12)


class TestNormalization:
    cfg = ScaleConfig(levels=((1, 1), (4, 1)), d_min=0.1, d_max=10.0)

    def test_endpoints(self):
        d = DepthMap(values=np.array([[0.1, 10.0]] * 2))
        z = log_normalize(d, self.cfg)
        assert z[0, 0] == pytest.approx(-1.0) and z[0, 1] == pytest.approx(1.0)

    def test_log_midpoint(self):
        d = DepthMap(values=np.full((2, 2), np.sqrt(0.1 * 10.0)))
        assert np.allclose(log_normalize(d, self.cfg), 0.0, atol=1e-12)

    def test_round_trip(self):
        vals = np.random.default_rng(7).uniform(0.1, 10.0, size=(8, 8))
        d = DepthMap(values=vals)
        back = denormalize(log_normalize(d, self.cfg), self.cfg)
        assert np.max(np.abs(back.values - vals)) <= 1e-12

    def test_bad_dmin(self):
        with pytest.raises(ConfigError):
            ScaleConfig(levels=((1, 1), (4, 1)), d_min=0.0)


def split_patches_with_context_loop(grid, p):
    """Reference: one token at a time from the edge-padded grid."""
    n = grid.shape[0] // p
    padded = np.pad(grid, p, mode="edge")
    contexts = np.empty((n * n, 4, p, p))
    for i in range(n):
        for j in range(n):
            r, c = p + i * p, p + j * p  # top-left of the center patch in padded coords
            k = i * n + j
            contexts[k, 0] = padded[r - p:r, c:c + p]          # top
            contexts[k, 1] = padded[r + p:r + 2 * p, c:c + p]  # bottom
            contexts[k, 2] = padded[r:r + p, c - p:c]          # left
            contexts[k, 3] = padded[r:r + p, c + p:c + 2 * p]  # right
    return split_patches(grid, p), contexts


class TestPatches:
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_context_matches_loop(self, n, patch, seed):
        g = np.random.default_rng(seed).normal(size=(n * patch, n * patch))
        patches, ctx = split_patches_with_context(g, patch)
        ref_patches, ref_ctx = split_patches_with_context_loop(g, patch)
        assert patches.shape == ref_patches.shape and ctx.shape == ref_ctx.shape
        assert np.array_equal(patches, ref_patches) and np.array_equal(ctx, ref_ctx)

    def test_border_replication(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        patches, ctx = split_patches_with_context(g, 1)
        assert patches.shape == (4, 1, 1)
        # top-left cell: top and left context replicate itself
        assert ctx[0, 0, 0, 0] == 1.0 and ctx[0, 2, 0, 0] == 1.0
        assert ctx[0, 1, 0, 0] == 3.0 and ctx[0, 3, 0, 0] == 2.0

    def test_full_resolution_patch(self):
        g = np.arange(16.0).reshape(4, 4)
        patches, ctx = split_patches_with_context(g, 4)
        assert patches.shape == (1, 4, 4)
        assert np.array_equal(patches[0], g)
        # all contexts are edge replications of the grid itself
        assert np.array_equal(ctx[0, 0], np.tile(g[0], (4, 1)))

    def test_interior_neighbor_identity(self):
        g = np.arange(16.0).reshape(4, 4)
        patches, ctx = split_patches_with_context(g, 2)
        # entry (0,0)'s right context equals entry (0,1)'s values
        assert np.array_equal(ctx[0, 3], patches[1])

    @given(st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4), (6, 3)]), st.integers(0, 5))
    @settings(max_examples=15, deadline=None)
    def test_reassembly_bit_exact(self, shape, seed):
        res, patch = shape
        g = np.random.default_rng(seed).normal(size=(res, res))
        patches, _ = split_patches_with_context(g, patch)
        assert np.array_equal(reassemble_patches(patches, res), g)


class TestRngStream:
    def test_identical_path_identical_draws(self):
        a = RngStream(42).normal((4,), 1, 2, 3)
        b = RngStream(42, ()).child(1).normal((4,), 2, 3)
        assert np.array_equal(a, b)

    def test_order_independent(self):
        s = RngStream(7, ("x",))
        first = s.normal((3,), 0)
        _ = s.normal((3,), 99)
        again = s.normal((3,), 0)
        assert np.array_equal(first, again)

    def test_distinct_paths_differ(self):
        s = RngStream(7)
        assert not np.array_equal(s.normal((8,), 0), s.normal((8,), 1))

    def test_seed_changes_draws(self):
        assert not np.array_equal(RngStream(1).normal((8,), 0), RngStream(2).normal((8,), 0))
