"""Layer math, network assembly, complexity accounting, training loop."""

import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbocc.errors import ConfigError, DataError, DivergenceError
from uwbocc.nn import (
    VARIANTS,
    AdamOptimizer,
    ArchitectureVariant,
    BatchNorm,
    Conv1d,
    Conv2d,
    Dense,
    GlobalAvgPool,
    OptimizerConfig,
    ReLU,
    batch_input,
    bce_with_logits,
    build_network,
    channel_plan,
    flop_count,
    layout_2d,
    load_checkpoint,
    param_count,
    save_checkpoint,
    train_network,
)
from uwbocc.nn import layers
from uwbocc.nn.model import MAX_STATE_VALUES, ResidualBlock, _layer_plan, _state_size

from gradcheck import check_layer_gradients, check_network_gradient


def input_1d(residual):
    """One residual's 1D network input, through layout_2d and batch_input."""
    return batch_input(layout_2d([residual]), 1)[0]


class TestLayouts:
    def test_1d_stacking_example(self):
        res = np.array([[1 + 2j, 3 + 4j]])
        out = input_1d(res)
        assert out.shape == (2, 2)
        assert np.array_equal(out, [[1, 3], [2, 4]])

    def test_1d_energy_preserved(self):
        rng = np.random.default_rng(0)
        res = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        out = input_1d(res)
        assert out.shape == (12, 9)
        assert np.sum(out**2) == pytest.approx(np.sum(np.abs(res) ** 2), rel=1e-14)

    def test_1d_all_imaginary_top_rows_zero(self):
        res = 1j * np.ones((3, 4))
        out = input_1d(res)
        assert np.all(out[:3] == 0)
        assert np.all(out[3:] == 1)

    def test_2d_example(self):
        out = batch_input(layout_2d([np.array([[1 + 2j]])]), 2)
        assert out.shape == (1, 2, 1, 1)
        assert out[0, 0, 0, 0] == 1 and out[0, 1, 0, 0] == 2

    def test_2d_energy_and_real_channel(self):
        rng = np.random.default_rng(1)
        res = rng.standard_normal((4, 5)) + 0j
        out = batch_input(layout_2d([res]), 2)[0]
        assert np.sum(out**2) == pytest.approx(np.sum(np.abs(res) ** 2), rel=1e-14)
        assert np.all(out[1] == 0)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_planes_are_channels_first_in_the_real_dtype(self, dtype):
        rng = np.random.default_rng(2)
        residuals = list((rng.standard_normal((3, 4, 5))
                          + 1j * rng.standard_normal((3, 4, 5))).astype(dtype))
        planes = layout_2d(residuals)
        assert planes.shape == (3, 2, 4, 5) and planes.dtype == np.finfo(dtype).dtype
        assert batch_input(planes, 2) is planes
        for sample, res in zip(planes, residuals):
            assert np.array_equal(sample[0], res.real) and np.array_equal(sample[1], res.imag)

    def test_1d_batch_is_a_view_of_the_planes_stacked_per_sample(self):
        rng = np.random.default_rng(3)
        residuals = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        planes = layout_2d(list(residuals))
        expected = np.stack([np.concatenate([r.real, r.imag]) for r in residuals])
        assert np.array_equal(batch_input(planes, 1), expected)
        assert np.shares_memory(batch_input(planes, 1), planes)

    @pytest.mark.parametrize("shape", [(1, 5), (5,), (4, 6)])
    def test_mismatched_residual_shape_raises(self, shape):
        # (1, 5) and (5,) would broadcast into a (4, 5) plane.
        with pytest.raises(DataError, match="shape"):
            layout_2d([np.zeros((4, 5), complex), np.ones(shape, complex)])


class TestConv:
    def test_identity_kernel(self):
        conv = Conv1d(1, 1, 3, rng=0)
        conv.weight.value[...] = np.array([[[0.0, 1.0, 0.0]]])
        x = np.arange(12, dtype=np.float64).reshape(1, 1, 12)
        assert np.array_equal(conv.forward(x, train=False), x)

    def test_ones_kernel_same_padding(self):
        conv = Conv1d(1, 1, 3, rng=0)
        conv.weight.value[...] = 1.0
        x = np.array([[[1.0, 2.0, 3.0]]])
        assert np.array_equal(conv.forward(x, train=False), [[[3.0, 6.0, 5.0]]])

    def test_linearity(self):
        rng = np.random.default_rng(2)
        conv = Conv1d(3, 4, 3, rng=3)
        x = rng.standard_normal((2, 3, 7))
        y1 = conv.forward(3.5 * x, train=False)
        y2 = 3.5 * conv.forward(x, train=False)
        assert np.abs(y1 - y2).max() < 1e-12

    def test_2d_identity_kernel(self):
        conv = Conv2d(1, 1, 3, rng=0)
        conv.weight.value[...] = 0.0
        conv.weight.value[0, 0, 1, 1] = 1.0
        x = np.arange(20, dtype=np.float64).reshape(1, 1, 4, 5)
        assert np.array_equal(conv.forward(x, train=False), x)

    def test_shape_preserved_and_mismatch_rejected(self):
        conv = Conv1d(2, 5, 3, rng=0)
        y = conv.forward(np.zeros((3, 2, 11)), train=False)
        assert y.shape == (3, 5, 11)
        with pytest.raises(DataError):
            conv.forward(np.zeros((3, 4, 11)), train=False)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1d(1, 1, 2)


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        bn = BatchNorm(2)
        x = np.full((4, 2, 5), 3.7)
        out = bn.forward(x, train=True)
        assert np.abs(out).max() < 1e-9

    def test_standardized_batch_passes_through(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 3, 50))
        x -= x.mean(axis=(0, 2), keepdims=True)
        x /= x.std(axis=(0, 2), keepdims=True)
        bn = BatchNorm(3)
        out = bn.forward(x, train=True)
        assert np.abs(out - x).max() < 1e-4  # only the eps in the denominator

    def test_infer_mode_is_affine_with_running_stats(self):
        bn = BatchNorm(2)
        bn.gamma.value[...] = [2.0, 0.5]
        bn.beta.value[...] = [1.0, -1.0]
        x = np.ones((1, 2, 3))
        out = bn.forward(x, train=False)  # running stats are mean 0, var 1
        expected_0 = 2.0 / np.sqrt(1 + 1e-5) + 1.0
        expected_1 = 0.5 / np.sqrt(1 + 1e-5) - 1.0
        assert out[0, 0] == pytest.approx(expected_0, rel=1e-9)
        assert out[0, 1] == pytest.approx(expected_1, rel=1e-9)
        bn.running_mean[...] = [1e4, -2.0]
        bn.running_var[...] = [0.25, 9.0]
        x = np.random.default_rng(7).standard_normal((4, 2, 6)) + bn.running_mean[:, None]
        shape = (1, 2, 1)
        expected = (bn.gamma.value.reshape(shape) * (x - bn.running_mean.reshape(shape))
                    / np.sqrt(bn.running_var.reshape(shape) + layers._BN_EPS)
                    + bn.beta.value.reshape(shape))
        np.testing.assert_allclose(bn.forward(x, train=False), expected, rtol=1e-12, atol=1e-12)

    def test_batch_of_one_rejected_in_train_mode(self):
        bn = BatchNorm(2)
        with pytest.raises(DataError):
            bn.forward(np.zeros((1, 2, 5)), train=True)
        bn.forward(np.zeros((1, 2, 5)), train=False)  # inference is fine

    def test_running_stats_converge(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm(1)
        for _ in range(300):
            bn.forward(5.0 + 2.0 * rng.standard_normal((64, 1, 10)), train=True)
        assert bn.running_mean[0] == pytest.approx(5.0, abs=0.1)
        assert bn.running_var[0] == pytest.approx(4.0, rel=0.1)

    def test_large_offset_matches_two_pass_reference(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((16, 2, 7, 9))
        x[:, 0] += 1e4  # a one-pass E[x**2] - E[x]**2 loses about 1e-8 of this variance
        bn = BatchNorm(2)
        bn.forward(x, train=True)
        for c in range(2):
            values = x[:, c].ravel()
            mean = math.fsum(values) / values.size
            var = math.fsum((values - mean) ** 2) / values.size
            assert 1.0 / bn._inv_std[c] ** 2 - layers._BN_EPS == pytest.approx(var, rel=1e-9)
            expected = (x[:, c] - mean) / math.sqrt(var + layers._BN_EPS)
            np.testing.assert_allclose(bn._xhat[:, c].reshape(expected.shape), expected,
                                       rtol=1e-9, atol=1e-9)

    def test_running_stats_move_once_per_train_forward(self):
        rng = np.random.default_rng(6)
        x = 3.0 + 2.0 * rng.standard_normal((5, 2, 11))
        bn = BatchNorm(2)
        y = bn.forward(x, train=True)
        count = 5 * 11
        mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
        np.testing.assert_allclose(bn.running_mean, 0.1 * mean, rtol=1e-12)
        np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * var * count / (count - 1),
                                   rtol=1e-12)
        after_forward = [bn.running_mean.copy(), bn.running_var.copy()]
        bn.backward(np.ones_like(y))
        bn.forward(x, train=False)
        for now, then in zip((bn.running_mean, bn.running_var), after_forward):
            np.testing.assert_array_equal(now, then)
        bn.forward(x, train=True)
        assert not np.array_equal(bn.running_mean, after_forward[0])

    @pytest.mark.parametrize("train", [True, False])
    def test_transposed_input_matches_contiguous(self, train):
        # Convolutions hand over (C, B, *S) arrays transposed to (B, C, *S).
        x = np.random.default_rng(8).standard_normal((6, 3, 4, 5))
        transposed = np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)
        a, b = BatchNorm(3), BatchNorm(3)
        ya, yb = a.forward(x, train), b.forward(transposed, train)
        np.testing.assert_allclose(yb, ya, rtol=1e-12, atol=1e-12)
        if train:
            # Merging the spatial axes kept the transposed layout: no copy was made.
            assert b._xhat.swapaxes(0, 1).flags["C_CONTIGUOUS"]
            dy = np.random.default_rng(9).standard_normal(x.shape)
            np.testing.assert_allclose(b.backward(dy), a.backward(dy), rtol=1e-12, atol=1e-12)

    def test_holds_only_its_cache(self):
        bn = BatchNorm(2)
        state = {id(a) for a in bn.state_arrays().values()}

        def held():
            return [v for v in vars(bn).values()
                    if isinstance(v, np.ndarray) and id(v) not in state]

        x = np.random.default_rng(9).standard_normal((3, 2, 4, 5))
        bn.forward(x, train=False)
        assert not held()
        y = bn.forward(x, train=True)
        assert bn._xhat.shape == (3, 2, 20) and bn._inv_std.shape == (2,)
        assert {id(v) for v in held()} == {id(bn._xhat), id(bn._inv_std)}
        bn.backward(np.ones_like(y))
        assert not held()


class TestReLU:
    def test_train_maps_nan_to_zero(self):
        x = np.array([[np.nan, -1.0, 2.0, np.nan]])
        np.testing.assert_array_equal(ReLU().forward(x, train=True), [[0.0, 0.0, 2.0, 0.0]])
        assert np.isnan(ReLU().forward(x, train=False)[0, 0])  # inference lets it through

    def test_backward_mask_is_exactly_x_positive(self):
        x = np.array([[-2.0, -0.0, 0.0, 1e-300, 3.0, np.nan, -np.inf, np.inf]])
        dy = np.arange(1.0, 9.0)[None]
        relu = ReLU()
        relu.forward(x, train=True)
        dx = relu.backward(dy)
        np.testing.assert_array_equal(dx, np.where(x > 0, dy, 0.0))
        assert dx[0, 1] == 0.0 and dx[0, 2] == 0.0  # no gradient at x == 0

    def test_holds_only_its_output(self):
        relu = ReLU()
        x = np.random.default_rng(10).standard_normal((3, 2, 7))
        relu.forward(x, train=False)
        assert not [v for v in vars(relu).values() if isinstance(v, np.ndarray)]
        y = relu.forward(x, train=True)
        held = [v for v in vars(relu).values() if isinstance(v, np.ndarray)]
        assert len(held) == 1 and held[0] is y
        relu.backward(np.ones_like(y))
        assert not [v for v in vars(relu).values() if isinstance(v, np.ndarray)]

    def test_backward_masks_the_gradient_in_place(self):
        relu = ReLU()
        relu.forward(np.random.default_rng(11).standard_normal((3, 2, 7)), train=True)
        dy = np.ones((3, 2, 7))
        assert np.shares_memory(relu.backward(dy), dy)

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_in_place_backward_gives_the_copying_bits(self, name, monkeypatch):
        # Every caller hands ReLU backward a gradient it does not read again;
        # a caller that did would see the mask here.
        in_place = adam_steps(name)
        masked = ReLU.backward
        monkeypatch.setattr(ReLU, "backward", lambda self, dy: masked(self, dy.copy()))
        assert adam_steps(name) == in_place


class TestGlobalAvgPool:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("spatial", [(100,), (16, 25)])
    def test_sample_output_does_not_depend_on_its_batch(self, dtype, spatial):
        x = np.random.default_rng(12).standard_normal((150, 8) + spatial).astype(dtype)
        pool = GlobalAvgPool()
        whole = pool.forward(x, train=False)
        last = pool.forward(x[50:], train=False)
        alone = np.concatenate([pool.forward(x[i:i + 1], train=False) for i in range(len(x))])
        assert whole.dtype == dtype
        assert whole.tobytes() == alone.tobytes()
        assert last.tobytes() == alone[50:].tobytes()


def residual_blocks(net):
    return [layer for layer in net.layers if isinstance(layer, ResidualBlock)]


class TestBuildNetwork:
    def test_small_variant_plan(self):
        assert channel_plan(VARIANTS["1D-E"]) == [8, 16, 32]

    def test_mid_variant_plan(self):
        assert channel_plan(VARIANTS["1D-B"]) == [16, 16, 16, 32, 32, 32, 64, 64, 64]

    def test_single_block_custom_variant(self):
        variant = ArchitectureVariant("custom", 1, 6, 1, 1)
        net = build_network(variant, (2, 10))
        assert channel_plan(variant) == [6]
        (block,) = residual_blocks(net)
        assert block.skip == []

    def test_projections_exactly_at_channel_changes(self):
        for name, variant in VARIANTS.items():
            net = build_network(variant, (4, 6) if variant.dimensionality == 1 else (2, 5, 5))
            plan = channel_plan(variant)
            previous = variant.initial_filters
            for block, c_out in zip(residual_blocks(net), plan, strict=True):
                assert bool(block.skip) == (previous != c_out), name
                previous = c_out

    def test_unknown_variant(self):
        with pytest.raises(ConfigError, match="unknown variant"):
            build_network("3D-X", (2, 10))

    def test_wrong_input_rank(self):
        with pytest.raises(ConfigError):
            build_network("2D-E", (2, 10))

    def test_state_cap_holds_the_largest_built_network_ten_times(self):
        # 1D-A at kernel 9 on 64 x 100 inputs (128 channels) is the largest
        # network the tests, demos and benchmark build.
        assert 10 * _state_size(VARIANTS["1D-A"], 128, 9, MAX_STATE_VALUES) <= MAX_STATE_VALUES

    def test_network_over_the_state_cap_is_refused_before_it_is_built(self, monkeypatch):
        with pytest.raises(ConfigError, match="^1D-E at kernel 1000001 on 16 input channels "
                                              f"is over the cap of {MAX_STATE_VALUES} state"):
            build_network("1D-E", (16, 20), kernel=1000001)
        size = _state_size(VARIANTS["1D-E"], 4, 3, 10**9)
        monkeypatch.setattr("uwbocc.nn.model.MAX_STATE_VALUES", size)
        build_network("1D-E", (4, 6))  # a network of exactly the cap is built
        monkeypatch.setattr("uwbocc.nn.model.MAX_STATE_VALUES", size - 1)
        with pytest.raises(ConfigError, match=f"over the cap of {size - 1} state values"):
            build_network("1D-E", (4, 6))


def leaf_plan(net):
    """(kind, c_in, c_out, taps) of every leaf layer of a built network, in forward order.

    ReLU and pool leaves hold no channel count, so they read (kind, None, None, None).
    """
    out = []
    for leaf in leaf_layers(net):
        if isinstance(leaf, (Conv1d, Conv2d)):
            c_out, c_in, *kernel = leaf.weight.value.shape
            out.append(("conv", c_in, c_out, math.prod(kernel)))
        elif isinstance(leaf, BatchNorm):
            out.append(("bn", leaf.gamma.value.size, leaf.gamma.value.size, 1))
        elif isinstance(leaf, Dense):
            c_out, c_in = leaf.weight.value.shape
            out.append(("dense", c_in, c_out, 1))
        else:
            out.append(({ReLU: "relu", GlobalAvgPool: "pool"}[type(leaf)], None, None, None))
    return out


# flop_count of every variant at kernel 3 on 64 x 100 residuals: (128, 100)
# inputs for 1D variants, (2, 64, 100) for 2D.
PINNED_FLOPS = {
    "1D-A": 300022912, "1D-B": 19892928, "1D-C": 13340928, "1D-D": 6788928,
    "1D-E": 2037664, "2D-A": 3478835328, "2D-B": 2233753728, "2D-C": 563097664,
    "2D-D": 139468832, "2D-E": 36147216,
}


class TestLayerPlan:
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_plan_is_the_built_network(self, name, kernel):
        variant = VARIANTS[name]
        c_in = 3
        net = build_network(variant, (c_in,) + (5,) * variant.dimensionality, kernel=kernel)
        plan = [(kind, *counts) if kind in ("conv", "bn", "dense") else (kind, None, None, None)
                for kind, *counts in _layer_plan(variant, c_in, kernel) if kind != "sum"]
        assert plan == leaf_plan(net)
        assert _state_size(variant, c_in, kernel, 10**12) == sum(
            arr.size for _, arr in net.named_state())

    def test_each_block_sums_its_branches_before_its_output_relu(self):
        kinds = [kind for kind, *_ in _layer_plan(VARIANTS["1D-B"], 2, 3)]
        sums = [i for i, kind in enumerate(kinds) if kind == "sum"]
        assert len(sums) == VARIANTS["1D-B"].n_total
        assert all(kinds[i - 1] == "bn" and kinds[i + 1] == "relu" for i in sums)

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_flop_count_is_pinned(self, name):
        shape = (128, 100) if VARIANTS[name].dimensionality == 1 else (2, 64, 100)
        assert flop_count(build_network(name, shape, seed=0)) == PINNED_FLOPS[name]

    def test_state_size_stops_past_its_limit(self):
        # A header may claim any depth; counting it must not walk every block.
        deep = ArchitectureVariant("deep", 1, 8, 1, 10**15)
        assert 1000 < _state_size(deep, 2, 3, 1000) < 10**6


class TestComplexityAccounting:
    def test_conv_param_example(self):
        conv = Conv1d(4, 8, 3, rng=0)
        assert sum(p.value.size for p in conv.params()) == 4 * 8 * 3 == 96

    def test_flops_scale_with_length(self):
        channels = channel_plan(VARIANTS["1D-E"])[-1]
        f100 = flop_count(build_network("1D-E", (4, 100), seed=0))
        f200 = flop_count(build_network("1D-E", (4, 200), seed=0))
        # every term is linear in spatial size except the final dense layer
        assert f200 - 2 * channels == 2 * (f100 - 2 * channels)

    def test_param_count_matches_direct_sum(self):
        net = build_network("2D-E", (2, 8, 9), seed=0)
        assert param_count(net) == sum(p.value.size for p in net.params())

    def test_published_order_of_magnitude(self):
        published = {
            "1D-A": (1.5e6, 3.0e8), "1D-B": (1.0e5, 2.0e7), "1D-C": (6.8e4, 1.3e7),
            "1D-D": (3.5e4, 6.9e6), "1D-E": (1.0e4, 2.1e6), "2D-A": (2.7e5, 4.0e9),
            "2D-B": (1.7e5, 2.6e9), "2D-C": (4.4e4, 6.5e8), "2D-D": (1.1e4, 1.6e8),
            "2D-E": (2.9e3, 4.1e7),
        }
        for name, (pub_params, pub_flops) in published.items():
            variant = VARIANTS[name]
            shape = (128, 100) if variant.dimensionality == 1 else (2, 64, 100)
            net = build_network(variant, shape, seed=0)
            assert 0.1 < param_count(net) / pub_params < 10.0, name
            assert 0.1 < flop_count(net) / pub_flops < 10.0, name


class TestForward:
    def test_zero_weight_head_returns_bias(self):
        net = build_network("1D-E", (2, 10), seed=0)
        head = net.layers[-1]
        head.weight.value[...] = 0.0
        head.bias.value[...] = 1.25
        rng = np.random.default_rng(5)
        logits = net.forward(rng.standard_normal((4, 2, 10)), train=False)
        assert np.allclose(logits, 1.25)

    def test_batch_order_alignment(self):
        net = build_network("1D-E", (2, 10), seed=1)
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((5, 2, 10))
        logits = net.forward(batch, train=False)
        perm = np.array([3, 0, 4, 1, 2])
        assert np.allclose(net.forward(batch[perm], train=False), logits[perm])

    def test_zeroed_main_branch_is_identity_for_positive_input(self):
        block = ResidualBlock(dim=1, c_in=3, c_out=3, kernel=3, rng=0)
        for conv in (block.main[0], block.main[3]):
            conv.weight.value[...] = 0.0
        x = np.abs(np.random.default_rng(7).standard_normal((2, 3, 6))) + 0.1
        out = block.forward(x, train=False)
        assert np.allclose(out, x)

    def test_non_finite_logits_raise(self):
        net = build_network("1D-E", (2, 10), seed=0)
        batch = np.full((2, 2, 10), np.inf)
        with pytest.raises(DivergenceError):
            net.forward(batch, train=False)


class TestLoss:
    def test_logit_zero_label_one(self):
        loss, grad = bce_with_logits(np.array([0.0]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        assert grad[0] == pytest.approx(-0.5)

    def test_huge_logit_stable(self):
        loss, _ = bce_with_logits(np.array([50.0]), np.array([1.0]))
        assert 0.0 <= loss < 1e-20

    def test_gradient_signs_at_zero(self):
        _, grad = bce_with_logits(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert grad[0] == pytest.approx(-0.25)  # -0.5 / batch of 2
        assert grad[1] == pytest.approx(+0.25)

    def test_batch_mean_composition(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal(6)
        y = (rng.uniform(size=6) > 0.5).astype(float)
        full, _ = bce_with_logits(z, y)
        first, _ = bce_with_logits(z[:2], y[:2])
        rest, _ = bce_with_logits(z[2:], y[2:])
        assert full == pytest.approx((2 * first + 4 * rest) / 6, rel=1e-12)


def direct_conv(x, weight):
    """Same-padded stride-1 convolution by explicit loops over outputs and taps."""
    pad = weight.shape[-1] // 2
    spatial = x.shape[2:]
    xp = np.pad(x, [(0, 0), (0, 0)] + [(pad, pad)] * len(spatial))
    y = np.zeros((x.shape[0], weight.shape[0]) + spatial)
    for pos in np.ndindex(*spatial):
        for tap in np.ndindex(*weight.shape[2:]):
            window = xp[(...,) + tuple(p + t for p, t in zip(pos, tap))]
            y[(...,) + pos] += window @ weight[(...,) + tap].T
    return y


def conv_pass(conv, x, dy):
    """Train forward and backward; returns (y, dx, weight grad)."""
    conv.weight.zero_grad()
    y = conv.forward(x, train=True)
    dx = conv.backward(dy)
    return y, dx, conv.weight.grad.copy()


class TestConvEngine:
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("cls, spatial", [(Conv1d, (9,)), (Conv2d, (5, 6))])
    def test_matches_direct_loops(self, cls, spatial, kernel):
        rng = np.random.default_rng(kernel)
        conv = cls(3, 4, kernel, rng=0)
        x = rng.standard_normal((2, 3) + spatial)
        dy = rng.standard_normal((2, 4) + spatial)
        y, dx, gw = conv_pass(conv, x, dy)
        w = conv.weight.value
        np.testing.assert_allclose(y, direct_conv(x, w), rtol=1e-12, atol=1e-12)
        # The loss sum(y * dy) is linear in w and x: its gradients are probes of direct_conv.
        probe_w = np.array([np.sum(direct_conv(x, e.reshape(w.shape)) * dy)
                            for e in np.eye(w.size)]).reshape(w.shape)
        np.testing.assert_allclose(gw, probe_w, rtol=1e-12, atol=1e-12)
        probe_x = np.array([np.sum(direct_conv(e.reshape(x.shape), w) * dy)
                            for e in np.eye(x.size)]).reshape(x.shape)
        np.testing.assert_allclose(dx, probe_x, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("cls, spatial", [(Conv1d, (11,)), (Conv2d, (4, 5))])
    def test_batch_slices_match_one_slice(self, cls, spatial, monkeypatch):
        rng = np.random.default_rng(4)
        conv = cls(3, 2, 3, rng=0)
        x = rng.standard_normal((7, 3) + spatial)
        dy = rng.standard_normal((7, 2) + spatial)
        whole = conv_pass(conv, x, dy)
        # Column bytes per sample and channel; each worker's half of the budget
        # holds 6 of them, so the input's 3-channel columns go 2 samples per
        # slice and dy's 2-channel ones 3.
        unit = 3 ** len(spatial) * int(np.prod(spatial)) * 8
        monkeypatch.setattr(layers, "_COLUMN_BUDGET_BYTES", layers._WORKERS * 6 * unit)
        calls = []
        fill = layers._fill_columns
        monkeypatch.setattr(layers, "_fill_columns", lambda src, k, out: calls.append(
            (src.shape[0], src.shape[1])) or fill(src, k, out))
        conv.weight.zero_grad()
        y = conv.forward(x, train=True)
        forward_calls, calls[:] = sorted(calls), []
        dx = conv.backward(dy)
        # Workers fill their slices in any interleaving; the widths are fixed.
        assert forward_calls == sorted([(3, 2), (3, 2), (3, 2), (3, 1)])
        # weight gradient over x's columns, input gradient over dy's
        assert sorted(calls) == sorted([(3, 2), (3, 2), (3, 2), (3, 1), (2, 3), (2, 3), (2, 1)])
        for a, b in zip(whole, (y, dx, conv.weight.grad)):
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("cls, spatial", [(Conv1d, (11,)), (Conv2d, (4, 5))])
    def test_dirty_column_buffers_give_zeroed_slice_bits(self, cls, spatial, kernel, monkeypatch):
        # A fresh buffer holds whatever the heap held last; NaN shows every
        # border strip a slice reads without the padding step having zeroed
        # it, and a strip left over from a wider slice shows against the
        # reference, which zeroes every slice's columns before its fill.  The
        # reference runs the same slice plan: a one-slice run regroups the sums.
        rng = np.random.default_rng(kernel)
        conv = cls(3, 2, kernel, rng=0)
        x = rng.standard_normal((7, 3) + spatial)
        dy = rng.standard_normal((7, 2) + spatial)
        # As in test_batch_slices_match_one_slice: x's columns go in slices of
        # 2,2,2,1 samples, so worker 1 runs widths 2 then 1, and dy's in 3,3,1,
        # so worker 0 runs widths 3 then 1.
        unit = kernel ** len(spatial) * int(np.prod(spatial)) * 8
        monkeypatch.setattr(layers, "_COLUMN_BUDGET_BYTES", layers._WORKERS * 6 * unit)
        fill = layers._fill_columns
        monkeypatch.setattr(layers, "_fill_columns",
                            lambda src, k, out: out.fill(0.0) or fill(src, k, out))
        zeroed = conv_pass(conv, x, dy)
        monkeypatch.setattr(layers, "_fill_columns", fill)
        monkeypatch.setattr(layers, "_column_buffer",
                            lambda size, dtype: np.full(size, np.nan, dtype=dtype))
        for reference, dirty in zip(zeroed, conv_pass(conv, x, dy)):
            assert np.array_equal(reference, dirty)

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("spatial", [(9,), (5, 6), (2, 3)])
    def test_padding_and_fill_match_padded_windows(self, spatial, kernel):
        src = np.random.default_rng(kernel).standard_normal((3, 4) + spatial)
        out = np.full((3, kernel ** len(spatial), 4) + spatial, np.nan)
        layers._pad_columns(kernel, out)
        layers._fill_columns(src, kernel, out)
        pad = kernel // 2
        padded = np.pad(src, [(0, 0), (0, 0)] + [(pad, pad)] * len(spatial))
        for tap, offsets in enumerate(np.ndindex((kernel,) * len(spatial))):
            window = tuple(slice(o, o + n) for o, n in zip(offsets, spatial))
            np.testing.assert_array_equal(out[:, tap], padded[(slice(None),) * 2 + window])

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_pooled_and_inline_runs_give_equal_bits(self, name, monkeypatch):
        if layers._pool() is None:
            pytest.skip("the conv engine runs inline on this machine")
        # One sample per slice: every convolution of a batch of 6 has 6 slices.
        monkeypatch.setattr(layers, "_COLUMN_BUDGET_BYTES", 1)
        threads = []
        fill = layers._fill_columns
        monkeypatch.setattr(layers, "_fill_columns", lambda src, k, out: threads.append(
            threading.current_thread().name) or fill(src, k, out))
        runs = []
        for pool in (layers._pool(), None):
            monkeypatch.setattr(layers, "_pool", lambda pool=pool: pool)
            threads.clear()
            shape, batch, labels = small_batch(name, np.float32)
            net = build_network(name, shape, seed=0)
            optimizer = AdamOptimizer(net.params(), OptimizerConfig())
            for _ in range(3):
                net.zero_grads()
                net.backward(bce_with_logits(net.forward(batch, train=True), labels)[1])
                optimizer.step()
            runs.append(([arr.tobytes() for _, arr in net.named_state()],
                         net.forward(batch, train=False).tobytes(), set(threads)))
        (*pooled, pooled_threads), (*inline, inline_threads) = runs
        assert pooled_threads and all(t.startswith("uwbocc-conv") for t in pooled_threads)
        assert inline_threads == {threading.current_thread().name}
        assert pooled == inline

    def test_single_malloc_arena_caps_glibc_or_does_nothing(self, monkeypatch):
        calls = []
        libc = SimpleNamespace(mallopt=lambda *args: calls.append(args) or 1)
        for found in (libc, object()):  # object(): a C library without mallopt
            monkeypatch.setattr(layers.ctypes, "CDLL", lambda name, found=found: found)
            layers._single_malloc_arena.__wrapped__()
        assert calls == [(-8, 1)]  # glibc's M_ARENA_MAX, set to one arena

    def test_concurrent_callers_share_the_workers(self, monkeypatch):
        # evaluate --threads N calls convolutions from N threads at once; the
        # first calls race to make the executor, and every call shares it.
        rng = np.random.default_rng(6)
        conv = Conv2d(3, 4, 3, rng=0)
        inputs = [rng.standard_normal((5, 3, 6, 7)) for _ in range(8)]
        monkeypatch.setattr(layers, "_COLUMN_BUDGET_BYTES", 1)
        expected = [conv.forward(x, train=False) for x in inputs]
        monkeypatch.setattr(layers, "_POOL", [])
        barrier = threading.Barrier(4)

        def caller():
            barrier.wait(timeout=60)
            return [conv.forward(x, train=False) for x in inputs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(caller) for _ in range(4)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(layers._POOL) == 1
        if layers._POOL[0] is not None:
            layers._POOL[0].shutdown()
        assert all(np.array_equal(y, e) for run in results for y, e in zip(run, expected))

    def test_worker_error_reaches_caller_after_every_worker_stops(self, monkeypatch):
        rng = np.random.default_rng(5)
        conv = Conv1d(3, 2, 3, rng=0)
        x = rng.standard_normal((6, 3, 11))
        y = conv.forward(x, train=False)
        # One sample per slice: worker 0 runs slices 0, 2, 4 and worker 1 runs 1, 3, 5.
        monkeypatch.setattr(layers, "_COLUMN_BUDGET_BYTES", 1)
        events = []
        fill = layers._fill_columns

        def failing(src, k, out):
            start = (src.ctypes.data - x.ctypes.data) // x.strides[0]
            events.append(("enter", start))
            try:
                if start == 1:  # raised last, but first in slice order
                    time.sleep(0.2)
                    raise RuntimeError("slice 1")
                if start == 2:
                    raise RuntimeError("slice 2")
                fill(src, k, out)
            finally:
                events.append(("exit", start))

        monkeypatch.setattr(layers, "_fill_columns", failing)
        with pytest.raises(RuntimeError, match="slice 1"):
            conv.forward(x, train=False)
        seen = list(events)
        time.sleep(0.1)
        assert events == seen
        assert sorted(start for kind, start in seen if kind == "enter") == [0, 1, 2]
        assert sorted(start for kind, start in seen if kind == "exit") == [0, 1, 2]
        monkeypatch.setattr(layers, "_fill_columns", fill)
        assert np.array_equal(conv.forward(x, train=False), y)

    def test_float64_logits_do_not_depend_on_blas_threads(self):
        # 1D-A to 1D-C gave different bits under 1 and 2 OpenBLAS threads
        # while the conv GEMMs ran on OpenBLAS's own threads.
        script = (
            "import hashlib, numpy as np\n"
            "from uwbocc.nn import batch_input, build_network\n"
            "planes = np.random.default_rng(0).standard_normal((40, 2, 64, 100))\n"
            "for name in ('1D-A', '1D-B', '1D-C', '1D-D'):\n"
            "    net = build_network(name, (128, 100), seed=0)\n"
            "    logits = net.forward(batch_input(planes, 1), train=False)\n"
            "    print(name, hashlib.sha256(logits.tobytes()).hexdigest())\n")
        hashes = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(layers.__file__).parents[2]))
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            hashes.append(proc.stdout)
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("cls, spatial", [(Conv1d, (8,)), (Conv2d, (4, 6))])
    def test_holds_only_its_input(self, cls, spatial):
        conv = cls(2, 5, 3, rng=0)
        x = np.random.default_rng(0).standard_normal((3, 2) + spatial)
        conv.forward(x, train=False)
        assert conv._x is None
        y = conv.forward(x, train=True)
        held = [v for v in vars(conv).values() if isinstance(v, np.ndarray)]
        assert len(held) == 1 and held[0] is x
        conv.backward(np.ones_like(y))
        assert not [v for v in vars(conv).values() if isinstance(v, np.ndarray)]


class TestGradients:
    def test_conv1d_exhaustive(self):
        rng = np.random.default_rng(10)
        err = check_layer_gradients(Conv1d(3, 4, 3, rng=0), rng.standard_normal((2, 3, 6)), rng=1)
        assert err < 1e-5

    def test_conv2d_exhaustive(self):
        rng = np.random.default_rng(11)
        err = check_layer_gradients(Conv2d(2, 3, 3, rng=0), rng.standard_normal((2, 2, 4, 5)), rng=1)
        assert err < 1e-5

    def test_batchnorm_exhaustive(self):
        rng = np.random.default_rng(12)
        err = check_layer_gradients(BatchNorm(3), 2.0 * rng.standard_normal((4, 3, 5)) + 1.0, rng=1)
        assert err < 1e-5

    def test_relu_input_gradient(self):
        rng = np.random.default_rng(13)
        err = check_layer_gradients(ReLU(), rng.standard_normal((3, 2, 7)) + 0.2, rng=1)
        assert err < 1e-5

    def test_pool_and_dense(self):
        rng = np.random.default_rng(14)
        assert check_layer_gradients(GlobalAvgPool(), rng.standard_normal((3, 4, 6)), rng=1) < 1e-5
        assert check_layer_gradients(Dense(5, 2, rng=0), rng.standard_normal((4, 5)), rng=1) < 1e-5

    def test_residual_block_with_projection(self):
        rng = np.random.default_rng(15)
        block = ResidualBlock(dim=1, c_in=2, c_out=4, kernel=3, rng=0)
        err = check_layer_gradients(block, rng.standard_normal((3, 2, 5)), rng=1)
        assert err < 1e-5

    def test_small_networks_directional(self):
        rng = np.random.default_rng(16)
        net1 = build_network("1D-E", (4, 7), seed=1)
        err1 = check_network_gradient(net1, rng.standard_normal((3, 4, 7)),
                                      np.array([1.0, 0.0, 1.0]), rng=2)
        net2 = build_network("2D-E", (2, 5, 6), seed=1)
        err2 = check_network_gradient(net2, rng.standard_normal((3, 2, 5, 6)),
                                      np.array([0.0, 1.0, 1.0]), rng=3)
        assert err1 < 1e-5 and err2 < 1e-5

    def test_network_check_restores_running_stats(self):
        rng = np.random.default_rng(17)
        net = build_network("2D-E", (2, 5, 6), seed=1)
        before = [arr.copy() for _, arr in net.named_state()]
        check_network_gradient(net, rng.standard_normal((3, 2, 5, 6)),
                               np.array([0.0, 1.0, 1.0]), rng=3)
        for (name, arr), old in zip(net.named_state(), before):
            np.testing.assert_array_equal(arr, old, err_msg=name)

    def test_dead_path_gradient_exactly_zero(self):
        relu = ReLU()
        dense = Dense(4, 1, rng=0)
        x = -np.abs(np.random.default_rng(17).standard_normal((3, 4))) - 0.1
        y = dense.forward(relu.forward(x, train=True), train=True)
        dense.weight.zero_grad()
        relu.backward(dense.backward(np.ones_like(y)))
        assert np.array_equal(dense.weight.grad, np.zeros_like(dense.weight.grad))


def separable_batches(rng_seed=0, n=32):
    rng = np.random.default_rng(rng_seed)
    half = n // 2
    x = np.concatenate([
        rng.standard_normal((half, 2, 8)) + 1.5,
        rng.standard_normal((half, 2, 8)) - 1.5,
    ])
    y = np.concatenate([np.ones(half), np.zeros(half)])
    return x, y


class TestTraining:
    def make_net(self, seed=0):
        variant = ArchitectureVariant("tiny", 1, 4, 1, 1)
        return build_network(variant, (2, 8), seed=seed)

    def test_separable_clusters_reach_auc_one(self):
        from uwbocc.evaluate import roc_auc

        x, y = separable_batches()
        net = self.make_net()

        def scorer(network):
            return roc_auc(network.forward(x, train=False), y)

        history = train_network(net, lambda epoch: [(x, y)], scorer,
                                OptimizerConfig(learning_rate=1e-2), patience=50, max_epochs=50)
        assert history.best_val_auc == 1.0
        assert len(history.val_auc) <= 50

    def test_patience_zero_stops_after_first_flat_epoch(self):
        x, y = separable_batches()
        net = self.make_net()
        history = train_network(net, lambda epoch: [(x, y)], lambda network: 0.5,
                                OptimizerConfig(), patience=0, max_epochs=50)
        assert history.stopped_early
        assert len(history.val_auc) == 2  # first sets the best, second stops

    def test_same_seed_identical_trajectories(self):
        x, y = separable_batches()
        nets = [self.make_net(seed=9), self.make_net(seed=9)]
        for net in nets:
            train_network(net, lambda epoch: [(x, y)], lambda network: 0.5,
                          OptimizerConfig(), patience=2, max_epochs=5)
        for (_, a), (_, b) in zip(nets[0].named_state(), nets[1].named_state()):
            assert np.array_equal(a, b)

    def test_non_finite_input_raises_divergence(self):
        x, y = separable_batches()
        x = x.copy()
        x[0, 0, 0] = np.inf
        net = self.make_net()
        with pytest.raises(DivergenceError):
            train_network(net, lambda epoch: [(x, y)], lambda network: 0.5,
                          OptimizerConfig(), patience=1, max_epochs=2)

    @pytest.mark.parametrize("patience, max_epochs", [(-1, 5), (2, 0)])
    def test_stopping_bounds_checked_before_any_step(self, patience, max_epochs):
        x, y = separable_batches()
        net = self.make_net()
        before = [arr.copy() for _, arr in net.named_state()]
        drawn = []
        with pytest.raises(ConfigError, match=r"patience must be >= 0 and max_epochs >= 1"):
            train_network(net, lambda epoch: drawn.append(epoch) or [(x, y)],
                          lambda network: 0.5, OptimizerConfig(),
                          patience=patience, max_epochs=max_epochs)
        assert drawn == []
        assert all(np.array_equal(a, b) for a, (_, b) in zip(before, net.named_state()))

    def test_adam_moves_toward_minimum(self):
        from uwbocc.nn.layers import Param

        p = Param("w", np.array([10.0]))
        opt = AdamOptimizer([p], OptimizerConfig(learning_rate=0.5))
        for _ in range(200):
            p.zero_grad()
            p.grad[...] = 2 * p.value  # d/dw of w^2
            opt.step()
        assert abs(p.value[0]) < 1e-2


def leaf_layers(network):
    return [sub for layer in network.layers
            for sub in (layer.sublayers() if isinstance(layer, ResidualBlock) else [layer])]


def spy(layer, method, seen):
    """Record the dtype of every array the layer's method returns."""
    bound = getattr(layer, method)

    def wrapper(*args):
        out = bound(*args)
        seen.append((type(layer).__name__, method, out.dtype))
        return out

    setattr(layer, method, wrapper)


def small_batch(name, dtype):
    shape = (8, 12) if VARIANTS[name].dimensionality == 1 else (2, 6, 8)
    batch = np.random.default_rng(30).standard_normal((6,) + shape)
    return shape, batch.astype(dtype), (np.arange(6) % 2).astype(float)


def adam_steps(name):
    """named_state bytes after three float32 Adam steps on the variant's small batch."""
    shape, batch, labels = small_batch(name, np.float32)
    net = build_network(name, shape, seed=0)
    optimizer = AdamOptimizer(net.params(), OptimizerConfig())
    for _ in range(3):
        net.zero_grads()
        net.backward(bce_with_logits(net.forward(batch, train=True), labels)[1])
        optimizer.step()
    return [arr.tobytes() for _, arr in net.named_state()]


class TestComputeDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_activations_follow_the_batch_and_state_stays_float64(self, name, dtype):
        shape, batch, labels = small_batch(name, dtype)
        net = build_network(name, shape, seed=0)
        seen = []
        for layer in leaf_layers(net):
            spy(layer, "forward", seen)
            spy(layer, "backward", seen)
        optimizer = AdamOptimizer(net.params(), OptimizerConfig())
        logits = net.forward(batch, train=True)
        assert net.backward(bce_with_logits(logits, labels)[1]) is None
        optimizer.step()
        # Every leaf's forward, and every leaf's backward but the stem
        # convolution's: nothing reads the gradient of the input batch.
        assert len(seen) == 2 * len(leaf_layers(net)) - 1
        assert net.layers[0]._x is None
        assert logits.dtype == dtype
        assert {d for *_, d in seen} == {np.dtype(dtype)}, seen
        held = ([p.grad for p in net.params()] + optimizer._m + optimizer._v
                + [arr for _, arr in net.named_state()])
        assert {a.dtype for a in held} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_float32_gradients_match_float64(self, name):
        grads = []
        for dtype in (np.float32, np.float64):
            shape, batch, labels = small_batch(name, dtype)
            net = build_network(name, shape, seed=0)
            net.backward(bce_with_logits(net.forward(batch, train=True), labels)[1])
            grads.append([p.grad for p in net.params()])
        for g32, g64 in zip(*grads):
            assert np.linalg.norm(g32 - g64) <= 1e-4 * np.linalg.norm(g64)


class TestCheckpoints:
    def test_round_trip_preserves_inference(self, tmp_path):
        net = build_network("1D-E", (4, 12), seed=2)
        rng = np.random.default_rng(20)
        batch = rng.standard_normal((3, 4, 12))
        # push the batch stats away from their init so state matters
        net.forward(batch, train=True)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, path, extra={"note": "test", "val_auc": 0.9})
        loaded, extra = load_checkpoint(path)
        assert extra == {"note": "test", "val_auc": 0.9}
        a = net.forward(batch, train=False)
        b = loaded.forward(batch, train=False)
        assert np.abs(a - b).max() < 1e-4  # float32 storage
        loaded2, _ = load_checkpoint(path)
        assert np.array_equal(b, loaded2.forward(batch, train=False))

    def test_save_is_deterministic(self, tmp_path):
        net = build_network("2D-E", (2, 6, 7), seed=3)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, p1)
        save_checkpoint(net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_network("1D-E", (2, 8), seed=0), path)
        previous = path.read_bytes()

        class Unwritable:  # fails once the header and the first arrays are written
            shape = (2,)

            def __array__(self, dtype=None, copy=None):
                raise OSError("disk full")

        net = build_network("1D-E", (2, 8), seed=1)
        entries = net.named_state()
        monkeypatch.setattr(net, "named_state", lambda: entries + [("late", Unwritable())])
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(net, path)
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(build_network("1D-E", (2, 8), seed=0), path)
        path.write_bytes(path.read_bytes() + b"\0" * 6)
        with pytest.raises(DataError, match="6 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [{"input_shape": ["x", 8]}, {"input_shape": [[1], 8]},
                                      {"input_shape": [2.0, 8]}, {"kernel": "x"}])
    def test_header_counts_must_be_integers(self, tmp_path, edit):
        # A string or list input channel count times a kernel of 10**6 + 1
        # taps would be repeated into an 8 * 10**6-element object, not multiplied.
        path = tmp_path / "edited.ckpt"
        save_checkpoint(build_network("1D-E", (2, 8), seed=0), path)
        blob = path.read_bytes()
        (size,) = struct.unpack("<I", blob[4:8])
        header = json.loads(blob[8:8 + size])
        header.update(kernel=10**6 + 1)
        header.update(edit)
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + size:])
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="malformed header"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_truncated_payload(self, tmp_path):
        net = build_network("1D-E", (2, 8), seed=0)
        path = tmp_path / "t.ckpt"
        save_checkpoint(net, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(DataError, match="truncat"):
            load_checkpoint(path)

    @settings(max_examples=40, deadline=None)
    @given(variant=st.sampled_from(list(VARIANTS.values()))
           | st.builds(ArchitectureVariant, st.just("custom"), st.sampled_from([1, 2]),
                       st.integers(1, 4), st.integers(1, 2), st.integers(1, 3)),
           kernel=st.sampled_from([1, 3]), c_in=st.integers(1, 3), seed=st.integers(0, 2**32),
           extra=st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=6),
                                 max_size=3))
    def test_round_trip_of_generated_networks(self, variant, kernel, c_in, seed, extra):
        net = build_network(variant, (c_in,) + (5,) * variant.dimensionality,
                            kernel=kernel, seed=seed)
        rng = np.random.default_rng(seed)
        for _, arr in net.named_state():  # running statistics included
            arr[...] = rng.standard_normal(arr.shape) * 10.0 ** rng.integers(-3, 4)
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(net, Path(tmp) / "net.ckpt", extra=extra)
            loaded, loaded_extra = load_checkpoint(Path(tmp) / "net.ckpt")
        assert (loaded.variant, loaded.input_shape, loaded.kernel, loaded.seed) == (
            variant, net.input_shape, kernel, seed)
        assert loaded_extra == extra
        assert [name for name, _ in loaded.named_state()] == [name for name, _ in net.named_state()]
        for (_, back), (_, original) in zip(loaded.named_state(), net.named_state()):
            assert np.array_equal(back, original.astype(np.float32).astype(np.float64))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_replaced_header_byte_loads_or_raises_data_error(self, data):
        # A garbled header must be rejected before it sizes any allocation.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flipped.ckpt"
            save_checkpoint(build_network("1D-E", (2, 8), seed=1), path,
                            extra={"reference_energy": 0.5})
            blob = path.read_bytes()
            at = data.draw(st.integers(0, 8 + int.from_bytes(blob[4:8], "little") - 1))
            path.write_bytes(blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:])
            try:
                load_checkpoint(path)
            except DataError:
                pass

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_cut_at_any_byte_raises_data_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cut.ckpt"
            save_checkpoint(build_network("1D-E", (2, 8), seed=0), path)
            blob = path.read_bytes()
            # The header is the first ~2 kB; cuts there are drawn as often as payload cuts.
            cut = data.draw(st.integers(0, min(2048, len(blob) - 1))
                            | st.integers(0, len(blob) - 1))
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                load_checkpoint(path)
