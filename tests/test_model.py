"""Architecture construction, shape contracts, variants, and end-to-end gradients."""

import math
import tracemalloc

import numpy as np
import pytest

from wavems import ops
from wavems.errors import ConfigError, ShapeError
from wavems.model import (BranchSpec, ModelConfig, build_model, full_scale_config,
                          param_count, single_branch_variant)
from wavems.tensor import Tensor, backward

from conftest import desk_model_config, graph_nodes, tiny_model_config
from gradcheck import assert_rel_close


class TestConfigArithmetic:
    def test_full_scale_prepool_lengths(self):
        assert full_scale_config().branch_prepool_lengths() == [66138, 13218, 6603]

    def test_full_scale_frontend_shape(self):
        assert full_scale_config().frontend_shape() == (1, 96, 441)

    def test_full_scale_level_maps(self):
        assert full_scale_config().level_map_shapes() == [
            (64, 48, 220), (128, 24, 110), (256, 12, 55), (256, 6, 27)]

    @pytest.mark.parametrize("last_n,dim", [(1, 5120), (2, 10240), (3, 12800), (4, 14080)])
    def test_fc_input_dims(self, last_n, dim):
        cfg = ModelConfig(last_n_levels=last_n)
        assert cfg.fc_input_dim() == dim

    def test_branch_invariants(self):
        with pytest.raises(ConfigError):
            BranchSpec(3, 5, 8).validate()  # stride > filter_len
        with pytest.raises(ConfigError):
            BranchSpec(3, 1, 0).validate()

    def test_last_n_bounds(self):
        with pytest.raises(ConfigError):
            ModelConfig(last_n_levels=5)
        with pytest.raises(ConfigError):
            ModelConfig(last_n_levels=0)

    def test_prepool_shorter_than_bins_rejected(self):
        with pytest.raises(ConfigError):
            tiny_model_config(window_length=30)

    def test_param_count_spreadsheet(self):
        # independent per-layer arithmetic for the full-scale configuration
        cfg = full_scale_config()
        expected = 0
        for nf, k in ((32, 11), (32, 51), (32, 101)):
            expected += nf * 1 * k + nf          # branch conv
            expected += nf * nf * 3 + nf         # phase conv
        prev = 1
        for ch in (64, 128, 256, 256):
            expected += ch * prev * 9 + ch
            prev = ch
        expected += 512 * 14080 + 512            # fc1 (last_n = 4)
        expected += 50 * 512 + 50                # fc2
        assert param_count(cfg) == expected

    def test_param_count_examples(self):
        shapes = dict(full_scale_config().parameter_shapes())
        assert int(np.prod(shapes["branch1.conv.weight"])) + \
            int(np.prod(shapes["branch1.conv.bias"])) == 384
        assert int(np.prod(shapes["conv1.weight"])) + \
            int(np.prod(shapes["conv1.bias"])) == 640


class TestBuild:
    def test_same_seed_identical(self):
        cfg = tiny_model_config()
        m1 = build_model(cfg, seed=7)
        m2 = build_model(cfg, seed=7)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(p1.value.data, p2.value.data)

    def test_different_seed_differs(self):
        cfg = tiny_model_config()
        m1, m2 = build_model(cfg, seed=1), build_model(cfg, seed=2)
        assert not np.array_equal(m1.param("conv1.weight").value.data,
                                  m2.param("conv1.weight").value.data)

    def test_bias_zero_and_exempt(self):
        model = build_model(tiny_model_config(), seed=0)
        for name, p in model.named_parameters():
            if name.endswith(".bias"):
                assert p.decay_exempt
                assert not p.value.data.any()
            else:
                assert not p.decay_exempt

    def test_uniform_bounds_match_fan_in(self):
        model = build_model(tiny_model_config(), seed=3)
        for name, p in model.named_parameters():
            if name.endswith(".weight"):
                fan_in = int(np.prod(p.value.shape[1:]))
                bound = np.sqrt(6.0 / fan_in)
                assert np.abs(p.value.data).max() <= bound

    def test_branch_weight_shape(self):
        model = build_model(full_scale_config(), seed=0)
        assert model.param("branch1.conv.weight").value.shape == (32, 1, 11)
        assert model.param("branch1.conv.bias").value.shape == (32,)

    def test_velocities_zero(self):
        model = build_model(tiny_model_config(), seed=0)
        for p in model.parameters():
            assert not p.velocity.any()
            assert p.velocity.shape == p.value.shape


class TestForward:
    def test_tiny_shape_chain(self, rng):
        cfg = tiny_model_config()
        model = build_model(cfg, seed=0)
        wave = rng.standard_normal(cfg.window_length).astype(np.float32)
        feat = model.forward_frontend(wave)
        assert feat.shape == cfg.frontend_shape()
        logits, level_maps = model.forward_backend(feat)
        assert logits.shape == (cfg.num_classes,)
        assert [m.shape for m in level_maps] == cfg.level_map_shapes()

    def test_wave_length_mismatch(self):
        model = build_model(tiny_model_config(), seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros(123, dtype=np.float32))

    def test_zero_wave_gives_uniform_probabilities(self):
        cfg = tiny_model_config()
        model = build_model(cfg, seed=0)
        logits = model.forward(np.zeros(cfg.window_length, dtype=np.float32))
        assert not logits.data.any()
        probs = model.predict_proba(np.zeros(cfg.window_length, dtype=np.float32))
        assert np.allclose(probs, 1.0 / cfg.num_classes)

    def test_forward_is_pure_and_deterministic(self, rng):
        cfg = tiny_model_config()
        model = build_model(cfg, seed=5)
        wave = rng.standard_normal(cfg.window_length).astype(np.float32)
        before = {n: p.value.data.copy() for n, p in model.named_parameters()}
        l1 = model.forward(wave)
        l2 = model.forward(wave)
        assert np.array_equal(l1.data, l2.data)
        for n, p in model.named_parameters():
            assert np.array_equal(before[n], p.value.data)

    def test_probabilities_sum_to_one(self, rng):
        cfg = tiny_model_config()
        model = build_model(cfg, seed=1)
        probs = model.predict_proba(rng.standard_normal(cfg.window_length).astype(np.float32))
        assert abs(probs.sum() - 1.0) < 1e-6

    def test_level_maps_identical_across_last_n(self, rng):
        wave = None
        maps = {}
        for last_n in (1, 4):
            cfg = tiny_model_config(last_n_levels=last_n)
            model = build_model(cfg, seed=9)
            if wave is None:
                wave = np.random.default_rng(0).standard_normal(
                    cfg.window_length).astype(np.float32)
            _, level_maps = model.forward_backend(model.forward_frontend(wave))
            maps[last_n] = [m.data.copy() for m in level_maps]
        for a, b in zip(maps[1], maps[4]):
            assert np.array_equal(a, b)

    def test_fc_dim_is_only_difference_across_last_n(self):
        dims = {n: tiny_model_config(last_n_levels=n).fc_input_dim() for n in (1, 2, 3, 4)}
        ch = tiny_model_config().conv_channels
        th, tw = tiny_model_config().level_pool_target
        assert dims[1] == ch[-1] * th * tw
        assert dims[4] == sum(ch) * th * tw

    def test_branch_relu_flag_changes_frontend(self, rng):
        wave = rng.standard_normal(300).astype(np.float32)
        with_relu = build_model(tiny_model_config(), seed=4).forward_frontend(wave)
        without = build_model(tiny_model_config(relu_after_branch_conv=False),
                              seed=4).forward_frontend(wave)
        assert with_relu.shape == without.shape
        assert not np.array_equal(with_relu.data, without.data)


class TestSingleBranchVariant:
    def test_low_variant(self):
        cfg = single_branch_variant(full_scale_config(), "low")
        assert cfg.branches == (BranchSpec(11, 1, 96),)
        assert cfg.frontend_shape() == (1, 96, 441)

    def test_middle_variant(self):
        cfg = single_branch_variant(full_scale_config(), "middle")
        assert cfg.branches == (BranchSpec(51, 5, 96),)

    def test_high_variant(self):
        cfg = single_branch_variant(full_scale_config(), "high")
        assert cfg.branches == (BranchSpec(101, 10, 96),)

    def test_all_variants_share_frontend_shape(self):
        base = full_scale_config()
        for which in ("low", "middle", "high"):
            assert single_branch_variant(base, which).frontend_shape() == base.frontend_shape()

    def test_backend_weights_shape_compatible(self):
        base = tiny_model_config()
        variant = single_branch_variant(base, "middle")
        mb = build_model(base, seed=0)
        mv = build_model(variant, seed=0)
        for l in range(1, 5):
            assert mb.param(f"conv{l}.weight").value.shape == \
                mv.param(f"conv{l}.weight").value.shape

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            single_branch_variant(full_scale_config(), "other")


class TestEndToEndGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences_on_tiny_config(self, seed):
        cfg = tiny_model_config()
        model = build_model(cfg, seed=seed, precision="double")
        rng = np.random.default_rng(100 + seed)
        wave = rng.uniform(-1, 1, size=cfg.window_length)
        label = int(rng.integers(0, cfg.num_classes))

        loss = ops.softmax_cross_entropy(model.forward(wave), label)
        backward(loss)

        def loss_value():
            return ops.softmax_cross_entropy(model.forward(wave), label).item()

        h = 1e-6
        for name, p in model.named_parameters():
            flat = p.value.data.ravel()
            gflat = p.value.grad.ravel()
            coords = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in coords:
                orig = flat[i]
                flat[i] = orig + h
                fp = loss_value()
                flat[i] = orig - h
                fm = loss_value()
                flat[i] = orig
                assert_rel_close(gflat[i], (fp - fm) / (2 * h), tol=1e-4)

    def test_input_gradient_matches(self):
        cfg = tiny_model_config()
        model = build_model(cfg, seed=2, precision="double")
        rng = np.random.default_rng(7)
        wave = Tensor(rng.uniform(-1, 1, size=(1, cfg.window_length)), requires_grad=True)
        loss = ops.softmax_cross_entropy(model.forward(wave), 1)
        backward(loss)
        h = 1e-6
        flat = wave.data.ravel()
        coords = rng.choice(flat.size, size=8, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            fp = ops.softmax_cross_entropy(model.forward(wave), 1).item()
            flat[i] = orig - h
            fm = ops.softmax_cross_entropy(model.forward(wave), 1).item()
            flat[i] = orig
            assert_rel_close(wave.grad.ravel()[i], (fp - fm) / (2 * h), tol=1e-4)


def recorded_window_bytes(cfg, gemm, warm_up=True):
    """Bytes that one recorded forward of a window holds under tracemalloc."""
    model = build_model(cfg, seed=0)
    wave = np.random.default_rng(0).standard_normal(cfg.window_length).astype(np.float32)
    with ops.gemm_kernels(gemm):
        if warm_up:
            model.forward(wave)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            logits = model.forward(wave)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    assert logits.requires_grad
    return held


class TestPooledGraphMemory:
    """Every phase and level conv pools inside its node, which keeps the
    pooled map and a first-hit index but not the conv output; the front end
    keeps nothing of a branch conv's map, and the head keeps its features
    and one winner each."""

    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    def test_desk_window_holds_pooled_maps_and_indices(self, gemm):
        """A desk window holds the stacked phase maps, the pooled level
        maps, the head's features and the fc layers' outputs, one uint8
        index entry per pooled bin and one winner per feature, a quarter on
        top for the Python objects, and 512 B for each of its 9 node
        objects; it holds 0.92x of that. Pool plans are shared and built
        before the count, so a window holds none: a second copy of the
        stacked phase maps, the head's stage-1 maps, plans kept per node,
        branch 1's conv map, the phase or level conv outputs kept beside
        their pooled maps, or a ReLU output kept beside any of them would
        break the bound."""
        cfg = desk_model_config()
        held = recorded_window_bytes(cfg, gemm)

        frontend = cfg.frontend_rows * cfg.frontend_time_bins
        maps = cfg.level_map_shapes()
        th, tw = cfg.level_pool_target
        winners = sum(maps[i][0] * th * tw * np.min_scalar_type(math.prod(maps[i])).itemsize
                      for i in cfg.selected_levels())
        levels = sum(c * h * w for c, h, w in maps)
        values = frontend + levels + cfg.fc_input_dim() + 2 * cfg.fc_hidden + cfg.num_classes
        bins = frontend + levels
        bound = 1.25 * (values * np.dtype(np.float32).itemsize + bins + winners) + 9 * 512
        assert held < bound, f"window graph holds {held} bytes, bound {bound:.0f}"

    def test_full_scale_window_under_8_mib(self):
        held = recorded_window_bytes(full_scale_config(5), gemm=True, warm_up=False)
        assert held <= 8 * 2 ** 20, f"window graph holds {held / 2 ** 20:.2f} MiB"

    def test_desk_window_has_9_nodes(self):
        """The front end, the four level convs, the head's features, then
        ``fc1``, its ReLU and ``fc2``: no branch, stack or pool node."""
        model = build_model(desk_model_config(), seed=0)
        logits = model.forward(np.zeros(model.config.window_length, np.float32))
        assert graph_nodes(logits) == 9
