"""Hand-checked cases for the benchmark's float64 reference forward."""

import numpy as np
import pytest

import reference as ref


def test_conv1d_taps_stride_and_channels():
    x = np.array([[1.0, 2, 3, 4, 5]])
    w = np.array([[[1.0, 0, -1]]])
    b = np.array([0.5])
    np.testing.assert_array_equal(ref.conv1d(x, w, b, 1), [[-1.5, -1.5, -1.5]])
    np.testing.assert_array_equal(ref.conv1d(x, w, b, 2), [[-1.5, -1.5]])
    # out[t] = x0[t] + x0[t+1] + x1[t+1]
    x2 = np.array([[1.0, 2, 3], [10, 20, 30]])
    w2 = np.array([[[1.0, 1], [0, 1]]])
    np.testing.assert_array_equal(ref.conv1d(x2, w2, np.zeros(1), 1), [[23, 35]])


def test_conv2d_zero_padding_counts_neighbours():
    ones = np.ones((1, 3, 3))
    out = ref.conv2d(ones, np.ones((1, 1, 3, 3)), np.array([1.0]))
    np.testing.assert_array_equal(out[0], [[5, 7, 5], [7, 10, 7], [5, 7, 5]])
    delta = np.zeros((2, 1, 3, 3))
    delta[0, 0, 1, 1] = 1.0   # identity
    delta[1, 0, 0, 0] = 2.0   # twice the up-left neighbour
    x = np.arange(1.0, 7.0).reshape(1, 2, 3)
    out = ref.conv2d(x, delta, np.zeros(2))
    np.testing.assert_array_equal(out[0], x[0])
    np.testing.assert_array_equal(out[1], [[0, 0, 0], [0, 2, 4]])


def test_maxpool2d_drops_partial_tiles():
    x = np.arange(1.0, 16.0).reshape(1, 3, 5)
    np.testing.assert_array_equal(ref.maxpool2d(x, (2, 2)), [[[7, 9]]])


def test_adaptive_maxpool_bins():
    # bins of 7 into 3: [0, 2), [2, 4), [4, 7)
    x = np.array([3.0, 1, 4, 1, 5, 9, 2])
    np.testing.assert_array_equal(ref.adaptive_maxpool(x, 3, axis=0), [3, 4, 9])
    np.testing.assert_array_equal(
        ref.adaptive_maxpool(np.stack([x, -x]), 3, axis=1), [[3, 4, 9], [-1, -1, -2]])


def test_softmax_and_cross_entropy():
    np.testing.assert_allclose(ref.softmax(np.array([0.0, np.log(3.0)])), [0.25, 0.75])
    assert ref.cross_entropy(np.array([0.0, 0.0]), 1) == pytest.approx(np.log(2.0))
    assert ref.cross_entropy(np.array([1000.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n, window, hop, starts", [
    (10, 4, 2, [0, 2, 4, 6]),      # regular windows reach the end
    (9, 4, 2, [0, 2, 5]),          # tail window anchored at n - window
    (3, 4, 2, [0]),                # a short clip is padded to one window
    (220500, 66150, 33075, [0, 33075, 66150, 99225, 154350]),  # 5 s at 44.1 kHz
])
def test_vote_starts(n, window, hop, starts):
    assert ref.vote_starts(n, window, hop) == starts


def test_forward_matches_double_precision_model():
    wavems = pytest.importorskip("wavems")
    from wavems.model import BranchSpec, ModelConfig
    cfg = ModelConfig(
        branches=(BranchSpec(7, 1, 4), BranchSpec(11, 2, 4), BranchSpec(15, 3, 4)),
        frontend_time_bins=20, conv_channels=(4, 8, 8, 8),
        level_pool_windows=((2, 2), (2, 2), (1, 2), (1, 1)), level_pool_target=(2, 2),
        last_n_levels=3, fc_hidden=16, num_classes=3, window_length=300,
        sample_rate=4410)
    model = wavems.build_model(cfg, seed=5, precision="double")
    for p in model.parameters():  # non-zero biases, so they are checked too
        p.value.data += 0.01
    params = {name: p.value.data for name, p in model.named_parameters()}
    wave = np.random.default_rng(0).uniform(-1, 1, cfg.window_length)
    with wavems.no_grad():
        want = model.forward(wave).data
    np.testing.assert_allclose(ref.forward(cfg, params, wave), want, rtol=1e-10, atol=1e-12)
