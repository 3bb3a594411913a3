"""GEMM convolution kernels: gradients, agreement with the reference
kernels, the scope of the switch, and how callers select them."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from wavems import cli, ops
from wavems.audio import encode_wav_pcm16
from wavems.checkpoint import Checkpoint, save_checkpoint
from wavems.datasets import dump_manifest
from wavems.model import build_model
from wavems.tensor import Tensor, backward
from wavems.training import train, train_epoch

from conftest import desk_model_config, tiny_model_config
from gradcheck import check_op_gradients, weighted_sum
from oracles import conv1d_grad_oracle, conv2d_grad_oracle, conv2d_oracle
from test_training import micro_corpus, micro_train_config


def rel_err(got, want) -> float:
    """Largest |got - want| over the largest |want|."""
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(np.asarray(got, dtype=np.float64) - want).max()
                 / max(np.abs(want).max(), 1e-30))


def chunk_count(rows, fout, depth, per_row=1):
    """Blocks the kernels split ``rows`` output rows of ``per_row``
    positions into, and whether the last is short: each block's (depth, n)
    columns and (F, n) product hold at most ``ops._COLUMN_BUDGET``
    elements, and at least one row."""
    step = min(rows, max(1, ops._COLUMN_BUDGET // (max(depth, fout) * per_row)))
    return -(-rows // step), rows % step != 0


@pytest.fixture
def column_budget(monkeypatch):
    """``column_budget(n)`` sets the elements a block may hold to ``n``, so
    small layers split into several blocks."""
    return lambda n: monkeypatch.setattr(ops, "_COLUMN_BUDGET", n)


@pytest.fixture
def forward_chunks(monkeypatch):
    """Count the GEMM forward's matmuls: one per block of a convolution."""
    calls = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def conv1d_case(rng, dtype, stride, cin=None, fout=None, k=None, length=None):
    cin = cin or int(rng.integers(1, 5))
    fout = fout or int(rng.integers(1, 5))
    k = k or int(rng.integers(1, 12))
    length = length or k + int(rng.integers(0, 120))
    arrays = [rng.standard_normal(s).astype(dtype)
              for s in ((cin, length), (fout, cin, k), (fout,))]
    return (lambda x, w, b: ops.conv1d(x, w, b, stride=stride)), arrays


def conv2d_case(rng, dtype, cin=None, fout=None, h=None, w=None):
    cin = cin or int(rng.integers(1, 5))
    fout = fout or int(rng.integers(1, 5))
    h = h or int(rng.integers(1, 12))
    w = w or int(rng.integers(1, 12))
    arrays = [rng.standard_normal(s).astype(dtype)
              for s in ((cin, h, w), (fout, cin, 3, 3), (fout,))]
    return ops.conv2d, arrays


def run_op(op, arrays, r, gemm):
    """Output and input gradients of sum(op(...) * r) on the chosen kernels."""
    inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with ops.gemm_kernels(gemm):
        out = op(*inputs)
        backward(weighted_sum(out, r))
    return [out.data] + [t.grad for t in inputs]


def assert_agrees(op, arrays, seed):
    dtype = arrays[0].dtype
    tol = 1e-5 if dtype == np.float32 else 1e-12
    with ops.gemm_kernels(False):
        shape = op(*[Tensor(a) for a in arrays]).shape
    r = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    ref = run_op(op, arrays, r, gemm=False)
    fast = run_op(op, arrays, r, gemm=True)
    for name, got, want in zip(("out", "x", "weight", "bias"), fast, ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert rel_err(got, want) <= tol, f"{name}: {rel_err(got, want):.3g} > {tol:g}"


class TestGradients:
    @pytest.mark.parametrize("stride", [1, 5, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_conv1d(self, seed, stride):
        rng = np.random.default_rng(3000 + seed)
        cin, fout, k = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 7))
        length = k + int(rng.integers(0, 3 * stride + 4))
        x = Tensor(rng.standard_normal((cin, length)), requires_grad=True)
        w = Tensor(rng.standard_normal((fout, cin, k)), requires_grad=True)
        b = Tensor(rng.standard_normal(fout), requires_grad=True)
        with ops.gemm_kernels():
            check_op_gradients(lambda: ops.conv1d(x, w, b, stride=stride), [x, w, b], seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_conv2d(self, seed):
        rng = np.random.default_rng(4000 + seed)
        cin, fout = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        h, wd = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = Tensor(rng.standard_normal((cin, h, wd)), requires_grad=True)
        w = Tensor(rng.standard_normal((fout, cin, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(fout), requires_grad=True)
        with ops.gemm_kernels():
            check_op_gradients(lambda: ops.conv2d(x, w, b), [x, w, b], seed)

    def test_several_chunks(self, column_budget):
        rng = np.random.default_rng(5)
        column_budget(24)
        # conv1d: 15 outputs, depth 3*4 = 12, fout 2 -> 2 outputs per block
        x = Tensor(rng.standard_normal((3, 18)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        assert chunk_count(15, 2, 12) == (8, True)
        with ops.gemm_kernels():
            check_op_gradients(lambda: ops.conv1d(x, w, b), [x, w, b], 6)
        # conv2d: 4 rows, depth 9*3 = 27, fout 2 -> 1 row per block
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        assert chunk_count(4, 2, 27) == (4, False)
        with ops.gemm_kernels():
            check_op_gradients(lambda: ops.conv2d(x, w, b), [x, w, b], 7)


class TestAgreement:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 5, 10])
    @pytest.mark.parametrize("seed", range(5))
    def test_conv1d_random(self, seed, stride, dtype):
        rng = np.random.default_rng(100 * seed + stride)
        op, arrays = conv1d_case(rng, dtype, stride)
        assert_agrees(op, arrays, seed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(5))
    def test_conv2d_random(self, seed, dtype):
        rng = np.random.default_rng(200 + seed)
        op, arrays = conv2d_case(rng, dtype)
        assert_agrees(op, arrays, seed)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,cin,fout,k,length,chunks", [  # a budget of 600
        (1, 4, 2, 11, 300, 23),   # 290 outputs, 13 per block
        (5, 3, 4, 51, 700, 44),   # 130 outputs, 3 per block
        (10, 2, 3, 101, 1510, 71),  # 141 outputs, 2 per block
    ])
    def test_conv1d_ragged_chunks(self, stride, cin, fout, k, length, chunks, dtype,
                                  column_budget):
        column_budget(600)
        lout = (length - k) // stride + 1
        assert chunk_count(lout, fout, cin * k) == (chunks, True)
        op, arrays = conv1d_case(np.random.default_rng(chunks), dtype, stride,
                                 cin=cin, fout=fout, k=k, length=length)
        assert_agrees(op, arrays, chunks)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,fout,h,w,chunks", [  # a budget of 1800
        (4, 8, 23, 9, 5),   # 5 rows per block
        (16, 8, 37, 5, 19),  # 2 rows per block
    ])
    def test_conv2d_ragged_chunks(self, cin, fout, h, w, chunks, dtype, column_budget):
        column_budget(1800)
        assert chunk_count(h, fout, cin * 9, per_row=w) == (chunks, True)
        op, arrays = conv2d_case(np.random.default_rng(h), dtype, cin=cin, fout=fout, h=h, w=w)
        assert_agrees(op, arrays, h)

    @pytest.mark.parametrize("conv", ["conv1d", "conv2d"])
    def test_columns_past_the_budget_split(self, conv, forward_chunks):
        """Columns larger than the budget split in blocks, at the default
        budget."""
        rng = np.random.default_rng(17)
        if conv == "conv1d":  # 6000 outputs of depth 202: 2595 per block
            assert chunk_count(6000, 3, 2 * 101) == (3, True)
            op, arrays = conv1d_case(rng, np.float32, 10, cin=2, fout=3, k=101,
                                     length=59990 + 101)
        else:  # 40 rows of 60 at depth 576: 15 rows per block
            assert chunk_count(40, 4, 64 * 9, per_row=60) == (3, True)
            op, arrays = conv2d_case(rng, np.float32, cin=64, fout=4, h=40, w=60)
        with ops.gemm_kernels():
            op(*[Tensor(a) for a in arrays])
        assert len(forward_chunks) == 3
        assert_agrees(op, arrays, 17)

    def test_desk_layers_are_one_chunk(self, forward_chunks):
        """Every convolution of the desk model fits the budget in one block."""
        model = build_model(desk_model_config(), seed=0)
        with ops.gemm_kernels():
            model.forward(np.zeros(model.config.window_length, dtype=np.float32))
        assert len(forward_chunks) == 10  # six branch convs, four levels


class TestGradientOracles:
    """Both families' gradients against nested-loop oracles, in float64:
    the two families share one backward, so their agreement alone would
    not catch a fault in it."""

    @staticmethod
    def assert_matches_oracle(op, arrays, oracle, gemm, seed):
        with ops.gemm_kernels(gemm):
            shape = op(*[Tensor(a) for a in arrays]).shape
        g = np.random.default_rng(seed).standard_normal(shape)
        _, *got = run_op(op, arrays, g, gemm)
        for name, have, want in zip(("x", "weight", "bias"), got, oracle(g)):
            assert have.shape == want.shape
            assert rel_err(have, want) <= 1e-12, f"{name}: {rel_err(have, want):.3g}"

    @pytest.mark.parametrize("split", [False, True], ids=["budget", "no_budget"])
    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("stride", [1, 5, 10])
    @pytest.mark.parametrize("seed", range(3))
    def test_conv1d(self, seed, stride, gemm, split, column_budget):
        op, arrays = conv1d_case(np.random.default_rng(700 + 10 * seed + stride),
                                 np.float64, stride)
        x, w, _ = arrays
        if split:  # blocks of three rows
            column_budget(3 * max(w[0].size, len(w)))
        self.assert_matches_oracle(op, arrays, lambda g: conv1d_grad_oracle(x, w, stride, g),
                                   gemm, seed)

    @pytest.mark.parametrize("split", [False, True], ids=["budget", "no_budget"])
    @pytest.mark.parametrize("gemm", [False, True], ids=["reference", "gemm"])
    @pytest.mark.parametrize("seed", range(3))
    def test_conv2d(self, seed, gemm, split, column_budget):
        op, arrays = conv2d_case(np.random.default_rng(800 + seed), np.float64)
        x, w, _ = arrays
        if split:  # blocks of three rows
            column_budget(3 * max(w[0].size, len(w)) * x.shape[2])
        self.assert_matches_oracle(op, arrays, lambda g: conv2d_grad_oracle(x, w, g),
                                   gemm, seed)


class TestWindows:
    """The strided window view reads what ``sliding_window_view`` reads."""

    @pytest.mark.parametrize("stride", [1, 5, 10])
    def test_conv1d(self, stride):
        a = np.random.default_rng(stride).standard_normal((3, 257)).astype(np.float32)
        want = np.moveaxis(sliding_window_view(a, 11, axis=1)[:, ::stride], 2, 1)
        got = ops._windows(a, (11,), stride)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not got.flags.writeable

    def test_conv2d(self):
        a = np.random.default_rng(2).standard_normal((4, 9, 13))
        want = np.moveaxis(sliding_window_view(a, (3, 3), axis=(1, 2)), (3, 4), (1, 2))
        got = ops._windows(a, (3, 3), 1)
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_writes_land_on_the_source(self):
        g = np.zeros((2, 6))
        view = ops._windows(g, (3,), 2, writeable=True)  # (2, 3, 2): starts 0 and 2
        view[1, 2, 1] += 1.0  # channel 1, tap 2 of the output at 2
        assert g[1].tolist() == [0, 0, 0, 0, 1, 0]


class TestSwitch:
    def _case(self):
        rng = np.random.default_rng(9)
        x, w, b = (rng.standard_normal(s).astype(np.float32)
                   for s in ((3, 6, 7), (4, 3, 3, 3), (4,)))
        return x, w, b

    def test_reference_is_the_default_and_returns_after_exit(self):
        x, w, b = self._case()
        oracle = conv2d_oracle(x, w, b)
        assert np.array_equal(ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data, oracle)
        with ops.gemm_kernels():
            fast = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        assert rel_err(fast, oracle) <= 1e-5
        assert np.array_equal(ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data, oracle)

    def test_exit_on_exception(self):
        x, w, b = self._case()
        with pytest.raises(RuntimeError):
            with ops.gemm_kernels():
                raise RuntimeError("boom")
        assert np.array_equal(ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data,
                              conv2d_oracle(x, w, b))

    def test_disabled_inside_enabled_selects_reference(self):
        x, w, b = self._case()
        with ops.gemm_kernels():
            with ops.gemm_kernels(False):
                out = ops.conv2d(Tensor(x), Tensor(w), Tensor(b)).data
            assert ops.gemm_enabled()
        assert not ops.gemm_enabled()
        assert np.array_equal(out, conv2d_oracle(x, w, b))


def record_kernels(monkeypatch):
    """Record, per conv2d call, whether the GEMM kernels were selected."""
    seen = []
    real = ops.conv2d
    monkeypatch.setattr(ops, "conv2d",
                        lambda *a, **k: seen.append(ops.gemm_enabled()) or real(*a, **k))
    return seen


class TestSelection:
    def test_gemm_training_reruns_byte_identical(self, tmp_path):
        manifest, clips = micro_corpus()
        cfg = tiny_model_config()
        tc = micro_train_config(deterministic=False)
        train(cfg, tc, manifest, 1, clips=clips, out_path=tmp_path / "a.ckpt")
        train(cfg, tc, manifest, 1, clips=clips, out_path=tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_train_epoch_follows_config(self, deterministic, monkeypatch):
        manifest, clips = micro_corpus()
        seen = record_kernels(monkeypatch)
        model = build_model(tiny_model_config(), seed=0)
        train_epoch(model, manifest.entries[:8], clips, 0,
                    micro_train_config(deterministic=deterministic))
        assert seen and set(seen) == {not deterministic}
        assert not ops.gemm_enabled()

    @pytest.mark.parametrize("deterministic", [False, True])
    def test_eval_follows_checkpoint(self, deterministic, tmp_path, monkeypatch):
        manifest, clips = micro_corpus()
        for e in manifest.entries:
            (tmp_path / e.path).write_bytes(
                encode_wav_pcm16(clips[e.path].samples, clips[e.path].sample_rate))
        (tmp_path / "manifest.csv").write_text(dump_manifest(manifest))
        model = build_model(tiny_model_config(), seed=0)
        save_checkpoint(Checkpoint.from_model(
            model, micro_train_config(deterministic=deterministic), 0, [], (5, 0)),
            tmp_path / "m.ckpt")
        seen = record_kernels(monkeypatch)
        code = cli.main(["eval", "--ckpt", str(tmp_path / "m.ckpt"),
                         "--manifest", str(tmp_path / "manifest.csv"),
                         "--fold", "1", "--report", str(tmp_path / "report")])
        assert code == 0
        assert seen and set(seen) == {not deterministic}
