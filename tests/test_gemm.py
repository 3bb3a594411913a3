"""GEMM convolution kernels: gradients, agreement with the reference
kernels, the scope of the switch, and how callers select them."""

import numpy as np
import pytest

from wavems import cli, ops
from wavems.audio import encode_wav_pcm16
from wavems.checkpoint import Checkpoint, save_checkpoint
from wavems.datasets import dump_manifest
from wavems.model import build_model
from wavems.tensor import Tensor, backward
from wavems.training import train, train_epoch

from conftest import tiny_model_config
from gradcheck import check_op_gradients, weighted_sum
from oracles import conv2d_oracle
from test_training import micro_corpus, micro_train_config


def rel_err(got, want) -> float:
    """Largest |got - want| over the largest |want|."""
    want = np.asarray(want, dtype=np.float64)
    return float(np.abs(np.asarray(got, dtype=np.float64) - want).max()
                 / max(np.abs(want).max(), 1e-30))


def chunk_count(rows, fout, depth):
    """Chunks the GEMM kernels split ``rows`` output rows into: each chunk's
    (depth, n) column buffer stays within the layer's output size."""
    step = max(1, fout * rows // depth)
    return -(-rows // step), rows % step != 0


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

    def test_several_chunks(self):
        rng = np.random.default_rng(5)
        # conv1d: 15 outputs, depth 3*4 = 12, fout 2 -> 2 outputs per chunk
        x = Tensor(rng.standard_normal((3, 18)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        assert chunk_count(15, 2, 12) == (8, True)
        with ops.gemm_kernels():
            check_op_gradients(lambda: ops.conv1d(x, w, b), [x, w, b], 6)
        # conv2d: 4 rows, depth 9*3 = 27, fout 2 -> 1 row per chunk
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
    @pytest.mark.parametrize("stride,cin,fout,k,length,chunks", [
        (1, 4, 2, 11, 300, 23),   # 290 outputs, 13 per chunk
        (5, 3, 4, 51, 700, 44),   # 130 outputs, 3 per chunk
        (10, 2, 3, 101, 1510, 71),  # 141 outputs, 2 per chunk
    ])
    def test_conv1d_ragged_chunks(self, stride, cin, fout, k, length, chunks, dtype):
        lout = (length - k) // stride + 1
        assert chunk_count(lout, fout, cin * k) == (chunks, True)
        op, arrays = conv1d_case(np.random.default_rng(chunks), dtype, stride,
                                 cin=cin, fout=fout, k=k, length=length)
        assert_agrees(op, arrays, chunks)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin,fout,h,w,chunks", [
        (4, 8, 23, 9, 5),   # 5 rows per chunk
        (16, 8, 37, 5, 19),  # 2 rows per chunk
    ])
    def test_conv2d_ragged_chunks(self, cin, fout, h, w, chunks, dtype):
        assert chunk_count(h, fout, cin * 9) == (chunks, True)
        op, arrays = conv2d_case(np.random.default_rng(h), dtype, cin=cin, fout=fout, h=h, w=w)
        assert_agrees(op, arrays, h)


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
            assert ops._gemm_enabled
        assert not ops._gemm_enabled
        assert np.array_equal(out, conv2d_oracle(x, w, b))


def record_kernels(monkeypatch):
    """Record, per conv2d call, whether the GEMM kernels were selected."""
    seen = []
    real = ops.conv2d
    monkeypatch.setattr(ops, "conv2d",
                        lambda *a, **k: seen.append(ops._gemm_enabled) or real(*a, **k))
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
        assert not ops._gemm_enabled

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
