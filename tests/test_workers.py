"""Workers (``ops.workers``, ``--threads`` of ``train``, ``eval`` and
``ablate``): the blocks of each convolution forward shared by the calling
thread and a pool, on a grid that the worker count does not move, so with the
same bytes as one thread; the worker count's cap, the pool's lifetime, which
``cli.main`` ties to the command's, and what the commands read and write at
any ``--threads``."""

import contextlib
import json
import sys
import threading
import time

import numpy as np
import pytest

from wavems import _conv, cli, ops
from wavems.datasets import fold_split
from wavems.errors import ShapeError
from wavems.model import ModelConfig, build_model, full_scale_config
from wavems.tensor import Tensor, backward, no_grad
from wavems.training import train

from conftest import desk_model_config, traced
from gradcheck import weighted_sum
from test_cli import MICRO_MODEL, MICRO_TRAIN, config_file, corpus_dir  # noqa: F401
from test_gemm import conv1d_case, conv2d_case, forward_chunks  # noqa: F401


@pytest.fixture
def cpus(monkeypatch):
    """Four usable CPUs, so up to four workers run on any host."""
    monkeypatch.setattr(_conv, "usable_cpus", lambda: 4)
    assert ops.workers(4).count == 4


@pytest.fixture
def three_blocks(monkeypatch):
    """A column budget that runs ``conv2d_case(rng, dtype, 32, 128, 23, 60)``
    in three blocks, of 8, 8 and 7 rows of 60 positions at depth 288."""
    monkeypatch.setattr(_conv, "_COLUMN_BUDGET", 8 * 288 * 60)
    assert _conv._chunks(range(24), 288 * 60) == [slice(0, 8), slice(8, 16), slice(16, 23)]


def chain(x, w, b, stride, relu, pw, pb, phase_stride, pool):
    """One front-end branch, ``conv1d(conv1d(x, w, b, stride, relu), pw, pb,
    phase_stride, relu=True, pool=pool)``: ``ops.frontend`` of that branch
    alone, its output without the leading axis."""
    out = ops.frontend(x, [(w, b, stride, pw, pb)], relu, phase_stride, pool)
    return ops.reshape(out, out.shape[1:])


def run_conv(op, arrays, gemm, workers, r=None):
    """Output bytes, and with an output gradient ``r`` the input gradients'
    bytes, of ``op`` at ``workers`` threads."""
    inputs = [Tensor(a.copy(), requires_grad=r is not None) for a in arrays]
    with ops.gemm_kernels(gemm), ops.workers(workers):
        out = op(*inputs)
        if r is not None:
            backward(weighted_sum(out, r))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in inputs if r is not None]


class TestWorkerCount:
    def test_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(_conv, "usable_cpus", lambda: 3)
        assert [ops.workers(n).count for n in (1, 2, 3, 4, 100000)] == [1, 2, 3, 3, 3]

    def test_usable_cpus_reads_affinity_then_cpu_count(self, monkeypatch):
        monkeypatch.setattr(_conv.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert ops.usable_cpus() == 3
        monkeypatch.delattr(_conv.os, "sched_getaffinity")
        monkeypatch.setattr(_conv.os, "cpu_count", lambda: 6)
        assert ops.usable_cpus() == 6
        monkeypatch.setattr(_conv.os, "cpu_count", lambda: None)
        assert ops.usable_cpus() == 1

    def test_one_worker_starts_no_thread(self):
        before = threading.active_count()
        with ops.workers(1):
            assert _conv._kernels.pool is None
            with ops.gemm_kernels(), no_grad():
                build_model(desk_model_config(), seed=0).forward(np.ones(4410, np.float32))
            assert threading.active_count() == before

    def test_pool_is_per_thread_and_nests(self, cpus, three_blocks):
        before = threading.active_count()
        seen = []
        with ops.workers(3):
            pool = _conv._kernels.pool
            worker = threading.Thread(target=lambda: seen.append(_conv._kernels.pool))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            with ops.workers(2):
                assert _conv._kernels.workers == 2 and _conv._kernels.pool is not pool
            assert _conv._kernels.pool is pool and _conv._kernels.workers == 3
            op, arrays = conv2d_case(np.random.default_rng(0), np.float32, 32, 128, 23, 60)
            with ops.gemm_kernels():
                op(*map(Tensor, arrays))
            assert threading.active_count() > before
        assert seen == [None]
        assert _conv._kernels.pool is None and _conv._kernels.workers == 1
        assert threading.active_count() == before


    def test_piece_error_reaches_the_caller(self, cpus, three_blocks, monkeypatch):
        """A block that raises in a pool thread reaches the caller only once
        every other block has returned, so no thread still writes into the
        output; the threads then end with the pool."""
        op, arrays = conv2d_case(np.random.default_rng(0), np.float32, 32, 128, 23, 60)
        before = threading.active_count()
        caller = threading.current_thread()
        lock = threading.Lock()
        started, finished = [], []

        def matmul(*args, **kwargs):
            """The first block a pool thread takes fails at once; any other
            pool block outlasts the caller's."""
            me = threading.current_thread()
            with lock:
                first = me is not caller and all(t is caller for t in started)
                started.append(me)
            if first:
                raise MemoryError("no room for a block")
            time.sleep(0.05 if me is caller else 0.3)
            finished.append(me)

        with ops.workers(3):
            with ops.gemm_kernels():
                op(*map(Tensor, arrays))  # the pool threads start
            monkeypatch.setattr(np, "matmul", matmul)
            with ops.gemm_kernels(), pytest.raises(MemoryError, match="no room"):
                op(*map(Tensor, arrays))
            assert len(started) == 3 and len(finished) == 2
        assert threading.active_count() == before


class TestSplitForward:
    """Both families' forwards give the bytes of one thread at 2 and 3
    workers; so do the gradients, whose backward stays serial. Each case's
    column budget cuts its layer into several blocks, the last one short
    where its units allow; ``calls`` counts the GEMM forward's matmuls, one
    per block at any worker count. A pooled layer's blocks are whole rows of
    bins."""

    CONV1D = [  # stride, cin, fout, k, length; column budget; forward matmuls
        ((3, 8, 32, 7, 30000), 1 << 16, 9),   # 9998 rows at depth 56: 8 blocks of 1170, one of 638
        ((1, 32, 32, 3, 18000), 1 << 16, 27),  # 17998 rows at depth 96: 26 of 682, one of 266
        ((1, 2, 3, 5, 40), 100, 4),           # 36 rows at depth 10: three of 10, one of 6
    ]
    CONV2D = [  # cin, fout, h, w; column budget; forward matmuls
        # 11 rows of bins in blocks of 3, 3, 3 and 2; the map's odd last row
        # is in no bin
        ((32, 128, 23, 60), 1 << 17, 4),
        ((64, 64, 5, 200), 1 << 17, 2),  # one row of bins per block
        ((3, 4, 8, 6), 1000, 2),         # 4 rows of bins in blocks of 3 and 1
    ]
    IDS = [f"case{i}-calls{i}" for i in range(3)]

    @staticmethod
    def check(op, arrays, r, gemm, calls, forward_chunks):
        one = run_conv(op, arrays, gemm, 1, r)
        for workers in (1, 2, 3):
            forward_chunks.clear()
            assert run_conv(op, arrays, gemm, workers) == one[:1]
            if gemm:
                assert len(forward_chunks) == calls
            assert run_conv(op, arrays, gemm, workers, r) == one

    @pytest.mark.parametrize("gemm", [True, False])
    @pytest.mark.parametrize("case,budget,calls", CONV1D, ids=IDS)
    def test_conv1d(self, case, budget, calls, gemm, cpus, forward_chunks, monkeypatch):
        monkeypatch.setattr(_conv, "_COLUMN_BUDGET", budget)
        stride, cin, fout, k, length = case
        op, arrays = conv1d_case(np.random.default_rng(length), np.float32, stride,
                                 cin=cin, fout=fout, k=k, length=length)
        rows = (length - k) // stride + 1
        r = np.random.default_rng(1).standard_normal((fout, rows)).astype(np.float32)
        self.check(op, arrays, r, gemm, calls, forward_chunks)

    @pytest.mark.parametrize("gemm", [True, False])
    @pytest.mark.parametrize("case,budget,calls", CONV2D, ids=IDS)
    def test_conv2d_relu_pool(self, case, budget, calls, gemm, cpus, forward_chunks,
                              monkeypatch):
        monkeypatch.setattr(_conv, "_COLUMN_BUDGET", budget)
        cin, fout, h, w = case
        _, arrays = conv2d_case(np.random.default_rng(h), np.float32, cin, fout, h, w)

        def op(x, wt, b):
            return ops.conv2d(x, wt, b, relu=True, pool=(2, 2))

        r = np.random.default_rng(2).standard_normal((fout, h // 2, w // 2)).astype(np.float32)
        self.check(op, arrays, r, gemm, calls, forward_chunks)

    def test_stress_more_workers_than_cores(self, cpus):
        """Four workers per caller and two callers at once, switching
        threads as often as the interpreter allows: every output keeps the
        bytes of one thread."""
        rng = np.random.default_rng(8)
        cases = [conv1d_case(rng, np.float32, 1, cin=32, fout=32, k=3, length=20000),
                 (ops.conv2d, conv2d_case(rng, np.float32, 32, 128, 23, 60)[1])]
        want = {(i, gemm): run_conv(op, arrays, gemm, 1)
                for i, (op, arrays) in enumerate(cases) for gemm in (True, False)}
        failures = []

        def caller():
            for _ in range(3):
                for (i, gemm), bits in want.items():
                    if run_conv(*cases[i], gemm, 4) != bits:
                        failures.append((i, gemm))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert failures == []

    @pytest.mark.parametrize("gemm", [True, False])
    def test_desk_model(self, gemm, cpus):
        """Front-end map, logits and every parameter gradient of one desk window."""
        model = build_model(desk_model_config(), seed=0)
        wave = np.random.default_rng(3).standard_normal(4410).astype(np.float32)

        def bits(workers):
            with ops.gemm_kernels(gemm), ops.workers(workers):
                with no_grad():
                    got = [model.forward_frontend(wave).data.tobytes()]
                logits = model.forward(wave)
                backward(ops.softmax_cross_entropy(logits, 2))
            got.append(logits.data.tobytes())
            for _, p in model.named_parameters():
                got.append(p.value.grad.tobytes())
                p.value.grad = None
            return got

        one = bits(1)
        assert bits(2) == one and bits(3) == one

    @pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("layer", ["phase", "branch"])
    def test_blocks_in_flight_hold_one_block_per_worker(self, layer, workers, gemm, cpus):
        """A full-scale phase conv, and the streamed branch-1 chain whose
        blocks also compute their branch rows (no grad), peak within
        ``workers`` blocks' arrays: a block's columns and its product, and a
        chain block's branch rows, each hold about ``_conv._COLUMN_BUDGET``
        float32 elements at most. An allowance covers the pooled output and
        the worker threads' own state. The pool starts before the measured
        call."""
        op, arrays = BRANCH1[layer](np.random.default_rng(6)), {"phase": 2, "branch": 3}[layer]
        with ops.gemm_kernels(gemm), ops.workers(workers), no_grad():
            op()
            _, _, peak = traced(op)
        assert peak <= workers * arrays * _conv._COLUMN_BUDGET * 4 + (256 << 10), peak

    @pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("layer", ["phase", "branch", "conv1"])
    def test_pooled_forward_holds_no_unpooled_map(self, layer, workers, gemm, cpus):
        """A no-grad full-scale phase conv, branch-1 chain and ``conv1``
        peak below the bytes of the unpooled map they make or read, in both
        families: each block pools its own product, so the map never exists
        whole, and a chain's blocks compute only the branch rows they read.
        The pool starts before the measured call."""
        rng = np.random.default_rng(7)
        if layer == "conv1":  # a (64, 96, 441) map, 10.8 MB, pooled 2x2
            x, w, b = (Tensor(rng.standard_normal(s).astype(np.float32))
                       for s in ((1, 96, 441), (64, 1, 3, 3), (64,)))
            op, unpooled = lambda: ops.conv2d(x, w, b, relu=True, pool=(2, 2)), 64 * 96 * 441 * 4
        else:  # the (32, 66138) phase map, 8.5 MB, or the (32, 66140) branch map
            op, unpooled = BRANCH1[layer](rng), 32 * (66138 if layer == "phase" else 66140) * 4
        with ops.gemm_kernels(gemm), ops.workers(workers), no_grad():
            op()
            _, _, peak = traced(op)
        assert peak < unpooled, (peak, unpooled)


def _phase_conv(rng):
    """A full-scale branch-1 phase conv, (32, 66140) -> 441 bins."""
    x, w, b = (Tensor(rng.standard_normal(s).astype(np.float32))
               for s in ((32, 66140), (32, 32, 3), (32,)))
    return lambda: ops.conv1d(x, w, b, relu=True, pool=441)


def _branch_chain(rng):
    """Full-scale branch 1, (1, 66150) -> (32, 66140) -> 441 bins."""
    x, w, b, pw, pb = (Tensor(rng.standard_normal(s).astype(np.float32))
                       for s in ((1, 66150), (32, 1, 11), (32,), (32, 32, 3), (32,)))
    return lambda: chain(x, w, b, 1, True, pw, pb, 1, 441)


BRANCH1 = {"phase": _phase_conv, "branch": _branch_chain}


# The CLI micro model with 32-filter branches and wider levels. Under
# ``SPLIT_BUDGET`` its phase convs and conv1 run in several blocks.
SPLIT_MODEL = dict(MICRO_MODEL, branches=[[11, 1, 32], [51, 5, 32], [101, 10, 32]],
                   frontend_time_bins=64, conv_channels=[16, 32, 32, 32],
                   level_pool_windows=[[2, 2]] * 4, window_length=4410)
SPLIT_BUDGET = 1 << 16


@pytest.fixture
def split_config(tmp_path, monkeypatch):
    """A run config of ``SPLIT_MODEL``, on two usable CPUs, under
    ``SPLIT_BUDGET``."""
    monkeypatch.setattr(_conv, "usable_cpus", lambda: 2)
    monkeypatch.setattr(_conv, "_COLUMN_BUDGET", SPLIT_BUDGET)
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"model": SPLIT_MODEL, "train": MICRO_TRAIN}))
    return path


# Front ends whose no-grad forward streams each branch conv into its phase
# conv. "split" and its variants run under ``SPLIT_BUDGET``, so their phase
# convs run in several blocks. "signed-zero" has a zero run of input under negative branch
# weights and -0.0 branch biases, and no ReLU after the branch conv, so the
# reference branch map holds -0.0 (a ReLU would make it +0.0, and so does
# the phase conv's). "one-column" has a 41-tap branch whose 20 bins are one
# row each: run with a budget of one phase row (4 channels of one tap), each
# block of it is one bin, so each reads a one-column branch slab.
STREAMED = {
    "split": SPLIT_MODEL,
    "no-branch-relu": dict(SPLIT_MODEL, relu_after_branch_conv=False),
    "phase-stride-2": dict(SPLIT_MODEL, phase_stride=2),
    "signed-zero": dict(SPLIT_MODEL, relu_after_branch_conv=False),
    "one-column": dict(MICRO_MODEL, branches=[[7, 1, 4], [11, 2, 4], [41, 13, 4]],
                       phase_filter_len=1),
}


def streamed_case(case, monkeypatch):
    """The model and window of a ``STREAMED`` case."""
    model = build_model(ModelConfig.from_dict(STREAMED[case], "model"), seed=5)
    wave = np.random.default_rng(5).standard_normal(model.window_length).astype(np.float32)
    if case == "signed-zero":  # every branch term in the zero run is -0.0
        wave[1000:3000] = 0.0
        for name, p in model.named_parameters():
            if name.startswith("branch") and ".conv." in name:
                p.value.data[:] = -np.abs(p.value.data) if name.endswith("weight") else -0.0
    monkeypatch.setattr(_conv, "_COLUMN_BUDGET", 4 if case == "one-column" else SPLIT_BUDGET)
    return model, wave


def branch_bits(model, wave, gemm, workers, chained, record=True):
    """Per front-end branch of ``model`` over ``wave``: the output's bytes
    and, when recording, the bytes of the gradients of its five parents
    (the window requires a gradient too) under a random output gradient.
    The branch runs as one ``ops.frontend`` node or, unless ``chained``,
    as the two ``ops.conv1d`` nodes it stands for."""
    cfg, got = model.config, []
    with ops.gemm_kernels(gemm), ops.workers(workers):
        for i, b in enumerate(cfg.branches, start=1):
            x = Tensor(wave[None], requires_grad=record)
            w, bias, pw, pb = (model.param(f"branch{i}.{name}").value for name in
                               ("conv.weight", "conv.bias", "phase.weight", "phase.bias"))
            with contextlib.nullcontext() if record else no_grad():
                if chained:
                    out = chain(x, w, bias, b.stride, cfg.relu_after_branch_conv, pw, pb,
                                cfg.phase_stride, cfg.frontend_time_bins)
                else:
                    y = ops.conv1d(x, w, bias, b.stride, cfg.relu_after_branch_conv)
                    out = ops.conv1d(y, pw, pb, cfg.phase_stride, relu=True,
                                     pool=cfg.frontend_time_bins)
            got.append([out.data.tobytes()])
            if record:
                r = np.random.default_rng(i).standard_normal(out.shape).astype(out.dtype)
                backward(weighted_sum(out, r))
                for t in (x, w, bias, pw, pb):
                    got[-1].append(t.grad.tobytes())
                    t.grad = None
    return got


def frontend_bits(model, wave, gemm, workers, fused, x_grad):
    """The bytes of the front end's output and of the gradients of the
    window (if ``x_grad``) and of every branch parameter, under a random
    output gradient with -0.0 at every third element. The front end runs as
    one ``ops.frontend`` node or, unless ``fused``, as one ``ops.frontend``
    node per branch, ``ops.concat`` and ``ops.reshape``."""
    cfg = model.config
    x = Tensor(wave[None], requires_grad=x_grad)
    branches = [(model.param(f"branch{i}.conv.weight").value,
                 model.param(f"branch{i}.conv.bias").value, b.stride,
                 model.param(f"branch{i}.phase.weight").value,
                 model.param(f"branch{i}.phase.bias").value)
                for i, b in enumerate(cfg.branches, start=1)]
    args = (cfg.relu_after_branch_conv, cfg.phase_stride, cfg.frontend_time_bins)
    with ops.gemm_kernels(gemm), ops.workers(workers):
        if fused:
            out = ops.frontend(x, branches, *args)
        else:
            out = ops.reshape(ops.concat([chain(x, w, b, s, args[0], pw, pb, *args[1:])
                                          for w, b, s, pw, pb in branches], axis=0),
                              cfg.frontend_shape())
        r = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
        r.reshape(-1)[::3] = -0.0
        backward(weighted_sum(out, r))
    leaves = [x] * x_grad + [t for w, b, _, pw, pb in branches for t in (w, b, pw, pb)]
    got = [out.shape, out.data.tobytes()] + [t.grad.tobytes() for t in leaves]
    for t in leaves:
        t.grad = None
    return got


@pytest.fixture(scope="module")
def full_model():
    """A full-scale model with seeded biases, and one window."""
    model = build_model(full_scale_config(5), seed=3)
    rng = np.random.default_rng(3)
    for name, p in model.named_parameters():
        if name.endswith(".bias"):
            p.value.data[:] = rng.uniform(-0.05, 0.05, p.value.shape)
    return model, rng.standard_normal(model.window_length).astype(np.float32)


class TestStreamedFrontend:
    """A front-end branch is one ``ops.frontend`` node, recorded or not,
    whose forward blocks compute the branch rows they read and whose
    backward computes the branch map again. It gives the bytes of the two
    ``ops.conv1d`` nodes it stands for at one worker, output and all five
    parent gradients, in both families at 1 and 2 workers. Its phase
    products, and the branch map its backward computes, are the two nodes'
    by construction; its forward's branch rows are products of other widths
    than the branch conv node's, so a block must compute them with the
    branch node's bits, in the family fixed when the node was built. This
    measures that for GEMM."""

    @pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", STREAMED)
    def test_equals_two_nodes(self, case, workers, gemm, cpus, monkeypatch):
        model, wave = streamed_case(case, monkeypatch)
        want = branch_bits(model, wave, gemm, 1, chained=False)
        slabs = []
        real = _conv._windows
        monkeypatch.setattr(_conv, "_windows",
                            lambda a, *args: slabs.append(a.shape) or real(a, *args))
        got = branch_bits(model, wave, gemm, workers, chained=True, record=False)
        assert got == [bits[:1] for bits in want] and slabs
        monkeypatch.setattr(_conv, "_windows", real)
        assert branch_bits(model, wave, gemm, workers, chained=True) == want
        if case == "one-column":
            assert (4, 1) in slabs

    @pytest.mark.parametrize("case", STREAMED)
    def test_branch_rows_are_the_branch_map(self, case, monkeypatch):
        """Reference branch rows have the bytes of the branch conv node's
        map, signed zeros included, over any run of rows, one row wide too.
        GEMM rows are checked through the front end alone: with OpenBLAS
        0.3.31, products a few columns wide round otherwise than wide ones
        for some depths (51 and 101 taps), so GEMM rows are checked only at
        the widths the phase conv's blocks ask for."""
        model, wave = streamed_case(case, monkeypatch)
        cfg, x = model.config, wave[None]
        signed = 0
        for i, b in enumerate(cfg.branches, start=1):
            w, bias = (model.param(f"branch{i}.conv.{n}").value for n in ("weight", "bias"))
            want = ops.conv1d(Tensor(x), w, bias, stride=b.stride,
                              relu=cfg.relu_after_branch_conv).data
            rows = _conv._branch_rows(x, _conv._Kernel(w.data, bias.data, b.stride, False),
                                    cfg.relu_after_branch_conv)
            n = want.shape[1]
            for lo, hi in [(0, n), (0, 1), (n // 2, n // 2 + 1), (n - 1, n), (3, n // 3)]:
                assert rows(lo, hi).tobytes() == want[:, lo:hi].tobytes(), (i, lo, hi)
            signed += np.count_nonzero(np.signbit(want) & (want == 0))
        assert (signed > 0) == (case == "signed-zero")

    @pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_scale_window(self, workers, gemm, cpus, full_model):
        model, wave = full_model
        want = branch_bits(model, wave, gemm, 1, chained=False)
        got = branch_bits(model, wave, gemm, workers, chained=True, record=False)
        assert got == [bits[:1] for bits in want]
        assert branch_bits(model, wave, gemm, workers, chained=True) == want

    @pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", STREAMED)
    def test_frontend_is_the_stacked_branches(self, case, workers, gemm, cpus, monkeypatch):
        """One ``ops.frontend`` node gives the bytes of the parent graph at
        one worker, a one-branch node per branch stacked by ``ops.concat`` and
        ``ops.reshape``: the output and the gradients of the window and of
        all twelve branch parameters."""
        model, wave = streamed_case(case, monkeypatch)
        want = frontend_bits(model, wave, gemm, 1, fused=False, x_grad=True)
        assert want[0] == model.config.frontend_shape() and len(want) == 2 + 1 + 12
        assert frontend_bits(model, wave, gemm, workers, fused=True, x_grad=True) == want

    @pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "reference"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_full_scale_frontend(self, workers, gemm, cpus, full_model):
        model, wave = full_model
        want = frontend_bits(model, wave, gemm, 1, fused=False, x_grad=False)
        assert frontend_bits(model, wave, gemm, workers, fused=True, x_grad=False) == want

    def test_frontend_errors(self):
        """A bad branch raises what it raises alone; no branch is no front
        end."""
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 300)))
        good = [Tensor(rng.standard_normal(s)) for s in ((4, 1, 7), (4,), (4, 4, 3), (4,))]
        bad = [good[0], good[1], Tensor(rng.standard_normal((4, 3, 3))), good[3]]
        for branch in (bad, [good[0], Tensor(np.zeros(5)), *good[2:]]):
            with pytest.raises(ShapeError) as alone:
                chain(x, branch[0], branch[1], 1, True, branch[2], branch[3], 1, 20)
            with pytest.raises(ShapeError) as stacked:
                ops.frontend(x, [(good[0], good[1], 2, good[2], good[3]),
                                 (branch[0], branch[1], 1, branch[2], branch[3])], True, 1, 20)
            assert str(stacked.value) == str(alone.value)
        with pytest.raises(ValueError, match="at least one branch"):
            ops.frontend(x, [], True, 1, 20)

    @pytest.mark.parametrize("bad", ["phase-channels", "pool", "precision"])
    def test_errors_are_the_two_convs(self, bad):
        """A bad branch raises what its two convolutions raise, recorded or
        not."""
        rng = np.random.default_rng(0)
        shapes = [(1, 300), (4, 1, 7), (4,), (4, 3 if bad == "phase-channels" else 4, 3), (4,)]
        arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        if bad == "precision":
            arrays[4] = arrays[4].astype(np.float64)
        pool = 999 if bad == "pool" else 20
        errors = []
        for record in (True, False):
            x, w, b, pw, pb = (Tensor(a, requires_grad=record) for a in arrays)
            with pytest.raises((ShapeError, ValueError)) as err:
                chain(x, w, b, 1, True, pw, pb, 1, pool)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("gemm", [True, False], ids=["gemm", "reference"])
    def test_no_convolution_pads_a_whole_input(self, gemm, monkeypatch):
        """A pooled ``conv2d`` of several blocks reads its zero-padded
        source through ``_conv._padded_rows`` a block of rows at a time,
        forward and backward alike: no read spans the whole padded height."""
        monkeypatch.setattr(_conv, "_COLUMN_BUDGET", 4096)  # 10 forward, 7 backward blocks
        real, spans = _conv._padded_rows, []

        def padded_rows(a, pad):
            rows = real(a, pad)
            return lambda lo, hi: spans.append(hi - lo) or rows(lo, hi)

        monkeypatch.setattr(_conv, "_padded_rows", padded_rows)
        rng = np.random.default_rng(0)
        x, w, b = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
                   for s in [(4, 20, 30), (8, 4, 3, 3), (8,)])
        with ops.gemm_kernels(gemm):
            y = ops.conv2d(x, w, b, relu=True, pool=(2, 2))
        forward, spans[:] = list(spans), []
        backward(weighted_sum(y, rng.standard_normal(y.shape).astype(np.float32)))
        assert (len(forward), len(spans)) == (10, 7)
        assert max(forward + spans) < 20 + 2
        assert all(t.grad is not None for t in (x, w, b))


def product_widths(model, wave, workers, record, monkeypatch):
    """The column counts of the GEMM products of one forward of ``model``,
    sorted, keyed by the name of the conv weight each multiplies."""
    names = {p.value.data.ctypes.data: name for name, p in model.named_parameters()}
    widths = {}
    real = np.matmul

    def matmul(a, b, **kwargs):
        widths.setdefault(names[a.ctypes.data], []).append(b.shape[1])
        return real(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", matmul)
    try:
        with ops.gemm_kernels(), ops.workers(workers), \
                (contextlib.nullcontext() if record else no_grad()):
            model.forward(wave)
    finally:
        monkeypatch.setattr(np, "matmul", real)
    return {name: sorted(w) for name, w in widths.items()}


class TestGrid:
    """Every GEMM convolution product runs on its node's grid, which the
    node's shape alone sets: the worker count picks only the thread that
    runs a block, and a recorded forward runs the products of a no-grad
    one."""

    def test_full_scale_no_grad_window(self, full_model, cpus, monkeypatch):
        model, wave = full_model
        one = product_widths(model, wave, 1, False, monkeypatch)
        assert len(one) == 10  # three branch convs, three phase convs, four levels
        assert product_widths(model, wave, 2, False, monkeypatch) == one
        assert product_widths(model, wave, 3, False, monkeypatch) == one
        # 18 rows of 441 at depth 9 and 64 filters: 2**19 // (64 * 441) rows per block
        assert max(one["conv1.weight"]) == 18 * 441
        # a recorded forward runs the same nodes, the front end's branch rows included
        assert product_widths(model, wave, 1, True, monkeypatch) == one

    def test_recorded_desk_window(self, cpus, monkeypatch):
        model = build_model(desk_model_config(), seed=0)
        wave = np.random.default_rng(3).standard_normal(4410).astype(np.float32)
        one = product_widths(model, wave, 1, True, monkeypatch)
        assert len(one) == 10
        assert product_widths(model, wave, 2, True, monkeypatch) == one
        assert product_widths(model, wave, 3, True, monkeypatch) == one


def train_args(root, config, out, threads, deterministic):
    return (["train", "--config", str(config), "--manifest", str(root / "manifest.csv"),
             "--fold", "1", "--out", str(out), "--threads", str(threads)]
            + ["--deterministic"] * deterministic)


def eval_args(root, ckpt, report, threads):
    return ["eval", "--ckpt", str(ckpt), "--manifest", str(root / "manifest.csv"),
            "--fold", "1", "--report", str(report), "--threads", str(threads)]


def ablate_args(root, config, out, threads):
    return ["ablate", "--mode", "levels", "--config", str(config), "--manifest",
            str(root / "manifest.csv"), "--out", str(out), "--threads", str(threads)]


@pytest.fixture
def thread_counts(monkeypatch):
    """The number of live threads after each block run (``_conv._run``). It
    rises above the count before a command once a block run of more than one
    block has handed blocks to a pool, whose threads live until it ends."""
    counts = []
    real = _conv._run

    def run(fn, blocks):
        real(fn, blocks)
        counts.append(threading.active_count())

    monkeypatch.setattr(_conv, "_run", run)
    return counts


class TestCommands:
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_train_then_eval_identical(self, deterministic, corpus_dir, split_config,
                                       thread_counts, tmp_path, capsys):
        """``train`` runs pool threads at two threads and gives the same
        stdout CSV and checkpoint bytes as at one, and ``eval`` the same
        report files."""
        before = threading.active_count()
        runs = []
        for threads in (1, 2):
            path = tmp_path / f"t{threads}.ckpt"
            capsys.readouterr()
            thread_counts.clear()
            assert cli.main(train_args(corpus_dir, split_config, path, threads,
                                       deterministic)) == 0
            runs.append((capsys.readouterr().out, path.read_bytes(), max(thread_counts)))
        assert runs[0][2] == before and runs[1][2] > before
        assert runs[1][:2] == runs[0][:2]

        reports = []
        for threads in (1, 2):
            report = tmp_path / f"report-{threads}"
            assert cli.main(eval_args(corpus_dir, tmp_path / "t1.ckpt", report, threads)) == 0
            reports.append({f.name: f.read_bytes() for f in report.iterdir()})
        assert len(reports[0]) == 3 and reports[1] == reports[0]

    def test_ablate_identical(self, corpus_dir, split_config, thread_counts, tmp_path, capsys):
        """``ablate --mode levels`` runs pool threads at two threads and
        gives the same stdout CSV and output files as at one."""
        before = threading.active_count()
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"ablation-{threads}"
            capsys.readouterr()
            thread_counts.clear()
            assert cli.main(ablate_args(corpus_dir, split_config, out, threads)) == 0
            files = {f.name: f.read_bytes() for f in out.iterdir()}
            runs.append((capsys.readouterr().out, files, max(thread_counts)))
        assert runs[0][2] == before and runs[1][2] > before
        assert len(runs[0][1]) == 2 and runs[1][:2] == runs[0][:2]

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_pool_threads_end_with_the_command(self, command, fail, corpus_dir, split_config,
                                               thread_counts, tmp_path, monkeypatch, capsys):
        """At ``--threads 2`` the pool's threads run during each command and
        are gone when ``main`` returns, also when the command fails inside
        the pool."""
        ckpt = tmp_path / "m.ckpt"
        if command == "eval":
            assert cli.main(train_args(corpus_dir, split_config, ckpt, 1, False)) == 0
        argv = {"train": train_args(corpus_dir, split_config, ckpt, 2, False),
                "eval": eval_args(corpus_dir, ckpt, tmp_path / "r", 2),
                "ablate": ablate_args(corpus_dir, split_config, tmp_path / "a", 2)}[command]
        if fail:
            counted = _conv._run

            def run(fn, blocks):
                counted(fn, blocks)
                if len(blocks) > 1:  # these blocks went to the pool
                    raise OSError("disk gone")

            monkeypatch.setattr(_conv, "_run", run)
        thread_counts.clear()
        before = threading.active_count()
        assert cli.main(argv) == (1 if fail else 0)
        assert thread_counts and max(thread_counts) > before
        assert threading.active_count() == before

    def test_train_decodes_only_the_train_split(self, corpus_dir, config_file, tmp_path,
                                                monkeypatch, capsys):
        decoded = []
        real = cli.make_clip_loader

        def make_clip_loader(*args, **kwargs):
            load = real(*args, **kwargs)
            return lambda path: decoded.append(path) or load(path)

        monkeypatch.setattr(cli, "make_clip_loader", make_clip_loader)
        path = tmp_path / "cli.ckpt"
        assert cli.main(["train", "--config", str(config_file), "--manifest",
                         str(corpus_dir / "manifest.csv"), "--fold", "1",
                         "--out", str(path)]) == 0
        stdout = capsys.readouterr().out

        manifest = cli._load_manifest_file(str(corpus_dir / "manifest.csv"))
        train_entries, test_entries = fold_split(manifest, 1)
        assert test_entries and sorted(decoded) == sorted(e.path for e in train_entries)

        # every clip decoded, as before: the same CSV and checkpoint bytes
        cfg = cli._load_run_config(str(config_file))
        cfg = cli.replace(cfg, model=cli.replace(cfg.model, num_classes=manifest.num_classes))
        load = real(cfg.model.sample_rate)
        lines = ["epoch,lr,loss,train_acc"]
        train(cfg.model, cfg.train, manifest, 1,
              clips={e.path: load(e.path) for e in manifest.entries},
              out_path=tmp_path / "all.ckpt",
              on_epoch=lambda m: lines.append(f"{m['epoch']},{m['lr']:g},{m['loss']:.6f},"
                                              f"{m['train_acc']:.6f}"))
        assert stdout.splitlines() == lines
        assert path.read_bytes() == (tmp_path / "all.ckpt").read_bytes()
