"""The reference kernels give the same bits at any BLAS thread count and on
any BLAS CPU kernel. BLAS reads its thread count and CPU kernel once, when
it loads, so each setting runs in a fresh interpreter."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import wavems

# One full-scale phase convolution, 32 filters of 32 x 3 over a 66140-sample
# branch map, forward and backward on the reference kernels, with seeded
# inputs and output gradient. Prints the sha256 of the output and of the x,
# weight and bias gradients, one a line.
CONV_SCRIPT = """
import hashlib
import numpy as np
from gradcheck import weighted_sum
from wavems import ops
from wavems.tensor import Tensor, backward

rng = np.random.default_rng(4)
x, w, b = (Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True)
           for s in ((32, 66140), (32, 32, 3), (32,)))
with ops.gemm_kernels(False):
    out = ops.conv1d(x, w, b)
    backward(weighted_sum(out, rng.standard_normal(out.shape).astype(np.float32)))
for a in (out.data, x.grad, w.grad, b.grad):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""

# fc1 at full scale, 512 units over a 14080-element input, forward and input
# gradient on the reference kernels, with seeded inputs and output gradient.
# Prints the sha256 of the output and of the x gradient, one a line.
LINEAR_SCRIPT = """
import hashlib
import numpy as np
from gradcheck import weighted_sum
from wavems import ops
from wavems.tensor import Tensor, backward

rng = np.random.default_rng(5)
x = Tensor(rng.standard_normal(14080).astype(np.float32), requires_grad=True)
w, b = (Tensor(rng.standard_normal(s).astype(np.float32)) for s in ((512, 14080), (512,)))
with ops.gemm_kernels(False):
    out = ops.linear(x, w, b)
    backward(weighted_sum(out, rng.standard_normal(out.shape).astype(np.float32)))
for a in (out.data, x.grad):
    print(hashlib.sha256(a.tobytes()).hexdigest())
"""


def run_hashes(script: str, threads: int = 1, coretype: str | None = None) -> list[str]:
    """The lines ``script`` prints in a fresh interpreter at ``threads`` BLAS
    threads, on the OpenBLAS CPU kernel ``coretype`` (its own pick if None)."""
    paths = [str(Path(wavems.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least two CPUs")
def test_reference_conv_bits_do_not_depend_on_blas_threads():
    one, two = run_hashes(CONV_SCRIPT, 1), run_hashes(CONV_SCRIPT, 2)
    assert len(one) == len(two) == 4
    for name, a, b in zip(("output", "x grad", "weight grad", "bias grad"), one, two):
        assert a == b, f"{name}: {a[:8]} at one BLAS thread, {b[:8]} at two"


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS's Prescott kernel is x86-64 only")
def test_reference_linear_bits_do_not_depend_on_blas_cpu_kernel():
    """Prescott, which needs only SSE3, against the kernel OpenBLAS picks
    for this CPU."""
    own, prescott = run_hashes(LINEAR_SCRIPT), run_hashes(LINEAR_SCRIPT, coretype="Prescott")
    assert len(own) == len(prescott) == 2
    for name, a, b in zip(("output", "x grad"), own, prescott):
        assert a == b, f"{name}: {a[:8]} on the default BLAS kernel, {b[:8]} on Prescott"
