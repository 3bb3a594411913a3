"""The reference convolution kernels give the same bits at any BLAS thread
count. BLAS reads its thread count once, when it loads, so each count runs
in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavems

# One full-scale phase convolution, 32 filters of 32 x 3 over a 66140-sample
# branch map, forward and backward on the reference kernels, with seeded
# inputs and output gradient. Prints the sha256 of the output and of the x,
# weight and bias gradients, one a line.
SCRIPT = """
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


def reference_conv_hashes(threads: int) -> list[str]:
    paths = [str(Path(wavems.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs at least two CPUs")
def test_reference_conv_bits_do_not_depend_on_blas_threads():
    one, two = reference_conv_hashes(1), reference_conv_hashes(2)
    assert len(one) == len(two) == 4
    for name, a, b in zip(("output", "x grad", "weight grad", "bias grad"), one, two):
        assert a == b, f"{name}: {a[:8]} at one BLAS thread, {b[:8]} at two"
