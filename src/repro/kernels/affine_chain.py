"""``affineChain`` — a bounds-analysis witness microbenchmark.

Every integer add in the hot loop combines a `k.range` loop counter
with small literal offsets, so the flow tier's interval analysis pins
every slice carry of every site to zero (the counter never crosses a
slice boundary).  That makes the kernel the deterministic fixture for
`st2-lint bounds`: under ``static0`` (or any mechanism with Peek)
speculation is provably always correct, while under ``static1`` every
pinned site is provably always wrong, so the bounds tier proves a
misprediction floor for that config class (`tests/lint/test_bounds.py`
pins it).  The XOR accumulation keeps the chain live without emitting
adder rows, mirroring the Sobol'/Niederreiter index storms the paper's
QRNG kernels spend their ALU energy on.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.runtime import PreparedKernel, scaled
from repro.sim.config import GPUConfig, LaunchConfig, TITAN_V
from repro.sim.functional import GridLauncher

BLOCK = 128
STEPS = 24          # hot-loop trip count; counter stays far below 2**8


def affine_chain_kernel(k, out, n):
    """affineChain: statically-pinned affine index chains per thread."""
    t = k.global_id()
    acc = np.zeros(k.n_threads, dtype=np.int64)
    for i in k.range(STEPS):
        j = k.iadd(i, 1)            # <= STEPS      : carries pinned 0
        u = k.iadd(j, 32)           # <= STEPS + 32 : carries pinned 0
        v = k.iadd(u, 64)           # <= STEPS + 96 : carries pinned 0
        acc = k.ixor(acc, k.shl(v, i))
    k.st_global(out, t, k.cvt_f32(acc))


def prepare(scale: float = 1.0, seed: int = 0,
            gpu: GPUConfig = TITAN_V) -> PreparedKernel:
    n = scaled(512, scale, minimum=BLOCK, multiple=BLOCK)
    launcher = GridLauncher(gpu=gpu, seed=seed)
    return PreparedKernel(
        name="affineChain",
        fn=affine_chain_kernel,
        launch=LaunchConfig(n // BLOCK, BLOCK),
        params=dict(
            out=launcher.buffer("out", np.zeros(n, np.float32)),
            n=n),
        launcher=launcher)
