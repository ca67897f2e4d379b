"""Rodinia *pathfinder* — the paper's Figure 2 case-study kernel.

Dynamic programming over a 2-D grid: each thread owns one column of a
block tile and, for ``iteration`` rows, picks the cheapest of its three
upper neighbours and adds the local grid cost:

.. code-block:: c

    for (int i = 0; i < iteration; i++) {
        if ((tx >= i+1) && (tx <= BLOCK_SIZE-2-i) && isValid) {     // PC1, PC2
            int shortest = MIN(left, up);                           // PC3
            shortest = MIN(shortest, right);                        // PC5
            int index = cols * (startStep + i) + xidx;              // PC6
            result[tx] = shortest + gpuWall[index];                 // PC7
        }
    }

The seven in-loop addition PCs (including the loop increment) are the
ones whose value evolution the paper plots: costs grow smoothly with the
row index, the index PC produces large but linearly-evolving values, and
the bound computations produce small ints — each PC strongly
self-correlated, weakly cross-correlated.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.runtime import PreparedKernel, scaled
from repro.sim.config import GPUConfig, LaunchConfig, TITAN_V
from repro.sim.functional import GridLauncher

BLOCK_SIZE = 128
HALO = 1


def pathfinder_kernel(k, gpu_wall, gpu_src, gpu_dst, cols, start_step,
                      iteration):
    """One pyramid step of the pathfinder DP (dynproc_kernel)."""
    tx = k.thread_id()
    small_block_cols = BLOCK_SIZE - iteration * 2 * HALO
    blk_x = small_block_cols * k.block_id - HALO
    xidx = k.iadd(blk_x, tx)
    is_valid = (xidx >= 0) & (xidx < cols)

    prev = k.shared(BLOCK_SIZE, np.int32)
    result = k.shared(BLOCK_SIZE, np.int32)

    with k.where(is_valid):
        loaded = k.ld_global(gpu_src, xidx)
        k.st_shared(prev, tx, loaded)
    k.syncthreads()

    for i in k.range(iteration):
        lower = k.iadd(i, 1)                                    # PC1
        upper = k.isub(BLOCK_SIZE - 2, i)                       # PC2
        in_range = k.ge(tx, lower) & k.le(tx, upper) & is_valid
        with k.where(in_range):
            # tx±1 fold into the LDS immediate offset on hardware (and
            # porting them as IADDs would add PCs beyond the paper's
            # Figure 2 enumeration above)
            left = k.ld_shared(prev, np.maximum(tx - 1, 0))  # st2-lint: disable=L1
            up = k.ld_shared(prev, tx)
            right = k.ld_shared(prev, np.minimum(tx + 1,     # st2-lint: disable=L1
                                                 BLOCK_SIZE - 1))
            shortest = k.imin(left, up)                         # PC3
            shortest = k.imin(shortest, right)                  # PC5
            row = k.iadd(start_step, i)
            index = k.iadd(k.imul(cols, row), xidx)             # PC6
            wall = k.ld_global(gpu_wall, index)
            k.st_shared(result, tx, k.iadd(shortest, wall))     # PC7
        k.syncthreads()
        with k.where(in_range):
            k.st_shared(prev, tx, k.ld_shared(result, tx))
        k.syncthreads()

    with k.where(is_valid):
        k.st_global(gpu_dst, xidx, k.ld_shared(result, tx))


def prepare(scale: float = 1.0, seed: int = 0,
            gpu: GPUConfig = TITAN_V) -> PreparedKernel:
    """Build a pathfinder launch: random small step costs (0..9), the
    running path costs accumulating smoothly row by row."""
    rng = np.random.default_rng(seed)
    iteration = scaled(18, scale, minimum=4)
    grid_blocks = scaled(10, scale, minimum=2)
    rows = iteration + 1
    cols = grid_blocks * (BLOCK_SIZE - 2 * HALO * iteration)
    if cols <= 0:
        # the halo shrinks each block tile by 2 columns per iteration
        raise ValueError(
            f"pathfinder: scale={scale} runs {iteration} iterations, "
            f"which leave no columns in a {BLOCK_SIZE}-wide block tile; "
            "the largest supported scale is 3.5")

    wall = rng.integers(0, 10, size=rows * cols).astype(np.int32)
    # src row carries costs already accumulated over earlier pyramid
    # steps — values in the hundreds, like the paper's Figure 2.
    src = (wall[:cols] + rng.integers(100, 400, cols)).astype(np.int32)

    launcher = GridLauncher(gpu=gpu, seed=seed)
    return PreparedKernel(
        name="pathfinder",
        fn=pathfinder_kernel,
        launch=LaunchConfig(grid_blocks, BLOCK_SIZE),
        params=dict(
            gpu_wall=launcher.buffer("gpuWall", wall),
            gpu_src=launcher.buffer("gpuSrc", src),
            gpu_dst=launcher.buffer("gpuDst", np.zeros(cols, np.int32)),
            cols=cols, start_step=1, iteration=iteration),
        launcher=launcher)
