"""Functional execution of DSL kernels → dynamic traces.

This is the stand-in for GPGPU-Sim's PTX functional simulation: it runs
every thread block of a launch (vectorised over the block's threads),
collects the adder-operation trace and the warp-level instruction
stream, and interleaves blocks into a global logical-time order that
approximates their concurrent execution across SMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.isa.pc import PcTable
from repro.sim.config import GPUConfig, LaunchConfig, TITAN_V
from repro.sim.dsl import BlockContext
from repro.sim.memory import Allocator, DeviceBuffer, MemoryStats
from repro.sim.sanitizer import KernelSanitizer, env_sanitize_default
from repro.sim.trace import AddTrace, InstStream, TraceBuilder


@dataclass
class KernelRun:
    """Everything captured from one functional kernel execution."""

    name: str
    launch: LaunchConfig
    trace: AddTrace
    insts: InstStream
    pc_table: PcTable
    mem: MemoryStats
    gpu: GPUConfig
    buffers: dict = field(default_factory=dict)
    sanitizer: object = None

    @property
    def n_warps(self) -> int:
        return self.launch.total_threads // self.gpu.warp_size

    @property
    def n_static_pcs(self) -> int:
        return len(self.pc_table)

    def adds_per_thread_instruction(self) -> float:
        """Fraction of dynamic thread instructions that are adder ops."""
        total = self.insts.thread_instructions()
        return len(self.trace) / total if total else 0.0


class GridLauncher:
    """Builds buffers and runs a kernel function over a grid of blocks.

    ``record_streams`` retains per-access sector-address batches so the
    L2 cache model (:mod:`repro.sim.cache`) can replay the kernel's
    memory behaviour (costs memory; off by default).

    ``sanitize`` enables the runtime sanitizer
    (:mod:`repro.sim.sanitizer`): shared-memory race detection and the
    untraced-arithmetic probe.  ``None`` (the default) defers to the
    ``ST2_SANITIZE`` environment variable, so whole test runs can be
    sanitized without touching call sites.
    """

    def __init__(self, gpu: GPUConfig = TITAN_V, seed: int = 0,
                 record_streams: bool = False, sanitize: bool = None):
        self.gpu = gpu
        self.rng = np.random.default_rng(seed)
        self.alloc = Allocator()
        self.buffers: dict = {}
        self.record_streams = record_streams
        self.sanitize = env_sanitize_default() if sanitize is None \
            else sanitize

    def buffer(self, name: str, data: np.ndarray) -> DeviceBuffer:
        """Allocate and register a named device buffer."""
        buf = self.alloc.alloc(name, np.ascontiguousarray(data))
        self.buffers[name] = buf
        return buf

    def run(self, kernel_fn, launch: LaunchConfig, name: str = "",
            **params) -> KernelRun:
        """Execute ``kernel_fn(k, **params)`` once per block of the grid."""
        builder = TraceBuilder()
        pcs = PcTable()
        mem = MemoryStats(record_streams=self.record_streams)
        san = KernelSanitizer(name or kernel_fn.__name__) \
            if self.sanitize else None
        with obs.span("sim.functional.run"):
            for block_id in range(launch.grid_blocks):
                sm = block_id % self.gpu.n_sms
                if san is not None:
                    san.begin_block(block_id)
                ctx = BlockContext(launch, block_id, sm, builder, pcs,
                                   self.gpu, mem, sanitizer=san)
                kernel_fn(ctx, **params)
            if san is not None:
                san.finish()
            builder.pc_labels = pcs.labels
            trace, insts = builder.build()
        obs.add("sim.functional.blocks", launch.grid_blocks)
        obs.add("sim.functional.threads", launch.total_threads)
        obs.add("sim.functional.trace_rows", int(len(trace)))
        obs.add("sim.functional.warp_insts", int(len(insts)))
        return KernelRun(name=name or kernel_fn.__name__, launch=launch,
                         trace=trace, insts=insts, pc_table=pcs, mem=mem,
                         gpu=self.gpu, buffers=dict(self.buffers),
                         sanitizer=san)


def run_kernel(kernel_fn, launch: LaunchConfig, gpu: GPUConfig = TITAN_V,
               name: str = "", seed: int = 0, sanitize: bool = None,
               **params) -> KernelRun:
    """One-shot convenience wrapper around :class:`GridLauncher`."""
    return GridLauncher(gpu=gpu, seed=seed, sanitize=sanitize).run(
        kernel_fn, launch, name=name, **params)
