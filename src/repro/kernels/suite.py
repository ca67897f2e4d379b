"""The 23-kernel evaluation suite (paper Section V-A).

The kernel set and figure-axis names follow Figures 1, 6 and 7 exactly:
23 kernels from 17 workloads out of Rodinia, NVIDIA CUDA Samples and
Parboil.  (The paper's workload list also names cudaTensorCoreGemm, but
no tensor kernel appears on any figure axis — its FP32 accumulation path
is available as the :mod:`repro.kernels.tensor_gemm` extension.)

``run_suite`` executes every kernel once and caches the
:class:`~repro.sim.functional.KernelRun` per (name, scale, seed), since
several experiments (Figures 1, 3, 5, 6, 7) share the same traces.
"""

from __future__ import annotations

from repro.kernels import (backprop, binomial, btree, dct8x8, dwt2d,
                           histogram, kmeans, mergesort, mriq, pathfinder,
                           qrng, sad, sgemm, sobol, sorting_networks,
                           sradv1, walsh)
from repro.kernels.runtime import KernelSpec

SUITE = (
    KernelSpec("binomial", "BinomialOptions", "CUDA Samples",
               binomial.prepare, "binomial option pricing lattice"),
    KernelSpec("kmeans_K1", "kmeans", "Rodinia",
               kmeans.prepare, "nearest-centre assignment"),
    KernelSpec("sgemm", "sgemm", "Parboil",
               sgemm.prepare, "tiled FP32 matrix multiply"),
    KernelSpec("walsh_K1", "fastWalshTransform", "CUDA Samples",
               walsh.prepare_k1, "global strided Walsh butterflies"),
    KernelSpec("mri-q_K1", "mri-q", "Parboil",
               mriq.prepare, "non-Cartesian MRI Q computation"),
    KernelSpec("bprop_K2", "backprop", "Rodinia",
               backprop.prepare_k2, "momentum weight update"),
    KernelSpec("sradv1_K1", "sradv1", "Rodinia",
               sradv1.prepare, "SRAD diffusion coefficients"),
    KernelSpec("pathfinder", "pathfinder", "Rodinia",
               pathfinder.prepare, "grid dynamic programming"),
    KernelSpec("dwt2d_K1", "dwt2d", "Rodinia",
               dwt2d.prepare, "5/3 integer lifting wavelet"),
    KernelSpec("sortNets_K1", "sortingNetworks", "CUDA Samples",
               sorting_networks.prepare_k1, "shared-memory bitonic sort"),
    KernelSpec("qrng_K2", "quasirandomGenerator", "CUDA Samples",
               qrng.prepare_k2, "Moro inverse CND"),
    KernelSpec("bprop_K1", "backprop", "Rodinia",
               backprop.prepare_k1, "layer forward reduction"),
    KernelSpec("b+tree_K1", "b+tree", "Rodinia",
               btree.prepare_k1, "B+ tree point queries"),
    KernelSpec("histo_K1", "histogram", "CUDA Samples",
               histogram.prepare, "shared-memory histogram"),
    KernelSpec("dct8x8_K1", "dct8x8", "CUDA Samples",
               dct8x8.prepare, "8x8 block DCT"),
    KernelSpec("msort_K1", "mergeSort", "CUDA Samples",
               mergesort.prepare_k1, "shared-memory merge sort"),
    KernelSpec("walsh_K2", "fastWalshTransform", "CUDA Samples",
               walsh.prepare_k2, "shared-memory Walsh stage"),
    KernelSpec("sad_K1", "sad", "Parboil",
               sad.prepare, "4x4 sum of absolute differences"),
    KernelSpec("sobolQRNG", "SobolQRNG", "CUDA Samples",
               sobol.prepare, "Sobol' sequence generation"),
    KernelSpec("msort_K2", "mergeSort", "CUDA Samples",
               mergesort.prepare_k2, "rank-merge of sorted tiles"),
    KernelSpec("b+tree_K2", "b+tree", "Rodinia",
               btree.prepare_k2, "B+ tree range queries"),
    KernelSpec("sortNets_K2", "sortingNetworks", "CUDA Samples",
               sorting_networks.prepare_k2, "global bitonic merge pass"),
    KernelSpec("qrng_K1", "quasirandomGenerator", "CUDA Samples",
               qrng.prepare_k1, "Niederreiter point generation"),
)

KERNEL_NAMES = tuple(spec.name for spec in SUITE)

#: Extension kernels: the secondary kernels of suite workloads (and the
#: tensor-core workload the paper lists but does not plot).  Not part of
#: the 23-kernel evaluation; usable through the same machinery.
from repro.kernels import (affine_chain, dp_stencil, hotspot,  # noqa: E402
                           needle, reduction, tensor_gemm)

EXTENDED_SUITE = (
    KernelSpec("sradv1_K2", "sradv1", "Rodinia",
               sradv1.prepare_k2, "SRAD diffusion update step"),
    KernelSpec("dct8x8_K2", "dct8x8", "CUDA Samples",
               dct8x8.prepare_k2, "column DCT pass"),
    KernelSpec("histo_K2", "histogram", "CUDA Samples",
               histogram.prepare_merge, "partial-histogram merge"),
    KernelSpec("mri-q_K2", "mri-q", "Parboil",
               mriq.prepare_phimag, "phi magnitude precomputation"),
    KernelSpec("tensorGemm", "cudaTensorCoreGemm", "CUDA Samples",
               tensor_gemm.prepare, "tensor-core GEMM epilogue"),
    KernelSpec("reduction", "reduction", "CUDA Samples",
               reduction.prepare, "shuffle-based parallel reduction"),
    KernelSpec("jacobiDP", "jacobi", "HPC",
               dp_stencil.prepare, "double-precision Jacobi stencil"),
    KernelSpec("hotspot", "hotspot", "Rodinia",
               hotspot.prepare, "thermal simulation stencil"),
    KernelSpec("needle", "nw", "Rodinia",
               needle.prepare, "Needleman-Wunsch wavefront DP"),
    KernelSpec("affineChain", "affineChain", "Microbenchmark",
               affine_chain.prepare,
               "statically-pinned affine index chains (bounds witness)"),
)

EXTENDED_NAMES = tuple(spec.name for spec in EXTENDED_SUITE)

#: Named kernel groups the runner CLI and CI accept in place of an
#: explicit list.  ``smoke`` is a three-kernel subset (one slow tracer,
#: one mid, one fast) sized for CI smoke jobs.
KERNEL_GROUPS = {
    "all": KERNEL_NAMES,
    "extended": EXTENDED_NAMES,
    "full": KERNEL_NAMES + EXTENDED_NAMES,
    "smoke": ("binomial", "pathfinder", "qrng_K2"),
}


def resolve_kernels(spec) -> tuple:
    """Resolve a kernel selection into a tuple of suite kernel names.

    ``spec`` is a comma-separated string or an iterable; each element
    is a kernel name or a group from :data:`KERNEL_GROUPS`.  Order is
    preserved, duplicates dropped, unknown names raise ``KeyError``.
    """
    if isinstance(spec, str):
        spec = [s for s in spec.split(",") if s]
    names = []
    for item in spec:
        if item in KERNEL_GROUPS:
            names.extend(KERNEL_GROUPS[item])
        else:
            spec_by_name(item)      # raises KeyError with valid names
            names.append(item)
    seen = set()
    return tuple(n for n in names
                 if not (n in seen or seen.add(n)))


#: In-process memo of :func:`run_kernel` for library callers
#: (``run_suite``, ``evaluate_kernel``, ``st2-report``).  The runner,
#: sweeps and ``st2-serve`` never use it: they read traces from a
#: trace store.
_run_cache: dict = {}


def spec_by_name(name: str) -> KernelSpec:
    for spec in SUITE + EXTENDED_SUITE:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown kernel {name!r}; valid: "
                   f"{KERNEL_NAMES + EXTENDED_NAMES}")


def run_kernel(name: str, scale: float = 1.0, seed: int = 0,
               use_cache: bool = True):
    """Run (or fetch the cached run of) one suite kernel."""
    key = (name, scale, seed)
    if use_cache and key in _run_cache:
        return _run_cache[key]
    run = spec_by_name(name).run(scale=scale, seed=seed)
    if use_cache:
        _run_cache[key] = run
    return run


def run_suite(scale: float = 1.0, seed: int = 0, names=None,
              use_cache: bool = True) -> dict:
    """Execute the whole suite; returns ``{kernel name: KernelRun}``."""
    names = KERNEL_NAMES if names is None else names
    return {name: run_kernel(name, scale, seed, use_cache)
            for name in names}


def clear_cache() -> None:
    _run_cache.clear()
