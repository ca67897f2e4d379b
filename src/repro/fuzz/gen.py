"""Seeded property-based generator of valid DSL kernels.

Kernel ``i`` of a run is a pure function of ``(seed, i)`` — per-kernel
RNG streams are derived by SHA-256, exactly like the runner's
``derive_unit_seed``, so budgets can grow without reshuffling earlier
kernels and a CI failure reproduces locally from its printed seed and
index alone.

The generator models the DSL's typing and scoping rules so every
program is *valid by construction*:

* three typed value pools (int / float / predicate vectors) feed
  operand selection; every statement draws only names already defined;
* shared memory is emitted as a race-free composite (each sequence
  allocates its own buffer, stores the thread's own cell, barriers,
  then loads an arbitrary cell — cross-warp *reads* after a barrier
  never race);
* ``syncthreads`` appears only where the mask is provably full
  (top level, counted loops) or under a **launch-uniform** ``k.where``
  condition derived from the scalar parameter ``n`` — the shape the
  flow analysis proves clean and the sanitizer must accept;
* a small fraction of kernels embeds a construct the IR lowering
  refuses (comprehension, ``try``, nested ``def``, dynamic
  ``k.inline`` tag): those must *execute* fine while the static
  analysis bails with no claims.

Every kernel ends by storing to both output buffers and is guaranteed
at least one 32-bit integer adder op, so the adder oracle always has
rows to check.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.fuzz.kast import (Alloc, Atom, Call, Inline, Loop, Op,
                             Program, Raw, Stmt, Where, program_ok)

#: binary integer ops and their draw weights (adder class dominant)
_INT_OPS: Tuple[Tuple[str, int], ...] = (
    ("iadd", 6), ("isub", 4), ("imin", 2), ("imax", 2), ("imul", 2),
    ("iand", 2), ("ior", 1), ("ixor", 2), ("idiv", 1), ("irem", 1),
)
_FLOAT_OPS: Tuple[Tuple[str, int], ...] = (
    ("fadd", 4), ("fsub", 3), ("fmul", 2), ("fmin", 1), ("fmax", 1),
    ("fdiv", 1), ("dadd", 1), ("dsub", 1), ("dmul", 1),
)
_UNARY_FLOAT = ("fneg", "fabs", "sqrt", "rsqrt", "rcp", "sin", "cos",
                "exp", "log")
_INT_CMPS = ("lt", "le", "gt", "ge", "eq", "ne")
_SHUFFLES = ("shfl_down", "shfl_up", "shfl_xor")

#: (kind, weight, max depth at which it may appear)
_STMT_KINDS: Tuple[Tuple[str, int, int], ...] = (
    ("int", 30, 9), ("float", 12, 9), ("unary", 6, 9), ("cmp", 4, 9),
    ("imad", 2, 9), ("ffma", 2, 9), ("sel", 2, 9), ("shift", 3, 9),
    ("load", 4, 9), ("store", 4, 9), ("shfl", 2, 9), ("reduce", 1, 9),
    ("atomic", 2, 9), ("where", 6, 1), ("loop", 4, 1), ("inline", 2, 1),
    ("shared", 3, 0), ("barrier", 1, 0), ("uniwhere", 2, 0),
    ("mma", 1, 9),
)


@dataclass(frozen=True)
class FuzzProfile:
    """Tunable envelope of the generator (kept small so a kernel runs
    in tens of milliseconds and a CI smoke budget covers hundreds)."""

    min_stmts: int = 4
    max_stmts: int = 11
    max_depth: int = 2
    block_min: int = 1
    block_max: int = 3
    p_evil: float = 0.08
    threads_choices: Tuple[int, ...] = (32, 64)
    blocks_choices: Tuple[int, ...] = (1, 2, 3)


DEFAULT_PROFILE = FuzzProfile()


@dataclass(frozen=True)
class GeneratedKernel:
    """One generated kernel plus everything needed to execute it."""

    name: str
    seed: int
    index: int
    program: Program
    source: str
    blocks: int
    threads: int
    data_seed: int

    @property
    def total_threads(self) -> int:
        return self.blocks * self.threads


def derive_stream(seed: int, index: int, tag: str = "gen") -> int:
    """A 64-bit per-kernel stream id, stable across processes."""
    digest = hashlib.sha256(
        f"st2-fuzz:{tag}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _Builder:
    """Mutable generation state for one kernel."""

    def __init__(self, rng: random.Random, profile: FuzzProfile,
                 threads: int, blocks: int) -> None:
        self.rng = rng
        self.profile = profile
        self.threads = threads
        self.blocks = blocks
        self.ints: List[str] = []
        self.floats: List[str] = []
        self.preds: List[str] = []
        # loop variables: plain Python ints, broadcast by every DSL op
        # except the shuffles (which index per-lane vectors)
        self.scalars: Set[str] = set()
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- operand selection --------------------------------------------

    def int_atom(self) -> Atom:
        rng = self.rng
        if self.ints and rng.random() < 0.62:
            return rng.choice(self.ints)
        pick = rng.random()
        if pick < 0.4:
            return rng.randrange(0, 16)
        if pick < 0.75:
            return rng.randrange(0, 1 << 16)
        return rng.randrange(0, 1 << 31)

    def float_atom(self) -> Atom:
        rng = self.rng
        if self.floats and rng.random() < 0.65:
            return rng.choice(self.floats)
        return round(rng.uniform(-4.0, 4.0), 3)

    def int_var(self) -> str:
        return self.rng.choice(self.ints)

    def int_vector(self) -> str:
        """An int variable guaranteed to be a per-lane vector."""
        pool = [v for v in self.ints if v not in self.scalars]
        return self.rng.choice(pool)

    # -- statements ---------------------------------------------------

    def statement(self, depth: int,
                  allow_barrier: bool) -> List[Stmt]:
        kinds = [(kind, weight) for kind, weight, max_d in _STMT_KINDS
                 if depth <= max_d
                 and (allow_barrier
                      or kind not in ("barrier", "shared", "uniwhere"))]
        total = sum(w for _, w in kinds)
        roll = self.rng.randrange(total)
        for kind, weight in kinds:
            roll -= weight
            if roll < 0:
                return self._emit(kind, depth, allow_barrier)
        raise AssertionError("unreachable")

    def _emit(self, kind: str, depth: int,
              allow_barrier: bool) -> List[Stmt]:
        rng = self.rng
        if kind == "int":
            method = _weighted(rng, _INT_OPS)
            dest = self.fresh("x")
            stmt = Op(dest, method, (self.int_atom(), self.int_atom()))
            self.ints.append(dest)
            return [stmt]
        if kind == "float":
            method = _weighted(rng, _FLOAT_OPS)
            dest = self.fresh("f")
            stmt = Op(dest, method,
                      (self.float_atom(), self.float_atom()))
            self.floats.append(dest)
            return [stmt]
        if kind == "unary":
            dest = self.fresh("f")
            if rng.random() < 0.25:
                stmt = Op(dest, "cvt_f32", (self.int_atom(),))
            elif rng.random() < 0.2:
                dest = self.fresh("x")
                stmt = Op(dest, "cvt_i32", (self.float_atom(),))
                self.ints.append(dest)
                return [stmt]
            else:
                stmt = Op(dest, rng.choice(_UNARY_FLOAT),
                          (self.float_atom(),))
            self.floats.append(dest)
            return [stmt]
        if kind == "cmp":
            dest = self.fresh("p")
            if self.floats and rng.random() < 0.3:
                stmt = Op(dest, rng.choice(("flt", "fgt")),
                          (self.float_atom(), self.float_atom()))
            else:
                stmt = Op(dest, rng.choice(_INT_CMPS),
                          (self.int_atom(), self.int_atom()))
            self.preds.append(dest)
            return [stmt]
        if kind == "imad":
            dest = self.fresh("x")
            stmt = Op(dest, "imad", (self.int_atom(), self.int_atom(),
                                     self.int_atom()))
            self.ints.append(dest)
            return [stmt]
        if kind == "ffma":
            dest = self.fresh("f")
            method = "dfma" if rng.random() < 0.25 else "ffma"
            stmt = Op(dest, method, (self.float_atom(),
                                     self.float_atom(),
                                     self.float_atom()))
            self.floats.append(dest)
            return [stmt]
        if kind == "sel":
            if not self.preds:
                return self._emit("cmp", depth, allow_barrier)
            dest = self.fresh("x")
            stmt = Op(dest, "sel", (rng.choice(self.preds),
                                    self.int_atom(), self.int_atom()))
            self.ints.append(dest)
            return [stmt]
        if kind == "shift":
            dest = self.fresh("x")
            stmt = Op(dest, rng.choice(("shl", "shr")),
                      (self.int_atom(), rng.randrange(0, 9)))
            self.ints.append(dest)
            return [stmt]
        if kind == "load":
            if rng.random() < 0.5:
                dest = self.fresh("x")
                stmt = Op(dest, "ld_global", ("ints", self.int_var()))
                self.ints.append(dest)
            else:
                dest = self.fresh("f")
                stmt = Op(dest, "ld_global", ("flts", self.int_var()))
                self.floats.append(dest)
            return [stmt]
        if kind == "store":
            if rng.random() < 0.5:
                return [Call("st_global", ("iout", self.int_var(),
                                           self.int_atom()))]
            return [Call("st_global", ("fout", self.int_var(),
                                       self.float_atom()))]
        if kind == "shfl":
            dest = self.fresh("x")
            stmt = Op(dest, rng.choice(_SHUFFLES),
                      (self.int_vector(), rng.randrange(1, 17)))
            self.ints.append(dest)
            return [stmt]
        if kind == "reduce":
            if self.floats and rng.random() < 0.4:
                dest = self.fresh("f")
                stmt = Op(dest, "warp_reduce_fadd",
                          (rng.choice(self.floats),))
                self.floats.append(dest)
            else:
                dest = self.fresh("x")
                stmt = Op(dest, "warp_reduce_iadd", (self.int_var(),))
                self.ints.append(dest)
            return [stmt]
        if kind == "atomic":
            dest = self.fresh("x")
            stmt = Op(dest, "atomic_add",
                      ("iout", self.int_var(), self.int_atom()))
            self.ints.append(dest)
            return [stmt]
        if kind == "mma":
            return [Call("tensor_mma", ())]
        if kind == "barrier":
            return [Call("syncthreads", ())]
        if kind == "shared":
            return self._shared_sequence()
        if kind == "uniwhere":
            return self._uniform_barrier()
        if kind == "where":
            if not self.preds:
                return self._emit("cmp", depth, allow_barrier)
            # pick the condition before generating the body: the body
            # may define new predicates, which are not in scope at the
            # `with k.where(...)` line itself
            cond = rng.choice(self.preds)
            body = self.block(depth + 1, allow_barrier=False)
            return [Where(cond, tuple(body))]
        if kind == "loop":
            var = self.fresh("i")
            trips = rng.randrange(2, 5)
            self.ints.append(var)
            self.scalars.add(var)
            body = self.block(depth + 1, allow_barrier=allow_barrier)
            # the loop variable is body-scoped: later statements must
            # not reference it (names first bound in the body stay
            # bound — the body always executes at least once)
            self.ints = [v for v in self.ints if v != var]
            self.scalars.discard(var)
            return [Loop(var, trips, tuple(body))]
        if kind == "inline":
            tag = self.fresh("s")
            body = self.block(depth + 1, allow_barrier=False)
            return [Inline(tag, tuple(body))]
        raise AssertionError(f"unknown kind {kind}")

    def _shared_sequence(self) -> List[Stmt]:
        """alloc → store own cell → barrier → load: race-free by
        construction (cross-warp reads happen after the barrier)."""
        rng = self.rng
        buf = self.fresh("sm")
        int_buf = rng.random() < 0.5
        dtype = "np.int64" if int_buf else "np.float32"
        value: Atom = self.int_atom() if int_buf else self.float_atom()
        idx = self.int_var()
        stmts: List[Stmt] = [
            Alloc(buf, self.threads, dtype),
            Call("st_shared", (buf, "t0", value)),
            Call("syncthreads", ()),
        ]
        dest = self.fresh("x" if int_buf else "f")
        stmts.append(Op(dest, "ld_shared", (buf, idx)))
        (self.ints if int_buf else self.floats).append(dest)
        return stmts

    def _uniform_barrier(self) -> List[Stmt]:
        """A barrier under a launch-uniform condition — at runtime the
        block mask is either all-true or all-false, never mixed.

        Three uniformity sources, deliberately different for the flow
        analysis: ``k.block_id`` / ``k.n_threads`` are context
        attributes it *proves* uniform (the barrier site is clean, L4
        is retracted — the classic ``if (blockIdx.x == 0)
        __syncthreads()`` pattern), while the scalar parameter ``n``
        is conservatively divergent (params of helper functions may be
        per-lane), so that variant stays lint-dirty yet must still be
        *consistent* with the sanitizer."""
        rng = self.rng
        pred = self.fresh("p")
        subject = rng.choice(("n", "k.block_id", "k.n_threads"))
        if subject == "k.block_id":
            bound = rng.randrange(1, self.blocks + 1)
        elif subject == "k.n_threads":
            bound = rng.randrange(1, 2 * self.threads + 1)
        else:
            bound = rng.randrange(1, 2 * self.threads * self.blocks + 1)
        cond = Op(pred, "lt", (subject, bound))
        dest = self.fresh("x")
        body: Tuple[Stmt, ...] = (
            Call("syncthreads", ()),
            Op(dest, "iadd", (self.int_atom(), self.int_atom())),
        )
        self.ints.append(dest)
        return [cond, Where(pred, body)]

    def _evil(self) -> List[Stmt]:
        """One construct the IR lowering refuses (sound-bail probe)."""
        rng = self.rng
        n = self.fresh("e")
        kind = rng.choice(("listcomp", "tryexcept", "nesteddef",
                           "dynscope"))
        if kind == "listcomp":
            return [Raw((f"_lc{n} = [k.iadd(t0, c) for c in (1, 2)]",),
                        uses=("t0",))]
        dest = self.fresh("x")
        self.ints.append(dest)
        if kind == "tryexcept":
            return [Raw(("try:",
                         f"    {dest} = k.iadd(t0, 3)",
                         "except ValueError:",
                         "    pass"),
                        uses=("t0",), defines=(dest,))]
        if kind == "nesteddef":
            return [Raw((f"def _h{n}():",
                         "    return k.iadd(t0, 1)",
                         f"{dest} = _h{n}()"),
                        uses=("t0",), defines=(dest,))]
        return [Raw(("with k.inline('d' + 'yn'):",
                     f"    {dest} = k.iadd(t0, 5)"),
                    uses=("t0",), defines=(dest,))]

    # -- block assembly -----------------------------------------------

    def block(self, depth: int, allow_barrier: bool) -> List[Stmt]:
        profile = self.profile
        if depth == 0:
            n = self.rng.randrange(profile.min_stmts,
                                   profile.max_stmts + 1)
        else:
            n = self.rng.randrange(profile.block_min,
                                   profile.block_max + 1)
        allow_barrier = allow_barrier and depth < profile.max_depth
        out: List[Stmt] = []
        for _ in range(n):
            out.extend(self.statement(depth, allow_barrier))
        return out


def _weighted(rng: random.Random,
              table: Sequence[Tuple[str, int]]) -> str:
    total = sum(w for _, w in table)
    roll = rng.randrange(total)
    for name, weight in table:
        roll -= weight
        if roll < 0:
            return name
    raise AssertionError("unreachable")


def generate_kernel(seed: int, index: int,
                    profile: Optional[FuzzProfile] = None
                    ) -> GeneratedKernel:
    """Kernel ``index`` of the seeded stream — a pure function of
    ``(seed, index, profile)``."""
    profile = profile or DEFAULT_PROFILE
    rng = random.Random(  # st2-lint: disable=L5 — explicitly seeded stream
        derive_stream(seed, index))
    threads = rng.choice(profile.threads_choices)
    blocks = rng.choice(profile.blocks_choices)
    builder = _Builder(rng, profile, threads, blocks)

    body: List[Stmt] = [
        Op("t0", "thread_id", ()),
        Op("g0", "global_id", ()),
        Op("x0", "iadd", ("t0", rng.randrange(1, 1 << 16))),
        Op("y0", "ld_global", ("ints", "t0")),
        Op("f0", "cvt_f32", ("g0",)),
        Op("p0", "lt", ("t0", rng.randrange(1, threads + 1))),
    ]
    builder.ints.extend(["t0", "g0", "x0", "y0"])
    builder.floats.append("f0")
    builder.preds.append("p0")

    body.extend(builder.block(0, allow_barrier=True))
    if rng.random() < profile.p_evil:
        position = rng.randrange(6, len(body) + 1)
        body[position:position] = builder._evil()
    body.append(Call("st_global", ("iout", "t0", builder.int_var())))
    body.append(Call("st_global",
                     ("fout", "t0", rng.choice(builder.floats))))

    program = Program(tuple(body))
    assert program_ok(program), "generator produced an invalid program"
    return GeneratedKernel(
        name=f"fuzz_s{seed}_i{index}",
        seed=seed, index=index, program=program,
        source=program.render(), blocks=blocks, threads=threads,
        data_seed=derive_stream(seed, index, "data") % (1 << 32))


def generate_batch(seed: int, budget: int,
                   profile: Optional[FuzzProfile] = None
                   ) -> List[GeneratedKernel]:
    """The first ``budget`` kernels of the seeded stream."""
    return [generate_kernel(seed, i, profile) for i in range(budget)]


__all__ = [
    "DEFAULT_PROFILE", "FuzzProfile", "GeneratedKernel",
    "derive_stream", "generate_batch", "generate_kernel",
]
