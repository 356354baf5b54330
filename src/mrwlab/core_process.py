"""Model parameters, trajectory simulation, and regime classification.

The walk starts at S_0 = 0 and takes {0,1}-valued steps. The first step is
Bernoulli(s). At step m >= 2 a past step index k is drawn uniformly from
{1, ..., m-1}; the new step is Bernoulli(q) if X_k = 0 and Bernoulli(p) if
X_k = 1. Averaging over the uniform index gives the equivalent one-step law

    P(X_m = 1 | past) = q + alpha * S_{m-1} / (m-1),    alpha := p - q,

which depends on the past only through (m, S_{m-1}); the walk engine steps
by this law. The same dynamics describe a two-color urn: add a blue ball with
probability s at step 1; afterwards draw a ball uniformly and add blue with
probability q after a red draw, p after a blue draw. A drawn ball is blue
with probability S_m/m, the chance that a drawn past step is a 1, so the
blue count after n additions is distributed exactly as S_n. simulate_urn
runs this literal draw-and-respond mechanism; the equality of the two laws
is a test target, not an assumption.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from numpy.ctypeslib import ndpointer

__all__ = [
    "ModelParams",
    "Regime",
    "RegimeError",
    "RngStreamSpec",
    "ReplicaRange",
    "WalkPath",
    "UrnPath",
    "classify_regime",
    "simulate_walk",
    "simulate_urn",
    "walk_positions_batch",
    "walk_checkpoints_batch",
    "walk_position_chunks",
]

# Float64 positions per _position_tiles tile (tiles are at least 8 steps
# tall, and _replica_ranges keeps a range's 8-row tile within this), so that
# a tile and the reducers' temporaries of its shape stay in cache.
_TILE_VALUES = 1 << 16


@dataclass(frozen=True)
class ModelParams:
    """Parameters (s, q, p) of the walk; the memory parameter is alpha = p - q.

    s is the success probability of the first step, q the response to an
    observed 0, p the response to an observed 1. Ranges: 0 < s < 1,
    0 < q <= 1, 0 <= p <= 1. q = 0 is rejected.
    """

    s: float
    q: float
    p: float

    def __post_init__(self) -> None:
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if not (0.0 < self.q <= 1.0):
            raise ValueError(f"q must lie in (0, 1], got {self.q}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @property
    def alpha(self) -> float:
        return self.p - self.q


class Regime(Enum):
    DIFFUSIVE = "diffusive"
    CRITICAL = "critical"
    SUPERDIFFUSIVE = "superdiffusive"


class RegimeError(ValueError):
    """An operation was asked to run outside the regime its limit law covers."""


def classify_regime(params: ModelParams) -> Regime:
    """Classify by comparing alpha with 1/2 exactly, alpha being taken as
    Fraction(repr(p)) - Fraction(repr(q)): q = 0.2, p = 0.7 is critical
    although the float p - q is 0.49999999999999994.
    """
    a = Fraction(repr(float(params.p))) - Fraction(repr(float(params.q)))
    if a < 0.5:
        return Regime.DIFFUSIVE
    if a == 0.5:
        return Regime.CRITICAL
    return Regime.SUPERDIFFUSIVE


def _require(params: ModelParams, regime: Regime, what: str) -> None:
    """Raise RegimeError naming what and the condition unless params lie in regime."""
    actual = classify_regime(params)
    if actual is not regime:
        cond = {
            Regime.DIFFUSIVE: "alpha < 1/2",
            Regime.CRITICAL: "alpha = 1/2",
            Regime.SUPERDIFFUSIVE: "alpha > 1/2",
        }[regime]
        raise RegimeError(
            f"{what} requires {cond}; got alpha = {params.alpha} ({actual.value})"
        )


@dataclass(frozen=True)
class RngStreamSpec:
    """Addresses one reproducible random stream.

    The stream is the counter-based Philox engine keyed by the pair
    (master_seed, replica_index):

        np.random.Generator(np.random.Philox(
            key=np.array([master_seed, replica_index], dtype=np.uint64)))

    Distinct replica indices give statistically independent streams, and the
    stream is a pure function of the two fields, so any (master seed,
    replica) pair can be reproduced in isolation on any machine. Both fields
    are unsigned 64-bit integers. The batch engines read these same streams
    without a Generator per replica: the compiled walk kernel computes each
    draw from the key and its counter.
    """

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if not (0 <= self.replica_index < 2**64):
            raise ValueError("replica_index must be an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.replica_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def replicas(self, count: int) -> ReplicaRange:
        """The specs of replicas replica_index .. replica_index + count - 1
        under this master seed."""
        if count < 0:
            raise ValueError("the replica count must be nonnegative")
        if self.replica_index + count > 2**64:
            raise ValueError(f"replicas from {self.replica_index} on reach past replica_index 2**64 - 1")
        return ReplicaRange(self.master_seed, range(self.replica_index, self.replica_index + count))


@dataclass(frozen=True)
class ReplicaRange(Sequence[RngStreamSpec]):
    """The specs RngStreamSpec(master_seed, i) for i in indices, as built by
    RngStreamSpec.replicas. Its slices are ReplicaRanges, and the engines key
    its streams from the two fields without a spec object per replica."""

    master_seed: int
    indices: range

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i):
        index = self.indices[i]
        if isinstance(index, range):
            return ReplicaRange(self.master_seed, index)
        return RngStreamSpec(self.master_seed, index)


@dataclass
class WalkPath:
    """One trajectory: steps X_1..X_n and positions S_0..S_n."""

    steps: np.ndarray
    positions: np.ndarray

    @property
    def n(self) -> int:
        return len(self.steps)

    def validate(self) -> None:
        if self.positions[0] != 0:
            raise AssertionError("S_0 must be 0")
        diffs = np.diff(self.positions)
        if not np.array_equal(diffs, self.steps):
            raise AssertionError("positions must be cumulative sums of steps")
        k = np.arange(len(self.positions))
        if np.any(self.positions < 0) or np.any(self.positions > k):
            raise AssertionError("0 <= S_k <= k violated")


@dataclass
class UrnPath:
    """Urn composition after each addition; index k holds the state after k balls."""

    red: np.ndarray
    blue: np.ndarray

    @property
    def n(self) -> int:
        return len(self.red) - 1

    def validate(self) -> None:
        total = self.red + self.blue
        if not np.array_equal(total, np.arange(len(self.red))):
            raise AssertionError("red + blue must equal the number of additions")


def simulate_walk(params: ModelParams, n: int, rng: RngStreamSpec) -> WalkPath:
    """Simulate one trajectory of length n.

    Reads the walk engine's stream of rng (one float32 uniform per step, see
    walk_position_chunks), so its positions equal
    walk_positions_batch(params, n, [rng])[0].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    positions = np.zeros(n + 1, dtype=np.int64)
    for k, values in walk_position_chunks(params, n, rng):
        positions[k : k + len(values)] = values
    return WalkPath(steps=np.diff(positions).astype(np.uint8), positions=positions)


def simulate_urn(params: ModelParams, n: int, rng: RngStreamSpec) -> UrnPath:
    """Simulate the two-color urn for n additions.

    Step 1 adds blue with probability s. Every later step consumes exactly
    two uniforms: one to draw a ball (blue with probability blue/m), one for
    the color response (add blue with probability p after blue, q after red).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = rng.generator()
    blue = np.zeros(n + 1, dtype=np.int64)
    blue[1] = gen.random() < params.s
    b = int(blue[1])
    for m in range(1, n):
        drew_blue = gen.random() * m < b
        resp = params.p if drew_blue else params.q
        b += gen.random() < resp
        blue[m + 1] = b
    red = np.arange(n + 1, dtype=np.int64) - blue
    return UrnPath(red=red, blue=blue)


# ---------------------------------------------------------------------------
# Batched engines.
#
# These vectorize across replicas and are the workhorses of the Monte Carlo
# harness. Each replica consumes float32 uniforms from its own Philox stream,
# one per step, in step order. float32 generation is about twice as fast as
# float64 and quantizes each step probability by at most 2^-24, which is
# orders of magnitude below every statistical tolerance in this package.
# Positions are accumulated in float64, so counts stay exact far beyond any
# supported horizon.
#
# The draws and the steps run in one C loop (walk_kernel.c), compiled with
# the fixed flags below on first use and cached in the package's
# __pycache__ under the digest of source and flags.
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_KERNEL_SOURCE = Path(__file__).with_name("walk_kernel.c")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_kernel_lock = threading.Lock()
_kernel = None


class _KernelBuildError(RuntimeError):
    """The walk kernel could not be compiled."""


def _compile_kernel(target: Path) -> Path:
    try:
        done = subprocess.run(["cc", *_CFLAGS, "-o", str(target), str(_KERNEL_SOURCE)],
                              capture_output=True, text=True)
    except OSError as exc:
        raise _KernelBuildError(f"the walk engine is compiled on first use by the C compiler `cc`: {exc}") from None
    if done.returncode:
        raise _KernelBuildError(f"`cc` failed to compile {_KERNEL_SOURCE}: {done.stderr.strip()}")
    return target


def _bind_kernel(path: Path):
    fn = ctypes.CDLL(str(path)).mrw_advance
    f64 = ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
    # The output tile may be None, which the kernel reads as NULL: no tile.
    tile = type("tile", (f64,), {"from_param": classmethod(lambda cls, a: a if a is None else f64.from_param(a))})
    fn.argtypes = [ndpointer(np.uint64, 2, flags="C_CONTIGUOUS"), f64, *[ctypes.c_int64] * 3,
                   *[ctypes.c_double] * 3, tile]
    fn.restype = None
    return fn


def _load_kernel():
    """The kernel's mrw_advance, built unless the cache holds it. A build is
    written to a temporary name and renamed into place, so concurrent
    processes never load a partial file."""
    digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
    path = _KERNEL_CACHE / f"walk_kernel-{digest}.so"
    if path.exists():
        return _bind_kernel(path)
    try:
        _KERNEL_CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", dir=_KERNEL_CACHE)
    except OSError:
        # The package cannot be written: build privately for this process.
        # A loaded library outlives its file.
        private = tempfile.mkdtemp()
        try:
            return _bind_kernel(_compile_kernel(Path(private, path.name)))
        finally:
            shutil.rmtree(private)
    os.close(fd)
    try:
        os.replace(_compile_kernel(Path(tmp)), path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return _bind_kernel(path)


def _stream_keys(specs: Sequence[RngStreamSpec]) -> np.ndarray:
    """The Philox keys (master_seed, replica_index) of specs, one row each.
    A ReplicaRange fills its rows from its fields; any other sequence takes
    two flat passes, not a list of pairs: a third of the time and memory."""
    keys = np.empty((len(specs), 2), np.uint64)
    if isinstance(specs, ReplicaRange):
        r = specs.indices
        keys[:, 0], keys[:, 1] = specs.master_seed, np.arange(r.start, r.stop, r.step, dtype=np.uint64)
    else:
        keys[:, 0] = np.fromiter((s.master_seed for s in specs), np.uint64, len(specs))
        keys[:, 1] = np.fromiter((s.replica_index for s in specs), np.uint64, len(specs))
    return keys


def _advance(params: ModelParams, keys: np.ndarray, S: np.ndarray, m: int, steps: int, out=None) -> None:
    """Advance the replicas whose stream keys are the rows of keys through
    steps m+1 .. m+steps. S holds S_m per replica (zeros at m = 0) and is
    updated in place; out, when given, receives S_{m+1+j} in row j."""
    global _kernel
    if keys.shape != (len(S), 2) or (out is not None and out.shape != (steps, len(S))):
        raise ValueError("walk kernel arguments disagree in shape")
    with _kernel_lock:
        if _kernel is None:
            _kernel = _load_kernel()
    _kernel(keys, S, len(S), m, steps, params.s, params.q, params.alpha, out)


def _position_tiles(params: ModelParams, specs: Sequence[RngStreamSpec], n: int):
    """Yield (k, tile) over the walks of specs to step n, where tile[j, i] =
    S_{k+j} of specs[i] in float64: first [S_1] alone, then tiles ending at
    multiples of rows steps (_TILE_VALUES // len(specs), rounded down to a
    multiple of 8, at least 8), so that no kernel call after the second starts
    inside a Philox block of 8 draws, whose uniforms it would compute again."""
    keys, S = _stream_keys(specs), np.zeros(len(specs))
    rows = max(8, _TILE_VALUES // len(specs) // 8 * 8)
    m = 0
    while m < n:
        tile = np.empty((min(rows - m % rows, n - m) if m else 1, len(specs)))
        _advance(params, keys, S, m, len(tile), tile)
        m += len(tile)
        yield m + 1 - len(tile), tile


def walk_positions_batch(
    params: ModelParams,
    n: int,
    specs: Sequence[RngStreamSpec],
    threads: int | None = None,
) -> np.ndarray:
    """Full position trajectories for many replicas.

    Returns an int32 array of shape (len(specs), n+1) with S_0..S_n per row;
    row i reads the stream of specs[i] (see RngStreamSpec). Memory is
    replicas * (n+1) * 4 bytes, and a request beyond the machine's physical
    memory is refused with a ValueError before anything is allocated; use
    walk_checkpoints_batch when only selected steps are needed. threads=None
    runs on one worker per usable CPU; results are the same at any count.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    R = len(specs)
    need = R * (n + 1) * 4
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(
            f"{R} replicas x {n + 1} positions need {need} bytes, more than the "
            f"{have} bytes of physical memory; use walk_checkpoints_batch"
        )
    pos = np.zeros((R, n + 1), dtype=np.int32)

    def run_block(lo: int, hi: int) -> None:
        for k, tile in _position_tiles(params, specs[lo:hi], n):
            pos[lo:hi, k : k + len(tile)] = tile.T

    _run_replica_blocks(R, run_block, threads)
    return pos


def _checkpoint_array(checkpoints: Sequence[int]) -> np.ndarray:
    """checkpoints as an int64 array, checked to be strictly increasing step indices >= 1."""
    cps = np.array(checkpoints, dtype=np.int64)
    if cps.ndim != 1 or cps.size == 0 or cps[0] < 1 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    return cps


def walk_checkpoints_batch(
    params: ModelParams,
    checkpoints: Sequence[int],
    specs: Sequence[RngStreamSpec],
    threads: int | None = None,
) -> np.ndarray:
    """Positions at selected steps only, in O(replicas) memory.

    checkpoints must be strictly increasing positive step indices. Returns a
    float64 array of shape (len(specs), len(checkpoints)) whose column t
    holds S at checkpoints[t]; row i reads the stream of specs[i] (see
    RngStreamSpec). Supports horizons up to 10^8 per replica. threads=None
    runs on one worker per usable CPU; results are the same at any count.
    """
    cps = _checkpoint_array(checkpoints).tolist()
    R = len(specs)
    out = np.empty((R, len(cps)), dtype=np.float64)
    keys = _stream_keys(specs)

    def run_block(lo: int, hi: int) -> None:
        S = np.zeros(hi - lo)
        for t, (m, c) in enumerate(zip([0] + cps, cps)):
            _advance(params, keys[lo:hi], S, m, c - m)
            out[lo:hi, t] = S

    _run_replica_blocks(R, run_block, threads)
    return out


def walk_position_chunks(
    params: ModelParams, n: int, rng: RngStreamSpec
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream one replica's positions S_1..S_n in chunks.

    Yields (k_start, values) where values[j] = S_{k_start + j}; the first
    chunk is (1, [S_1]). This is the batch engine run on the one replica
    [rng], so the values equal walk_positions_batch(params, n, [rng])[0, 1:].
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    for k, tile in _position_tiles(params, [rng], n):
        yield k, tile[:, 0]


def _replica_ranges(R: int, threads: int) -> list[tuple[int, int]]:
    """Split replicas 0 .. R-1 into contiguous ranges (lo, hi), as even as the
    kernel's groups of 8 lanes allow: at least min(threads, ceil(R/8)) of
    them, each a multiple of 8 wide but the last, and none wider than
    _TILE_VALUES // 8, so that an 8-row position tile holds at most
    _TILE_VALUES values."""
    groups = -(-R // 8)
    parts = max(min(threads, groups), -(-groups // (_TILE_VALUES // 64)))
    bounds = [0] + [min(8 * (i * groups // parts), R) for i in range(1, parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _run_replica_blocks(R: int, run_block, threads: int | None) -> None:
    """Run run_block(lo, hi) over the ranges of _replica_ranges, on threads
    workers, but never more than the CPUs this process may run on;
    threads=None means one per such CPU.

    A replica's values depend only on its stream key, and each range writes
    to a disjoint output slice, so results are identical for any partition,
    thread count or schedule.
    """
    threads = _usable_cpus() if threads is None else min(threads, _usable_cpus())
    bounds = _replica_ranges(R, threads)
    if threads <= 1 or len(bounds) <= 1:
        for lo, hi in bounds:
            run_block(lo, hi)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda b: run_block(*b), bounds))
