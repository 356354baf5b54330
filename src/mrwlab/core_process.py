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

# The largest horizon the walk engines simulate: one replica takes about 2 s
# to reach it on the scalar path, so a horizon typed a few digits too long is
# refused rather than run for hours.
MAX_HORIZON = 10**8

# The row cap of a _kernel_calls kernel call: the most steps of a call, so a QSL
# call's scales and weights stay small, or of a position tile the most float64
# positions (at least 8 rows; _replica_ranges keeps an 8-row tile within this),
# so a tile stays in cache.
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


def _diffusive_damping(alpha: float) -> float:
    """The diffusive damping 1 - 2 alpha of the float alpha, refused with a ValueError
    when not positive: classify_regime decides in exact rationals, so a diffusive
    point can have float alpha 1/2 (q = 0.0007500000000000285, p = 0.50075)."""
    damping = 1.0 - 2.0 * alpha
    if damping <= 0.0:
        raise ValueError(
            f"the diffusive damping 1 - 2 alpha is {damping} at the float alpha = {alpha}, "
            "not positive although p - q < 1/2 exactly"
        )
    return damping


def _centre(params: ModelParams) -> float:
    """The centre q/(1 - alpha) of S_n/n, refused with a ValueError when the float
    1 - alpha is 0: at p = 1 with q below 2^-53 (say q = 2.2250738585072014e-308)."""
    if params.alpha == 1.0:
        raise ValueError(f"the centre q/(1 - alpha) is undefined: the float 1 - alpha is 0 at alpha = {params.alpha}")
    return params.q / (1.0 - params.alpha)


def _require(params: ModelParams, regime: Regime, what: str, actual: Regime | None = None) -> None:
    """Raise RegimeError naming what and the condition unless params lie in
    regime; actual, when given, is classify_regime(params), already parsed."""
    if actual is None:
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


@dataclass(frozen=True, slots=True)
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
    draw from the key and its counter. The class is slotted, because callers
    list one spec per replica: a spec holds its two fields and no __dict__.
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
    walk_positions_batch(params, n, [rng])[0]. An n below 1 or beyond
    MAX_HORIZON (10^8) is refused with a ValueError before anything is
    allocated.
    """
    chunks = walk_position_chunks(params, n, rng)
    positions = np.zeros(n + 1, dtype=np.int64)
    for k, values in chunks:
        positions[k : k + len(values)] = values
    return WalkPath(steps=np.diff(positions).astype(np.uint8), positions=positions)


def simulate_urn(params: ModelParams, n: int, rng: RngStreamSpec) -> UrnPath:
    """Simulate the two-color urn for n additions.

    Step 1 adds blue with probability s. Every later step consumes exactly
    two uniforms: one to draw a ball (blue with probability blue/m), one for
    the color response (add blue with probability p after blue, q after red).
    A horizon beyond MAX_HORIZON (10^8) is refused with a ValueError.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_horizon(n)
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
# The draws and the steps run in one C loop (walk_kernel.c), and the stream
# keys of listed specs are read by one C loop (stream_keys.c). Both sources
# are compiled together, with the fixed flags below, into one library on
# first use, cached in the package's __pycache__ under the digest of sources,
# flags and the CPython include directory, and named for the interpreter's
# extension ABI.
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_KERNEL_SOURCE = Path(__file__).with_name("walk_kernel.c")
_KEYS_SOURCE = Path(__file__).with_name("stream_keys.c")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_kernel_lock = threading.Lock()
_kernel = None  # the library's mrw_advance, bound at the first engine call
_read_keys = None  # the library's mrw_stream_keys, bound with it


class _KernelBuildError(RuntimeError):
    """The walk kernel could not be compiled."""


def _compile_kernel(target: Path, include: str) -> Path:
    if not Path(include, "Python.h").is_file():
        raise _KernelBuildError(
            f"the walk engine is compiled on first use against the CPython development headers, "
            f"but {include} holds no Python.h; install them (e.g. the python3-dev package)")
    try:
        done = subprocess.run(["cc", *_CFLAGS, "-I", include, "-o", str(target), str(_KERNEL_SOURCE),
                               str(_KEYS_SOURCE)], capture_output=True, text=True)
    except OSError as exc:
        raise _KernelBuildError(f"the walk engine is compiled on first use by the C compiler `cc`: {exc}") from None
    if done.returncode:
        raise _KernelBuildError(f"`cc` failed to compile {_KERNEL_SOURCE} and {_KEYS_SOURCE}: {done.stderr.strip()}")
    return target


def _bind_kernel(path: Path):
    fn = ctypes.CDLL(str(path)).mrw_advance
    # Arrays go as raw addresses, checked by _advance: numpy's ndpointer
    # conversion leaves cyclic garbage on every call.
    fn.argtypes = [*[ctypes.c_void_p] * 2, *[ctypes.c_int64] * 3, *[ctypes.c_double] * 3, *[ctypes.c_void_p] * 4,
                   ctypes.c_double, *[ctypes.c_int64] * 2]
    fn.restype = None
    return fn


def _bind_library(path: Path):
    """Bind the library's mrw_stream_keys to _read_keys, through PyDLL, which
    holds the interpreter lock and raises the exception the call sets, and
    return its mrw_advance, through CDLL, which releases the lock."""
    global _read_keys
    fn = ctypes.PyDLL(str(path)).mrw_stream_keys
    fn.argtypes = [ctypes.py_object, ctypes.py_object, ctypes.c_void_p, *[ctypes.c_ssize_t] * 3]
    fn.restype = ctypes.c_int
    _read_keys = fn
    return _bind_kernel(path)


def _load_kernel():
    """The library's mrw_advance (its key reader bound on the way, see
    _bind_library), built unless the cache holds it. The library calls into
    the CPython ABI, so its name carries the interpreter's extension suffix
    and no other interpreter loads it. A build is written to a temporary name
    and renamed into place, so concurrent processes never load a partial
    file."""
    import sysconfig

    include = sysconfig.get_path("include")
    digest = hashlib.sha256(b"\0".join([_KERNEL_SOURCE.read_bytes(), _KEYS_SOURCE.read_bytes(),
                                        " ".join(_CFLAGS).encode(), include.encode()])).hexdigest()
    path = _KERNEL_CACHE / f"walk_kernel-{digest}{sysconfig.get_config_var('EXT_SUFFIX')}"
    if path.exists():
        return _bind_library(path)
    try:
        _KERNEL_CACHE.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", dir=_KERNEL_CACHE)
    except OSError:
        # The package cannot be written: build privately for this process.
        # A loaded library outlives its file.
        private = tempfile.mkdtemp()
        try:
            return _bind_library(_compile_kernel(Path(private, path.name), include))
        finally:
            shutil.rmtree(private)
    os.close(fd)
    try:
        os.replace(_compile_kernel(Path(tmp), include), path)
    finally:
        Path(tmp).unlink(missing_ok=True)
    return _bind_library(path)


def _load_engine() -> None:
    """Load the library at the first engine call (or after _kernel is reset).
    Once it is loaded this returns without the lock: _read_keys is bound
    before _kernel, so a thread that sees _kernel sees _read_keys too."""
    global _kernel
    if _kernel is not None:
        return
    with _kernel_lock:
        if _kernel is None:
            _kernel = _load_kernel()


def _stream_keys(specs: Sequence[RngStreamSpec], lo: int = 0, hi: int | None = None) -> np.ndarray:
    """The Philox keys (master_seed, replica_index) of specs[lo:hi] (hi=None
    meaning len(specs)), one row each. A ReplicaRange fills its rows from its
    fields. Any other sequence is read by the library's mrw_stream_keys
    (stream_keys.c) in one pass over those items, each field converted as an
    unsigned 64-bit integer: an exact list or tuple in place, any other
    sequence as its slice specs[lo:hi]."""
    n = len(specs)
    hi = n if hi is None else hi
    keys = np.empty((hi - lo, 2), np.uint64)
    if isinstance(specs, ReplicaRange):
        r = specs.indices[lo:hi]
        keys[:, 0], keys[:, 1] = specs.master_seed, np.arange(r.start, r.stop, r.step, dtype=np.uint64)
        return keys
    if type(specs) is not list and type(specs) is not tuple:
        specs, lo, hi, n = specs[lo:hi], 0, hi - lo, hi - lo
    _load_engine()
    _read_keys(specs, RngStreamSpec, keys.__array_interface__["data"][0], lo, hi, n)
    return keys


def _address(a: np.ndarray | None, dtype, shape: tuple[int, ...], writeable: bool = False) -> int | None:
    """The data address of a, checked to be a C-contiguous array of dtype and
    shape (writeable, when asked), for the walk kernel; None (NULL) for None."""
    if a is None:
        return None
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous or (writeable and not a.flags.writeable):
        raise ValueError("walk kernel arguments disagree in type, shape or layout")
    return a.__array_interface__["data"][0]


def _advance(params: ModelParams, keys: np.ndarray, S: np.ndarray, m: int, steps: int, out=None, qsl=None) -> None:
    """Advance the replicas whose stream keys are the rows of keys through
    steps m+1 .. m+steps. S holds S_m per replica and is updated in place; it
    must be 0 at m = 0, since the kernel adds step 1 to it as it adds every
    other step. out, when given, receives S_{m+1+j} in row j. qsl, when
    given, is (scale, weight, centre, r, acc): at each of the last len(scale)
    steps k, in order, acc gains weight_k * (point^2)^r with point = scale_k *
    (S_k / k - centre), scale_k and weight_k being the entries of scale and
    weight for step k (see walk_kernel.c)."""
    R = len(S)
    scale, weight, centre, r, acc = qsl or (None, None, 0.0, 0, None)
    summed = 0 if qsl is None else len(scale)
    if summed > steps:
        raise ValueError("walk kernel arguments disagree in type, shape or layout")
    args = (_address(keys, np.uint64, (R, 2)), _address(S, np.float64, (R,), True), R, m, steps,
            params.s, params.q, params.alpha, _address(out, np.float64, (steps, R), True),
            _address(acc, np.float64, (R,), True), _address(scale, np.float64, (summed,)),
            _address(weight, np.float64, (summed,)), centre, r, m + steps + 1 - summed)
    _load_engine()
    _kernel(*args)


def _check_horizon(n: int) -> None:
    """Refuse with a ValueError a horizon n beyond MAX_HORIZON."""
    if n > MAX_HORIZON:
        raise ValueError(f"the horizon must be at most MAX_HORIZON = {MAX_HORIZON}, got {n}")


def _refuse_beyond_memory(need: int, what: str, hint: str = "") -> None:
    """Raise a ValueError naming what and its need bytes, before anything is
    allocated, when need exceeds the machine's physical memory."""
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise ValueError(f"{what} need {need} bytes, more than the {have} bytes of physical memory{hint}")


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
    memory, or an n beyond MAX_HORIZON (10^8), is refused with a ValueError
    before anything is allocated; use
    walk_checkpoints_batch when only selected steps are needed. threads=None
    runs on one worker per usable CPU; results are the same at any count.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_horizon(n)
    R = len(specs)
    _refuse_beyond_memory(R * (n + 1) * 4, f"{R} replicas x {n + 1} positions", "; use walk_checkpoints_batch")
    pos = np.zeros((R, n + 1), dtype=np.int32)

    def run_block(lo: int, hi: int) -> None:
        for m, tile in _kernel_calls(params, _stream_keys(specs, lo, hi), [n], tiles=True):
            pos[lo:hi, m + 1 : m + 1 + len(tile)] = tile.T

    _run_replica_blocks(R, run_block, threads)
    return pos


def _checkpoint_array(checkpoints: Sequence[int]) -> np.ndarray:
    """checkpoints as an int64 array, checked to be integral, strictly increasing step indices >= 1."""
    raw = np.asarray(checkpoints)
    with np.errstate(invalid="ignore"):
        cps = raw.astype(np.int64)
    if cps.ndim != 1 or cps.size == 0 or np.any(cps != raw) or cps[0] < 1 or np.any(np.diff(cps) <= 0):
        raise ValueError("checkpoints must be integral, strictly increasing and >= 1")
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
    RngStreamSpec). A checkpoint beyond MAX_HORIZON (10^8) is refused with a
    ValueError. Memory is at most replicas * (24 + 8 * len(checkpoints))
    bytes (the result, and the stream keys and positions of the replica
    ranges in flight), and a request beyond the machine's physical memory
    is refused with a ValueError before anything is allocated. threads=None
    runs on one worker per usable CPU; results are the same at any count.
    """
    cps = _checkpoint_array(checkpoints).tolist()
    _check_horizon(cps[-1])
    _refuse_beyond_memory(len(specs) * (24 + 8 * len(cps)), f"{len(specs)} replicas x {len(cps)} checkpoints")
    return _walk_ranges(params, cps, specs, threads)


def walk_position_chunks(
    params: ModelParams, n: int, rng: RngStreamSpec
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream one replica's positions S_1..S_n in chunks.

    Yields (k_start, values) where values[j] = S_{k_start + j}; the chunks
    start at steps 1, 1 + rows, 1 + 2 rows, ..., rows a multiple of 8 (see
    _kernel_calls). This is the batch engine run on the one replica [rng],
    so the values equal walk_positions_batch(params, n, [rng])[0, 1:]. An n
    below 1 or beyond MAX_HORIZON (10^8) is refused with a ValueError at the
    call.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_horizon(n)
    return ((m + 1, tile[:, 0]) for m, tile in _kernel_calls(params, _stream_keys([rng]), [n], tiles=True))


def _replica_ranges(R: int, threads: int) -> list[tuple[int, int]]:
    """Split replicas 0 .. R-1 into contiguous ranges (lo, hi), as even as the
    kernel's sets of 16 replicas allow (a whole set runs on its AVX-512 path,
    as one unit of 16 or within a unit of 32): at least
    min(threads, ceil(R/16)) of them, each a multiple of 16 wide but the
    last, and none wider than _TILE_VALUES // 8, so an 8-row position tile fits
    _TILE_VALUES. The cap also keeps a list's key passes short, so that one
    range's keys are read while another's kernel runs: a list of 131072 specs
    of 50 steps at two workers on a 2-vCPU Xeon takes 5.8-6.1 ms in 16 ranges,
    and 0.8-0.9 ms more in two uncapped ranges, whose key passes wait on each
    other for the interpreter lock; a ReplicaRange of as many takes 5.0-5.3 ms
    either way (medians of 60 alternating calls, in each of five processes).
    A 16384-replica cap read 3% less CPU and 0.7% less wall time on that list,
    and 0.8% less CPU on a replica_batch pass (10 alternating pairs each), but
    it would break the 8-row tile bound."""
    sets = -(-R // 16)
    parts = max(min(threads, sets), -(-sets // (_TILE_VALUES // 128)))
    bounds = [0] + [min(16 * (i * sets // parts), R) for i in range(1, parts + 1)]
    return list(zip(bounds, bounds[1:]))


_pool_lock = threading.Lock()
_pool = None


def _forget_pool() -> None:
    """Drop the helper pool in a forked child, where its threads do not exist."""
    global _pool_lock, _pool
    _pool_lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _helper_pool():
    """The process's pool of helper threads, one fewer than the usable CPUs,
    started by the first call that needs a helper."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, _usable_cpus() - 1), "mrwlab-helper")
        return _pool


def _run_replica_blocks(R: int, run_block, threads: int | None) -> None:
    """Run run_block(lo, hi) over the ranges of _replica_ranges, on threads
    workers, but never more than the CPUs this process may run on;
    threads=None means one per such CPU.

    The calling thread is one worker; the others are helpers from one pool
    kept for the life of the process, whose threads start as calls first
    need them, so a call does not spawn and join threads of its own; a call
    of one range or one worker never starts the pool. Every worker takes the
    next range as it finishes one. After the first
    error no range goes out; the call raises it once its helpers are done. A
    helper still queued when the ranges run out is cancelled, so a call never
    waits on a pool that other calls keep busy.

    A replica's values depend only on its stream key, and each range writes
    to a disjoint output slice, so results are identical for any partition,
    thread count or schedule.
    """
    threads = _usable_cpus() if threads is None else min(threads, _usable_cpus())
    bounds = _replica_ranges(R, threads)
    ranges, lock, errors = iter(bounds), threading.Lock(), []

    def drain() -> None:
        while True:
            with lock:
                bound = None if errors else next(ranges, None)
            if bound is None:
                return
            try:
                run_block(*bound)
            except BaseException as exc:  # raised by the caller below
                with lock:
                    errors.append(exc)

    helpers = min(threads, len(bounds)) - 1
    calls = [_helper_pool().submit(drain) for _ in range(helpers)]
    drain()
    for call in calls:
        if not call.cancel():
            call.result()
    if errors:
        raise errors[0]


def _kernel_calls(params: ModelParams, keys: np.ndarray, stops: list[int], tiles=False, out=None,
                  sums=None) -> Iterator[tuple[int, np.ndarray | None]]:
    """Walk the replicas whose stream keys are the rows of keys (see _stream_keys)
    to stops[-1] in kernel calls, and yield (m, tile) after the call of steps m+1 ..
    m+len(tile), where tile[j, i] = S_{m+1+j} of replica i in float64 when tiles,
    else None. A call ends at each of stops (increasing steps >= 1), where out[:, t]
    receives S at stops[t], and at each multiple of the row cap: _TILE_VALUES, or for
    tiles max(8, _TILE_VALUES // len(keys) // 8 * 8), so no tile starts inside a
    Philox block of 8 draws. Given sums = (first_step, scale_weight, centre, r), out
    (one value per replica) gains the kernel sum (see _advance) over steps
    first_step .. stops[-1] instead, scale_weight(k) giving the scales and weights."""
    R, m, qsl = len(keys), 0, None
    S = np.zeros(R)
    rows = max(8, _TILE_VALUES // R // 8 * 8) if tiles else _TILE_VALUES
    for t, stop in enumerate(stops):
        while m < stop:
            end = min(stop, m - m % rows + rows)
            tile = np.empty((end - m, R)) if tiles else None
            if sums:
                first_step, scale_weight, centre, r = sums
                k = np.arange(max(m + 1, first_step), end + 1, dtype=np.float64)
                qsl = (*scale_weight(k), centre, r, out)
            _advance(params, keys, S, m, end - m, tile, qsl)
            yield m, tile
            m = end
        if out is not None and not sums:
            out[:, t] = S


def _walk_ranges(params: ModelParams, stops: list[int], specs: Sequence[RngStreamSpec], threads: int | None, sums=None):
    """The float64 S of each replica of specs at each of stops, shape (len(specs),
    len(stops)), or given sums each replica's sum, as _kernel_calls walks each
    replica range, keyed in the worker that walks it."""
    out = np.empty((len(specs), len(stops))) if sums is None else np.zeros(len(specs))

    def run_block(lo: int, hi: int) -> None:
        for _ in _kernel_calls(params, _stream_keys(specs, lo, hi), stops, out=out[lo:hi], sums=sums):
            pass

    _run_replica_blocks(len(specs), run_block, threads)
    return out
