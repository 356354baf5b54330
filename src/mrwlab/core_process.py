"""Model parameters, trajectory simulation, and regime classification.

The walk starts at S_0 = 0 and takes {0,1}-valued steps. The first step is
Bernoulli(s). At step m >= 2 a past step index k is drawn uniformly from
{1, ..., m-1}; the new step is Bernoulli(q) if X_k = 0 and Bernoulli(p) if
X_k = 1. Averaging over the uniform index gives the equivalent one-step law

    P(X_m = 1 | past) = q + alpha * S_{m-1} / (m-1),    alpha := p - q,

which depends on the past only through (m, S_{m-1}). Both mechanisms are
implemented; their distributional equality is a test target, not an
assumption.

The same dynamics describe a two-color urn: add a blue ball with probability
s at step 1; afterwards draw a ball uniformly and add blue with probability
q after a red draw, p after a blue draw. The blue count after n additions is
distributed exactly as S_n.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Literal, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "Regime",
    "RegimeError",
    "RngStreamSpec",
    "WalkPath",
    "UrnState",
    "UrnPath",
    "classify_regime",
    "simulate_walk",
    "simulate_urn",
    "walk_positions_batch",
    "walk_checkpoints_batch",
    "walk_position_chunks",
    "default_threads",
]

# Replica axes are processed in fixed blocks of this many replicas so that
# results never depend on how blocks are scheduled across threads. The block
# size is a library constant, not a function of the thread count.
REPLICA_BLOCK = 16384

# Upper bound on steps generated per chunk, per replica. Chunk size does not
# affect the stream, since each chunk is read from its own offset; chunks are
# a multiple of 8 draws (one Philox counter step) and shrink for wide replica
# blocks to keep the uniform buffer near 128 MB.
STEP_CHUNK = 16384
_CHUNK_BUDGET = 32 * 1024 * 1024

# Replicas per staging tile of the uniform fill, and the edge of the square
# blocks in which a tile is transposed into the step-major chunk buffer; a
# 256 x 256 float32 block stays in cache on both sides of the copy.
FILL_TILE = 256

# Float64 positions per tile of _position_tiles, so that a tile and the
# reducers' temporaries of its shape stay in cache.
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


@dataclass(frozen=True)
class RngStreamSpec:
    """Addresses one reproducible random stream.

    The stream is the counter-based Philox engine keyed by the pair
    (master_seed, replica_index):

        np.random.Generator(np.random.Philox(
            key=np.array([master_seed, replica_index], dtype=np.uint64)))

    Distinct replica indices give statistically independent streams, and the
    stream is a pure function of the two fields, so any (master seed,
    replica) pair can be reproduced in isolation on any machine. The batch
    engines read these same streams without a Generator per replica: each
    replica block re-keys one Philox to every replica's key and offset.
    """

    master_seed: int
    replica_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must be an unsigned 64-bit integer")
        if self.replica_index < 0:
            raise ValueError("replica_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.replica_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def replica(self, index: int) -> "RngStreamSpec":
        """Spec for another replica under the same master seed."""
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


class UrnState:
    """Composition (red, blue) of the urn; red + blue equals the step count."""

    __slots__ = ("red", "blue")

    def __init__(self, red: int, blue: int):
        self.red = red
        self.blue = blue

    def __eq__(self, other) -> bool:
        return (self.red, self.blue) == (other.red, other.blue)

    def __repr__(self) -> str:
        return f"UrnState(red={self.red}, blue={self.blue})"


@dataclass
class UrnPath:
    """Urn composition after each addition; index k holds the state after k balls."""

    red: np.ndarray
    blue: np.ndarray

    @property
    def n(self) -> int:
        return len(self.red) - 1

    def state(self, k: int) -> UrnState:
        return UrnState(int(self.red[k]), int(self.blue[k]))

    def validate(self) -> None:
        total = self.red + self.blue
        if not np.array_equal(total, np.arange(len(self.red))):
            raise AssertionError("red + blue must equal the number of additions")


Mechanism = Literal["direct", "lookup"]


def simulate_walk(
    params: ModelParams,
    n: int,
    rng: RngStreamSpec,
    mechanism: Mechanism = "direct",
) -> WalkPath:
    """Simulate one trajectory of length n.

    mechanism="direct" draws one float64 uniform per step and thresholds it
    against q + alpha * S_{m-1}/(m-1). mechanism="lookup" samples the past
    index explicitly (one integer uniform on {1,...,m-1} plus one float64
    uniform per step) and responds to the looked-up step. The two mechanisms
    consume their streams differently and so produce different paths from
    the same spec, but identical distributions.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = rng.generator()
    steps = np.zeros(n, dtype=np.uint8)
    steps[0] = gen.random() < params.s
    if mechanism == "direct":
        alpha = params.alpha
        s_cur = int(steps[0])
        for m in range(1, n):
            prob = params.q + alpha * s_cur / m
            x = gen.random() < prob
            steps[m] = x
            s_cur += x
    elif mechanism == "lookup":
        for m in range(1, n):
            k = int(gen.integers(0, m))  # uniform past index, 0-based
            prob = params.p if steps[k] else params.q
            steps[m] = gen.random() < prob
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    positions = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(steps, out=positions[1:])
    return WalkPath(steps=steps, positions=positions)


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
# A chunk of uniforms is stored step-major (steps x replicas), so the step
# kernel reads one contiguous row per step. Each stream is drawn into a row
# of a replica-major staging tile, which is transposed into the chunk block
# by block (FILL_TILE). Only the storage order changes: every replica still
# reads its own stream, and every output byte is the same as with a
# replica-major buffer.
# ---------------------------------------------------------------------------


def default_threads() -> int:
    """Worker threads when none are given: MRWLAB_THREADS if it is a valid
    integer (at least 1), else the CPUs this process may run on."""
    env = os.environ.get("MRWLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_uniforms(
    gen: np.random.Generator, specs: Sequence[RngStreamSpec], k: int, U: np.ndarray, spare: np.ndarray
) -> None:
    """Fill column i of U with float32 draws k, k+1, ... of the stream of specs[i].

    gen's Philox is re-keyed per stream. A draw takes one uint32, a counter
    step yields eight and comes before its block, so after k draws the
    counter is k // 8 with the buffer spent; k % 8 more draws are then
    thrown away. Each stream fills a row of the staging tile, held in the
    flat float32 array spare (at least min(FILL_TILE, len(specs)) * len(U)
    long), and the tile is transposed into U block by block.
    """
    state = {"bit_generator": "Philox", "state": {"counter": [k // 8, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    bitgen = gen.bit_generator
    tile = FILL_TILE
    height = min(tile, len(specs))
    stage = spare[: height * len(U)].reshape(height, len(U))
    for lo in range(0, len(specs), tile):
        rows = stage[: min(tile, len(specs) - lo)]
        for row, spec in zip(rows, specs[lo : lo + tile]):
            key[:] = spec.master_seed, spec.replica_index
            bitgen.state = state
            if k % 8:
                gen.random(k % 8, dtype=np.float32)
            gen.random(out=row, dtype=np.float32)
        for j in range(0, len(U), tile):
            U[j : j + tile, lo : lo + len(rows)] = rows[:, j : j + tile].T


def _walk_block(params: ModelParams, specs: Sequence[RngStreamSpec], n: int):
    """Yield (m, S, U) per chunk of one replica block's walk to step n.

    S holds S_m per replica, from m = 1 on; the caller advances it in place
    through U, whose row j decides step m+1+j, before U is refilled.
    """
    gen = specs[0].generator()
    step = max(8, min(STEP_CHUNK, _CHUNK_BUDGET // len(specs)) // 8 * 8)
    # One allocation holds the chunk buffer and, after it, the staging tile,
    # so the tile is returned with the buffer; a tile allocated on its own
    # stays in the allocator's heap and raises later peaks by its size.
    R, rows = len(specs), min(step, n)
    mem = np.empty(rows * (R + min(FILL_TILE, R)), dtype=np.float32)
    buf = mem[: rows * R].reshape(rows, R)
    for k in range(0, n, step):
        U = buf[: min(step, n - k)]
        _fill_uniforms(gen, specs, k, U, mem[rows * R :])
        if k == 0:
            S = (U[0].astype(np.float64) < params.s).astype(np.float64)
            k, U = 1, U[1:]
        yield k, S, U


def _advance_block(
    S: np.ndarray, m_start: int, U: np.ndarray, q: float, alpha: float, out: np.ndarray | None = None
) -> None:
    """Advance all replicas through steps m_start+1 .. m_start+len(U).

    S holds S_{m_start} per replica and is updated in place. When out is
    given, row j receives S after step m_start+1+j.
    """
    for j in range(len(U)):
        m = m_start + j
        prob = q + (alpha / m) * S
        S += U[j] < prob
        if out is not None:
            out[j] = S


def _position_tiles(params: ModelParams, specs: Sequence[RngStreamSpec], n: int):
    """Yield (k, tile) over one replica block's walk to step n, where
    tile[j, i] = S_{k+j} of specs[i] in float64: first the tile [S_1] alone,
    then tiles of at most max(1, _TILE_VALUES // len(specs)) steps."""
    rows = max(1, _TILE_VALUES // len(specs))
    for m, S, U in _walk_block(params, specs, n):
        if m == 1:
            yield 1, S[None].copy()
        for j in range(0, len(U), rows):
            tile = np.empty((min(rows, len(U) - j), len(specs)), dtype=np.float64)
            _advance_block(S, m + j, U[j : j + rows], params.q, params.alpha, tile)
            yield m + 1 + j, tile


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
    runs on default_threads() workers; results are the same at any count.
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
        for m, S, U in _walk_block(params, specs[lo:hi], n):
            pos[lo:hi, m] = S
            _advance_block(S, m, U, params.q, params.alpha, pos[lo:hi, m + 1 : m + 1 + len(U)].T)

    _run_replica_blocks(R, run_block, threads)
    return pos


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
    runs on default_threads() workers; results are the same at any count.
    """
    cps = [int(c) for c in checkpoints]
    if not cps or any(c < 1 for c in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing and >= 1")
    n = cps[-1]
    R = len(specs)
    out = np.empty((R, len(cps)), dtype=np.float64)

    def run_block(lo: int, hi: int) -> None:
        next_cp = 0
        for m, S, U in _walk_block(params, specs[lo:hi], n):
            # Split the chunk at checkpoint boundaries so S can be recorded.
            done = 0
            while next_cp < len(cps) and cps[next_cp] <= m + len(U):
                _advance_block(S, m + done, U[done : cps[next_cp] - m], params.q, params.alpha)
                done = cps[next_cp] - m
                out[lo:hi, next_cp] = S
                next_cp += 1
            _advance_block(S, m + done, U[done:], params.q, params.alpha)

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


def _run_replica_blocks(R: int, run_block, threads: int | None) -> None:
    """Run run_block(lo, hi) over fixed replica blocks, optionally threaded;
    threads=None means default_threads().

    The block partition is a constant of the library (REPLICA_BLOCK), never a
    function of the thread count, and each block writes to a disjoint output
    slice, so results are identical for any thread count or schedule.
    """
    if threads is None:
        threads = default_threads()
    bounds = [(lo, min(lo + REPLICA_BLOCK, R)) for lo in range(0, R, REPLICA_BLOCK)]
    if threads <= 1 or len(bounds) == 1:
        for lo, hi in bounds:
            run_block(lo, hi)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(lambda b: run_block(*b), bounds))
