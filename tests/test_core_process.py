import subprocess
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrwlab
import mrwlab.core_process as cp
from mrwlab import (
    ModelParams,
    Regime,
    ReplicaRange,
    RngStreamSpec,
    classify_regime,
    exact_distribution,
    qsl_functional_batch,
    simulate_urn,
    simulate_walk,
    total_variation,
    walk_checkpoints_batch,
    walk_position_chunks,
    walk_positions_batch,
)


# ---------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "s,q,p",
    [(0.0, 0.5, 0.5), (1.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 1.1, 0.5),
     (0.5, 0.5, -0.1), (0.5, 0.5, 1.1)],
)
def test_invalid_params_rejected(s, q, p):
    with pytest.raises(ValueError):
        ModelParams(s=s, q=q, p=p)


def test_boundary_params_allowed():
    ModelParams(s=0.5, q=1.0, p=1.0)
    ModelParams(s=0.5, q=0.3, p=0.0)


def test_alpha_is_exactly_p_minus_q():
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    assert params.alpha == 0.75 - 0.25


@pytest.mark.parametrize(
    "q,p,expected",
    [
        (0.25, 0.75, Regime.CRITICAL),
        (0.5, 0.5, Regime.DIFFUSIVE),
        (0.1, 0.9, Regime.SUPERDIFFUSIVE),
        # 0.7 - 0.2 is 0.49999999999999994 in floats; alpha is read from the decimals.
        (0.2, 0.7, Regime.CRITICAL),
    ],
)
def test_regime_classification(q, p, expected):
    assert classify_regime(ModelParams(s=0.5, q=q, p=p)) is expected


# ---------------------------------------------------------------- single walks


def test_walk_rejects_zero_steps():
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    with pytest.raises(ValueError):
        simulate_walk(params, 0, RngStreamSpec(1))


@settings(max_examples=25, deadline=None)
@given(
    s=st.floats(0.05, 0.95),
    q=st.floats(0.05, 1.0),
    p=st.floats(0.0, 1.0),
    n=st.integers(1, 200),
    seed=st.integers(0, 2**32),
)
def test_walk_path_validity(s, q, p, n, seed):
    params = ModelParams(s=s, q=q, p=p)
    path = simulate_walk(params, n, RngStreamSpec(seed))
    path.validate()
    assert path.n == n


def test_walk_deterministic_per_stream():
    params = ModelParams(s=0.3, q=0.4, p=0.8)
    a = simulate_walk(params, 300, RngStreamSpec(7, 1))
    b = simulate_walk(params, 300, RngStreamSpec(7, 1))
    c = simulate_walk(params, 300, RngStreamSpec(7, 2))
    assert np.array_equal(a.steps, b.steps)
    assert not np.array_equal(a.steps, c.steps)


def test_all_ones_when_q_and_p_are_one():
    # Every conditional probability equals 1, so S_n = X_1 + n - 1.
    params = ModelParams(s=0.5, q=1.0, p=1.0)
    for seed in range(5):
        path = simulate_walk(params, 100, RngStreamSpec(seed))
        assert path.positions[-1] == path.steps[0] + 99


def test_first_step_mean_matches_s():
    params = ModelParams(s=0.3, q=0.5, p=0.5)
    specs = [RngStreamSpec(11, i) for i in range(4000)]
    finals = walk_checkpoints_batch(params, [1], specs)[:, 0]
    assert set(np.unique(finals)) <= {0.0, 1.0}
    # 5 sigma binomial bound around s
    assert abs(finals.mean() - 0.3) < 5 * np.sqrt(0.3 * 0.7 / 4000)


def test_two_step_mean_matches_enumeration():
    # E[S_2] = q + (1 + alpha) s = 1.0 for (s, q, p) = (0.5, 0.25, 0.75).
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    expected = params.q + (1 + params.alpha) * params.s
    assert expected == 1.0
    specs = [RngStreamSpec(3, i) for i in range(20000)]
    finals = walk_checkpoints_batch(params, [2], specs)[:, 0]
    sd = np.sqrt(finals.var() / len(finals))
    assert abs(finals.mean() - expected) < 5 * sd


def test_lookup_mechanism_conditional_law():
    # The urn's draw-and-respond step is the walk's memory lookup: among
    # replicas with j blue balls after 5 additions, the frequency of a blue
    # addition at step 6 must approach q + alpha * j / 5.
    params = ModelParams(s=0.5, q=0.3, p=0.9)
    reps = 20000
    s5 = np.empty(reps)
    x6 = np.empty(reps)
    for i in range(reps):
        blue = simulate_urn(params, 6, RngStreamSpec(99, i)).blue
        s5[i] = blue[5]
        x6[i] = blue[6] - blue[5]
    for j in range(6):
        mask = s5 == j
        count = int(mask.sum())
        if count < 300:
            continue
        target = params.q + params.alpha * j / 5
        freq = x6[mask].mean()
        assert abs(freq - target) < 5 * np.sqrt(target * (1 - target) / count)


def test_mechanisms_share_one_distribution():
    # Exact DP law vs the empirical laws of the walk engine and of the
    # urn's draw-and-respond mechanism at n = 12.
    params = ModelParams(s=0.5, q=0.3, p=0.8)
    n = 12
    exact = exact_distribution(params, n).probs
    steppers = (
        lambda spec: simulate_walk(params, n, spec).positions[-1],
        lambda spec: simulate_urn(params, n, spec).blue[-1],
    )
    for final in steppers:
        finals = np.array([final(RngStreamSpec(5, i)) for i in range(4000)])
        emp = np.bincount(finals, minlength=n + 1) / len(finals)
        assert total_variation(emp, exact) < 0.03


# ---------------------------------------------------------------- urn


def test_urn_rejects_zero_steps():
    with pytest.raises(ValueError):
        simulate_urn(ModelParams(s=0.5, q=0.5, p=0.5), 0, RngStreamSpec(1))


def test_urn_counts_and_determinism():
    params = ModelParams(s=0.4, q=0.3, p=0.9)
    a = simulate_urn(params, 500, RngStreamSpec(21))
    b = simulate_urn(params, 500, RngStreamSpec(21))
    a.validate()
    assert np.array_equal(a.blue, b.blue)
    assert a.red[500] + a.blue[500] == 500


def test_urn_all_blue_when_q_and_p_are_one():
    params = ModelParams(s=0.5, q=1.0, p=1.0)
    urn = simulate_urn(params, 50, RngStreamSpec(2))
    # from step 2 on every addition is blue
    assert np.all(np.diff(urn.blue[1:]) == 1)


# ---------------------------------------------------------------- rng streams


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        RngStreamSpec(-1)
    with pytest.raises(ValueError):
        RngStreamSpec(2**64)
    with pytest.raises(ValueError):
        RngStreamSpec(0, -2)
    with pytest.raises(ValueError, match="replica_index"):
        RngStreamSpec(0, 2**64)
    RngStreamSpec(2**64 - 1, 2**64 - 1)


def test_replica_range_bounds():
    spec = RngStreamSpec(7, 2**64 - 3)
    assert list(spec.replicas(3)) == [RngStreamSpec(7, 2**64 - 3 + i) for i in range(3)]
    assert len(spec.replicas(0)) == 0
    with pytest.raises(ValueError, match="2\\*\\*64 - 1"):
        spec.replicas(4)
    with pytest.raises(ValueError, match="nonnegative"):
        RngStreamSpec(7).replicas(-1)


def test_replica_range_is_a_sequence_of_specs():
    specs = RngStreamSpec(4, 10).replicas(6)
    assert specs[0] == RngStreamSpec(4, 10) and specs[-1] == RngStreamSpec(4, 15)
    assert specs[2:4] == RngStreamSpec(4, 12).replicas(2)
    assert isinstance(specs[::2], ReplicaRange) and list(specs[::-2]) == [RngStreamSpec(4, i) for i in (15, 13, 11)]
    with pytest.raises(IndexError):
        specs[6]
    for part in (specs, specs[1:5], specs[::2], specs[::-3], specs[4:1]):
        assert np.array_equal(cp._stream_keys(part), cp._stream_keys(list(part)))


def _fixed_ranges(width):
    """A stand-in for cp._replica_ranges: ranges of width replicas, whatever the thread count."""
    return lambda R, threads: [(lo, min(lo + width, R)) for lo in range(0, R, width)]


@settings(max_examples=300, deadline=None)
@given(
    R=st.one_of(st.integers(0, 100), st.integers(0, 3 * cp._TILE_VALUES // 8 + 9)),
    threads=st.integers(1, 40),
)
def test_replica_ranges_split_by_lanes_and_threads(R, threads):
    ranges = cp._replica_ranges(R, threads)
    bounds = [lo for lo, _ in ranges] + [R]
    assert ranges == list(zip(bounds, bounds[1:])) and bounds[0] == 0
    assert all(lo < hi for lo, hi in ranges)
    assert len(ranges) >= min(threads, -(-R // 8))
    assert all(lo % 8 == 0 for lo, _ in ranges)
    assert all(hi - lo <= cp._TILE_VALUES // 8 for lo, hi in ranges)


@pytest.mark.parametrize("specs", [[], RngStreamSpec(3, 5).replicas(0)], ids=["list", "range"])
def test_zero_replicas_give_empty_results(specs):
    assert cp._replica_ranges(0, 1) == cp._replica_ranges(0, 4) == []
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    assert walk_checkpoints_batch(params, [5], specs).shape == (0, 1)
    assert walk_positions_batch(params, 5, specs).shape == (0, 6)
    assert qsl_functional_batch(params, 10, 1, specs).shape == (0,)


def test_stream_is_pure_function_of_key():
    g1 = RngStreamSpec(123, 4).generator()
    g2 = RngStreamSpec(123, 4).generator()
    assert np.array_equal(g1.random(64), g2.random(64))
    g3 = RngStreamSpec(123, 5).generator()
    assert not np.array_equal(RngStreamSpec(123, 4).generator().random(64), g3.random(64))


# ---------------------------------------------------------------- batch engines


def test_batch_prefix_property():
    # The first m steps of a longer run coincide with a run of length m.
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    specs = [RngStreamSpec(17, i) for i in range(5)]
    long = walk_positions_batch(params, 600, specs)
    short = walk_positions_batch(params, 250, specs)
    assert np.array_equal(long[:, :251], short)


def test_checkpoints_match_full_positions():
    params = ModelParams(s=0.5, q=0.4, p=0.7)
    specs = [RngStreamSpec(8, i) for i in range(7)]
    pos = walk_positions_batch(params, 1000, specs)
    cps = [1, 2, 137, 512, 999, 1000]
    rec = walk_checkpoints_batch(params, cps, specs)
    for t, cp_step in enumerate(cps):
        assert np.array_equal(rec[:, t], pos[:, cp_step].astype(np.float64))


def test_position_chunks_match_batch_row():
    params = ModelParams(s=0.5, q=0.2, p=0.6)
    spec = RngStreamSpec(31, 3)
    pos = walk_positions_batch(params, 400, [spec])[0]
    collected = np.empty(400)
    for k_start, values in walk_position_chunks(params, 400, spec):
        collected[k_start - 1 : k_start - 1 + len(values)] = values
    assert np.array_equal(collected, pos[1:].astype(np.float64))


def test_block_partition_does_not_affect_results(monkeypatch):
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    specs = [RngStreamSpec(9, i) for i in range(23)]
    base = walk_positions_batch(params, 200, specs)
    monkeypatch.setattr(cp, "_replica_ranges", _fixed_ranges(5))
    split = walk_positions_batch(params, 200, specs)
    assert np.array_equal(base, split)


def test_thread_count_does_not_affect_results():
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    specs = [RngStreamSpec(13, i) for i in range(40)]
    assert len(cp._replica_ranges(len(specs), 1)) == 1 and len(cp._replica_ranges(len(specs), 4)) == 4
    one = walk_checkpoints_batch(params, [50, 400], specs, threads=1)
    four = walk_checkpoints_batch(params, [50, 400], specs, threads=4)
    assert np.array_equal(one, four)


def test_threads_are_clamped_to_usable_cpus(monkeypatch):
    # The fake pool records its size and runs the tasks serially, so no thread is started.
    import concurrent.futures

    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    params = ModelParams(s=0.5, q=0.25, p=0.75)
    specs = RngStreamSpec(1).replicas(800)
    one = walk_checkpoints_batch(params, [10], specs, threads=1)
    monkeypatch.setattr(cp.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    many = walk_checkpoints_batch(params, [10], specs, threads=10**4)
    assert workers and max(workers) <= 2
    assert np.array_equal(one, many)


def test_thread_pool_results_equal_one_thread(monkeypatch):
    # Four usable CPUs on any runner, so threads=4 takes the real ThreadPoolExecutor branch.
    import concurrent.futures

    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    params = ModelParams(s=0.5, q=0.25, p=0.75)
    specs = RngStreamSpec(21).replicas(64)
    walk_one = walk_checkpoints_batch(params, [7, 300], specs, threads=1)
    qsl_one = qsl_functional_batch(params, 300, 1, specs, threads=1)
    monkeypatch.setattr(cp, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    assert len(cp._replica_ranges(len(specs), 4)) == 4
    walk_four = walk_checkpoints_batch(params, [7, 300], specs, threads=4)
    qsl_four = qsl_functional_batch(params, 300, 1, specs, threads=4)
    assert pools == [4, 4]
    assert walk_four.tobytes() == walk_one.tobytes()
    assert qsl_four.tobytes() == qsl_one.tobytes()


def test_batch_law_matches_exact_dp():
    # The float32 batched engine must sample the same distribution the DP
    # computes; total variation at n = 12 over 10^5 replicas.
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    n = 12
    specs = [RngStreamSpec(1234, i) for i in range(100_000)]
    finals = walk_checkpoints_batch(params, [n], specs)[:, 0].astype(np.int64)
    emp = np.bincount(finals, minlength=n + 1) / len(finals)
    exact = exact_distribution(params, n).probs
    assert total_variation(emp, exact) < 0.01


def _reference_positions(params, n, specs):
    """S_0..S_n per replica, from one RngStreamSpec.generator() per replica
    drawing one float32 uniform per step, and the step recurrence."""
    U = np.array([spec.generator().random(n, dtype=np.float32) for spec in specs], dtype=np.float64)
    pos = np.zeros((len(specs), n + 1))
    S = (U[:, 0] < params.s).astype(np.float64)
    pos[:, 1] = S
    for m in range(1, n):
        S = S + (U[:, m] < params.q + (params.alpha / m) * S)
        pos[:, m + 1] = S
    return pos


_unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.01, 0.99),
    q=_unit.filter(lambda q: q > 0.0),
    p=_unit,
    seed=st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    replicas=st.lists(st.one_of(st.just(2**63), st.integers(0, 2**63)), min_size=1, max_size=17),
    n=st.integers(1, 130),
    width=st.sampled_from([1, 3, 8, 9, 8192]),
    tile=st.sampled_from([1, 16, 40, 136, cp._TILE_VALUES]),
    threads=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_batch_engines_match_per_replica_generators(s, q, p, seed, replicas, n, width, tile, threads, data):
    # Up to 17 replicas leave the kernel's last group of 8 partial; small
    # position tiles split the walk into many kernel calls, and checkpoint
    # gaps start calls inside a Philox block of 8 draws.
    specs = [RngStreamSpec(seed, i) for i in replicas]
    if data.draw(st.booleans()):
        # A ReplicaRange, or a slice of it, in place of a list: the engines
        # key its streams from its fields, and give the bytes of its specs.
        count = data.draw(st.integers(1, 17))
        start = data.draw(st.one_of(st.integers(2**63 - 20, 2**63 + 20), st.just(2**64 - count)))
        whole = RngStreamSpec(seed, start).replicas(count)
        cut = data.draw(st.slices(count).filter(lambda cut: len(range(count)[cut]) > 0))
        specs = whole[cut]
        assert isinstance(specs, ReplicaRange)
        assert list(specs) == [RngStreamSpec(seed, i) for i in range(start, start + count)[cut]]
    if data.draw(st.booleans()):
        # s just above a drawn uniform: a float32 comparison would round s down onto it.
        s = float(specs[0].generator().random(dtype=np.float32)) + 2.0**-30
    params = ModelParams(s=s, q=q, p=p)
    cps = sorted(data.draw(st.sets(st.integers(1, n), max_size=6)) | {n})
    ref = _reference_positions(params, n, list(specs))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_replica_ranges", _fixed_ranges(width))
        mp.setattr(cp, "_TILE_VALUES", tile)
        pos = walk_positions_batch(params, n, specs, threads=threads)
        rec = walk_checkpoints_batch(params, cps, specs, threads=threads)
    assert np.array_equal(pos, ref)
    assert np.array_equal(rec, ref[:, cps])


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.01, 0.99),
    q=_unit.filter(lambda q: q > 0.0),
    p=_unit,
    seed=st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    replica=st.one_of(st.just(0), st.just(2**63), st.integers(0, 2**63)),
    n=st.integers(1, 300),
    position_tile=st.sampled_from([1, 16, 40, 136, cp._TILE_VALUES]),
)
def test_position_chunks_match_step_loop(s, q, p, seed, replica, n, position_tile):
    # Small position tiles split the walk into many kernel calls; the one
    # after [S_1] starts inside a Philox block of 8 draws.
    spec = RngStreamSpec(seed, replica)
    params = ModelParams(s=s, q=q, p=p)
    ref = _reference_positions(params, n, [spec])[0, 1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_TILE_VALUES", position_tile)
        chunks = list(walk_position_chunks(params, n, spec))
        path = simulate_walk(params, n, spec)
    assert chunks[0][0] == 1 and len(chunks[0][1]) == 1
    assert [k for k, _ in chunks] == list(np.cumsum([1] + [len(v) for _, v in chunks[:-1]]))
    assert np.array_equal(np.concatenate([v for _, v in chunks]), ref)
    assert np.array_equal(path.positions[1:], ref) and np.array_equal(path.steps, np.diff(path.positions))


def test_positions_beyond_physical_memory_are_refused():
    # 10^5 replicas x (10^8 + 1) int32 positions is 40 TB: a ValueError, not a MemoryError.
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    specs = [RngStreamSpec(1, i) for i in range(10**5)]
    with pytest.raises(ValueError, match="walk_checkpoints_batch"):
        walk_positions_batch(params, 10**8, specs)


def test_kernel_starts_each_stream_at_its_offset():
    # Philox is counter-based, so a call that starts at step m, on or off
    # the edge of a Philox block of 8 draws, reads draws m, m+1, ... of each
    # stream. Ten replicas fill one group of 8 and part of the next.
    params = ModelParams(s=0.5, q=0.3, p=0.6)
    specs = [RngStreamSpec(seed, i) for seed in (0, 2**64 - 1) for i in (0, 1, 6789, 2**63 - 1, 2**63)]
    ref = _reference_positions(params, 4097 + 21, specs)
    keys = cp._stream_keys(specs)
    for m in [0, 1, 7, 8, 9, 1023, 1024, 4097]:
        S = ref[:, m].copy()
        out = np.empty((21, len(specs)))
        cp._advance(params, keys, S, m, 21, out)
        assert np.array_equal(out, ref[:, m + 1 : m + 22].T), m
        assert np.array_equal(S, ref[:, m + 21]), m


# ---------------------------------------------------------------- kernel build


def test_second_load_in_a_fresh_process_compiles_nothing():
    cp._load_kernel()
    code = (
        "import subprocess\n"
        "def refuse(*args, **kwargs): raise AssertionError('compiled again')\n"
        "subprocess.run = refuse\n"
        "from mrwlab import ModelParams, RngStreamSpec, walk_checkpoints_batch\n"
        "print(walk_checkpoints_batch(ModelParams(0.5, 0.25, 0.75), [100], [RngStreamSpec(4, 1)])[0, 0])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(Path(cp.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    ref = _reference_positions(ModelParams(0.5, 0.25, 0.75), 100, [RngStreamSpec(4, 1)])
    assert float(done.stdout) == ref[0, 100]


def test_unwritable_cache_builds_privately(tmp_path, monkeypatch):
    # A cache path under a regular file cannot be created, even by root.
    (tmp_path / "file").write_text("")
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(cp, "_KERNEL_CACHE", tmp_path / "file" / "__pycache__")
    monkeypatch.setattr(cp, "_kernel", None)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    params, specs = ModelParams(0.5, 0.4, 0.7), [RngStreamSpec(8, i) for i in range(3)]
    rec = walk_checkpoints_batch(params, [5, 40], specs)
    assert np.array_equal(rec, _reference_positions(params, 40, specs)[:, [5, 40]])
    assert list((tmp_path / "tmp").iterdir()) == []


def test_missing_compiler_is_named(tmp_path, monkeypatch):
    monkeypatch.setattr(cp, "_KERNEL_CACHE", tmp_path)
    monkeypatch.setattr(cp, "_kernel", None)
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(RuntimeError, match="`cc`"):
        walk_checkpoints_batch(ModelParams(0.5, 0.5, 0.5), [10], [RngStreamSpec(1)])
    assert list(tmp_path.iterdir()) == []


def test_concurrent_first_calls_build_once(tmp_path, monkeypatch):
    monkeypatch.setattr(cp, "_KERNEL_CACHE", tmp_path)
    monkeypatch.setattr(cp, "_kernel", None)
    builds, run = [], subprocess.run

    def slow_run(*args, **kwargs):
        builds.append(args)
        time.sleep(0.2)  # holds the first caller inside the build
        return run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", slow_run)
    params, specs = ModelParams(0.5, 0.25, 0.75), [RngStreamSpec(6, i) for i in range(9)]
    barrier, results = threading.Barrier(2), [None, None]

    def first_call(i):
        barrier.wait(timeout=30)
        results[i] = walk_checkpoints_batch(params, [3, 77], specs, threads=1)

    workers = [threading.Thread(target=first_call, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
    assert not any(w.is_alive() for w in workers)
    assert len(builds) == 1
    # One built library and no temporary file left behind.
    assert [p.name[:12] for p in tmp_path.iterdir()] == ["walk_kernel-"]
    ref = _reference_positions(params, 77, specs)[:, [3, 77]]
    assert all(np.array_equal(r, ref) for r in results)


def test_checkpoint_validation():
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    with pytest.raises(ValueError):
        walk_checkpoints_batch(params, [], [RngStreamSpec(1)])
    with pytest.raises(ValueError):
        walk_checkpoints_batch(params, [5, 5], [RngStreamSpec(1)])
    with pytest.raises(ValueError):
        walk_checkpoints_batch(params, [0, 3], [RngStreamSpec(1)])


# ---------------------------------------------------------------- public surface


def test_package_exports_exactly_the_modules_all_lists():
    from mrwlab import exact_oracle, limit_harness, martingale_sequences, urn_spectral

    lists = [m.__all__ for m in (cp, exact_oracle, limit_harness, martingale_sequences, urn_spectral)]
    public = {
        name for name, value in vars(mrwlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for names in lists for name in names}
    assert len(public) == sum(len(names) for names in lists)
