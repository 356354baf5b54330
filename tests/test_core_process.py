import array
import ast
import copy
import ctypes
import ctypes.util
import dataclasses
import os
import pickle
import platform
import re
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
import tracemalloc
import types
from collections.abc import Sequence
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


def test_list_keys_equal_replica_range_keys():
    # Fields may be numpy integers or bools, and reach 2**64 - 1.
    top = 2**64 - 1
    cases = [
        ([RngStreamSpec(np.int64(7), True), RngStreamSpec(7, np.int64(2)), RngStreamSpec(np.uint64(7), 3)],
         RngStreamSpec(7, 1).replicas(3)),
        ([RngStreamSpec(np.uint64(top), top - 2), RngStreamSpec(top, np.uint64(top - 1)), RngStreamSpec(top, top)],
         RngStreamSpec(top, top - 2).replicas(3)),
        ([], RngStreamSpec(5).replicas(0)),
    ]
    for specs, same in cases:
        keys = cp._stream_keys(specs)
        assert keys.dtype == np.uint64 and keys.shape == (len(specs), 2)
        assert np.array_equal(keys, cp._stream_keys(same))


def test_spec_is_a_frozen_value_without_a_dict():
    spec = RngStreamSpec(2**64 - 1, 12)
    assert not hasattr(spec, "__dict__")
    assert repr(spec) == "RngStreamSpec(master_seed=18446744073709551615, replica_index=12)"
    for same in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec), dataclasses.replace(spec)):
        assert same == spec and hash(same) == hash(spec) and type(same) is RngStreamSpec
    assert dataclasses.replace(spec, replica_index=13) == RngStreamSpec(2**64 - 1, 13)
    assert {RngStreamSpec(3, 4), RngStreamSpec(3, 4), RngStreamSpec(4, 3)} == {RngStreamSpec(4, 3), RngStreamSpec(3, 4)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.replica_index = 13
    with pytest.raises(dataclasses.FrozenInstanceError):
        del spec.master_seed
    # A name that is no field has no slot; on a slotted class Python 3.11's
    # generated __setattr__ raises TypeError for it.
    with pytest.raises((AttributeError, TypeError)):
        spec.note = "x"
    assert spec == RngStreamSpec(2**64 - 1, 12)
    with pytest.raises(ValueError, match="replica_index"):
        dataclasses.replace(spec, replica_index=2**64)
    # numpy integer fields compare, hash, pickle and key as the ints they hold.
    specs = [RngStreamSpec(np.uint64(7), np.int64(3)), RngStreamSpec(np.int64(7), np.uint64(4))]
    assert specs == [RngStreamSpec(7, 3), RngStreamSpec(7, 4)] and hash(specs[0]) == hash(RngStreamSpec(7, 3))
    for same in (pickle.loads(pickle.dumps(specs)), copy.deepcopy(specs)):
        assert np.array_equal(cp._stream_keys(same), cp._stream_keys(RngStreamSpec(7, 3).replicas(2)))


def test_a_listed_spec_costs_under_100_bytes():
    # Measured with the index ints and the list's slots: about 92 bytes per
    # spec, against about 132 when each spec carries a __dict__.
    count = 2**14
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        specs = [RngStreamSpec(5, 2**40 + i) for i in range(count)]
        per_spec = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert per_spec <= 100, per_spec


@pytest.mark.parametrize("threads", [1, 2])
def test_list_specs_are_keyed_one_range_at_a_time(monkeypatch, threads):
    # A list gives the bytes of the equivalent ReplicaRange, and its keys are
    # built per replica range, never for the whole list at once.
    params, R = ModelParams(0.5, 0.25, 0.75), 16400
    ranges = cp._replica_ranges(R, threads)  # the same three ranges at one or two workers
    same = walk_checkpoints_batch(params, [7, 20], RngStreamSpec(3).replicas(R), threads=threads)
    widths, stream_keys = [], cp._stream_keys

    def recording(specs, lo=0, hi=None):
        widths.append((len(specs) if hi is None else hi) - lo)
        return stream_keys(specs, lo, hi)

    monkeypatch.setattr(cp, "_stream_keys", recording)
    S = walk_checkpoints_batch(params, [7, 20], [RngStreamSpec(3, i) for i in range(R)], threads=threads)
    assert S.tobytes() == same.tobytes()
    assert sorted(widths) == sorted(hi - lo for lo, hi in ranges) and len(ranges) > 1


def _loop_keys(specs):
    """The Python key loop that the library's mrw_stream_keys replaced: both
    fields of each spec appended to one array.array("Q"), viewed as rows."""
    flat = array.array("Q")
    for spec in specs:
        flat.append(spec.master_seed)
        flat.append(spec.replica_index)
    return np.frombuffer(flat, np.uint64).reshape(-1, 2)


class _ReadSpec(RngStreamSpec):
    """A subclass whose attribute reads are not its slots: replica_index reads
    one more than the slot holds, modulo 2**64."""

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        return (int(value) + 1) % 2**64 if name == "replica_index" else value


class _DuckSpec:
    """Not a spec, but it has the two fields, behind a leading slot that holds
    another number."""

    __slots__ = ("a_lead", "master_seed", "replica_index")

    def __init__(self, master_seed, replica_index):
        self.a_lead, self.master_seed, self.replica_index = 12345, master_seed, replica_index


class _DictSpec:
    def __init__(self, master_seed, replica_index):
        self.master_seed, self.replica_index = master_seed, replica_index


_key_fields = st.one_of(
    st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.booleans(),
    st.integers(0, 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
)


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(st.tuples(st.sampled_from([RngStreamSpec, _ReadSpec, _DuckSpec, _DictSpec]),
                             _key_fields, _key_fields), max_size=40),
    as_tuple=st.booleans(),
)
def test_compiled_keys_equal_the_python_loop(items, as_tuple):
    # Exact specs are read at their slots, every other element by attribute;
    # numpy and bool fields key as the ints they hold, up to 2**64 - 1.
    specs = [kind(seed, index) for kind, seed, index in items]
    specs = tuple(specs) if as_tuple else specs
    keys = cp._stream_keys(specs)
    assert keys.dtype == np.uint64 and keys.shape == (len(specs), 2)
    assert keys.tobytes() == _loop_keys(specs).tobytes()


def _raised(call, specs):
    with pytest.raises(Exception) as info:
        call(specs)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("specs,error", [
    ([RngStreamSpec(1, 2), _DictSpec(2.0, 3)], TypeError),
    ([_DuckSpec(1, 1.5)], TypeError),
    ([_DictSpec(4, -1)], OverflowError),
    ([_DuckSpec(-3, 4)], OverflowError),
    ([_DictSpec(2**64, 0)], OverflowError),
    ([RngStreamSpec(1, 2), object()], AttributeError),
    ((object.__new__(RngStreamSpec),), AttributeError),
    ([object.__new__(_DuckSpec)], AttributeError),
])
def test_compiled_keys_raise_the_errors_of_the_python_loop(specs, error):
    # An unset slot (a spec made without __init__) raises, never reads NULL.
    assert _raised(cp._stream_keys, specs) == _raised(_loop_keys, specs)
    assert _raised(cp._stream_keys, specs)[0] is error


@pytest.mark.parametrize("value", [0, 1, 2**30 - 1, 2**30, 2**60, 2**64 - 1, -1, -(2**30) - 1, 2**64])
def test_exact_int_slots_key_at_every_digit_count(value):
    # An exact spec's exact int slots are read without a reference, on 3.11
    # from their digit when they have one: ints around the digit boundaries
    # key, or raise, as the Python loop does, in either field.
    for field in ("master_seed", "replica_index"):
        spec = RngStreamSpec(5, 6)
        object.__setattr__(spec, field, value)  # past __post_init__'s check
        specs = [RngStreamSpec(1, 2), spec]
        if 0 <= value < 2**64:
            assert cp._stream_keys(specs).tobytes() == _loop_keys(specs).tobytes()
        else:
            assert _raised(cp._stream_keys, specs) == _raised(_loop_keys, specs)
            assert _raised(cp._stream_keys, specs)[0] is OverflowError


class _Resizing:
    """An integer whose __index__ runs Python code on the list being keyed."""

    def __init__(self, action):
        self.action = action

    def __index__(self):
        self.action()
        return 7


def test_compiled_keys_survive_index_code_that_changes_the_specs():
    # A list that grows or shrinks while it is keyed raises, rather than
    # leaving rows unfilled or writing past the last one.
    for change, match in ((lambda specs: specs.extend([RngStreamSpec(1)] * 1000), "grew"),
                          (lambda specs: specs.clear(), "shrank")):
        specs = [RngStreamSpec(1, i) for i in range(10)]
        specs[3] = _DictSpec(_Resizing(lambda: change(specs)), 5)
        with pytest.raises(RuntimeError, match=match):
            cp._stream_keys(specs)
    # A spec whose slot is rebound while its old value converts keeps that
    # value alive until it is read.
    spec = RngStreamSpec(9, 0)
    object.__setattr__(spec, "master_seed", _Resizing(lambda: object.__setattr__(spec, "master_seed", 8)))
    assert cp._stream_keys([spec, RngStreamSpec(3, 4)]).tolist() == [[7, 0], [3, 4]]


@settings(max_examples=100, deadline=None)
@given(
    R=st.integers(1, 200), seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**64 - 1),
    cuts=st.lists(st.integers(0, 200), min_size=1, max_size=4), as_tuple=st.booleans(),
)
def test_list_ranges_key_as_replica_range_slices(R, seed, start, cuts, as_tuple):
    # A list or tuple is read in place from item lo on, so the keys of each of
    # its ranges are those of the same slice of the equivalent ReplicaRange.
    same = RngStreamSpec(seed, min(start, 2**64 - R)).replicas(R)
    specs = tuple(same) if as_tuple else list(same)
    bounds = sorted({0, R, *(cut % (R + 1) for cut in cuts)})
    for lo, hi in [*zip(bounds, bounds[1:]), (R, R)]:
        keys = cp._stream_keys(specs, lo, hi)
        assert keys.shape == (hi - lo, 2)
        assert keys.tobytes() == cp._stream_keys(same, lo, hi).tobytes() == cp._stream_keys(same[lo:hi]).tobytes()
    with pytest.raises(ValueError, match="no item range"):
        cp._stream_keys(specs, 0, R + 1)


@pytest.mark.parametrize("at", [20, 31], ids=["inside", "last"])
def test_range_reads_fail_on_index_code_that_resizes_the_list(at):
    # The length is checked before each item of the range and after its last
    # one, so a list resized by the item at 20 or by the range's last item
    # raises rather than read past its end or pass unnoticed.
    for change, match in ((lambda specs: specs.extend([RngStreamSpec(1)] * 1000), "grew"),
                          (lambda specs: specs.clear(), "shrank"),
                          (lambda specs: specs.pop(), "shrank")):
        specs = [RngStreamSpec(1, i) for i in range(40)]
        specs[at] = _DictSpec(_Resizing(lambda: change(specs)), 5)
        with pytest.raises(RuntimeError, match=match):
            cp._stream_keys(specs, 16, 32)


class _EndFirstList(list):
    """A list subclass indexed from its end: its item (or slice) i is item (or
    slice) i of the reversed plain list, though it iterates as the plain list."""

    def __getitem__(self, i):
        return list.__getitem__(self, slice(None, None, -1))[i]


class _SpecSequence(Sequence):
    """A sequence that is no list or tuple; its slices are of its kind."""

    def __init__(self, specs):
        self._specs = list(specs)

    def __len__(self):
        return len(self._specs)

    def __getitem__(self, i):
        return _SpecSequence(self._specs[i]) if isinstance(i, slice) else self._specs[i]


def _object_array(specs):
    items = np.empty(len(specs), object)
    items[:] = specs
    return items


@pytest.mark.parametrize("kind", [_EndFirstList, _SpecSequence, _object_array])
def test_other_sequences_key_their_slices_as_the_python_loop(kind):
    # A sequence that is no exact list or tuple is keyed as its slice, never
    # read in place, so row i reads specs[i] even where its iteration
    # disagrees; with every kind of element and field.
    items = [*RngStreamSpec(3, 2**64 - 5).replicas(5), _DuckSpec(4, np.uint64(2**64 - 1)), _ReadSpec(5, 6),
             RngStreamSpec(2**63, True), _DictSpec(np.int64(8), 9), RngStreamSpec(7, 1)]
    specs = kind(items)
    assert cp._stream_keys(specs).tobytes() == _loop_keys(specs[:]).tobytes()
    for lo, hi in ((0, 10), (3, 8), (5, 5), (9, 10)):
        assert cp._stream_keys(specs, lo, hi).tobytes() == _loop_keys(specs[lo:hi]).tobytes()


def test_only_core_process_names_the_engine_internals():
    # The harnesses walk through the public engines or _walk_ranges, so the
    # kernel calls, stream keys and replica ranges are decided in one module.
    internals = {"_advance", "_stream_keys", "_run_replica_blocks", "_replica_ranges", "_kernel_calls"}
    modules = sorted(Path(cp.__file__).parent.glob("*.py"))
    assert {"core_process.py", "limit_harness.py", "cli.py"} <= {path.name for path in modules}
    for path in modules:
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name, node.asname})
        assert path.name == "core_process.py" or not names & internals, (path.name, names & internals)


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
    assert len(ranges) >= min(threads, -(-R // 16))
    assert all(lo % 16 == 0 for lo, _ in ranges)
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
    specs = [RngStreamSpec(13, i) for i in range(72)]
    assert len(cp._replica_ranges(len(specs), 1)) == 1 and len(cp._replica_ranges(len(specs), 4)) == 4
    one = walk_checkpoints_batch(params, [50, 400], specs, threads=1)
    four = walk_checkpoints_batch(params, [50, 400], specs, threads=4)
    assert np.array_equal(one, four)


@pytest.fixture
def fresh_pool(monkeypatch):
    """A helper pool of the test's own, sized under its patches and shut down at
    its end; the process's pool comes back after."""
    monkeypatch.setattr(cp, "_pool", None)
    yield
    if cp._pool is not None:
        cp._pool.shutdown()


def _range_threads(monkeypatch) -> list[int]:
    """The ident of the thread that walks each range, in the order the ranges start."""
    idents, kernel_calls = [], cp._kernel_calls

    def recorded(*args, **kwargs):
        idents.append(threading.get_ident())
        return kernel_calls(*args, **kwargs)

    monkeypatch.setattr(cp, "_kernel_calls", recorded)
    return idents


def test_threads_are_clamped_to_usable_cpus(monkeypatch, fresh_pool):
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    specs = RngStreamSpec(1).replicas(800)
    one = walk_checkpoints_batch(params, [10], specs, threads=1)
    monkeypatch.setattr(cp.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    idents = _range_threads(monkeypatch)
    many = walk_checkpoints_batch(params, [10], specs, threads=10**4)
    # Split for two workers, not 10**4, and walked by the caller and at most one helper.
    assert len(idents) == len(cp._replica_ranges(len(specs), 2)) == 2
    assert 1 <= len(set(idents)) <= 2
    assert np.array_equal(one, many)


def test_thread_pool_results_equal_one_thread(monkeypatch, fresh_pool):
    # Four usable CPUs on any runner, so threads=4 sends three helpers to the pool.
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    specs = RngStreamSpec(21).replicas(64)
    walk_one = walk_checkpoints_batch(params, [7, 300], specs, threads=1)
    qsl_one = qsl_functional_batch(params, 300, 1, specs, threads=1)
    monkeypatch.setattr(cp, "_usable_cpus", lambda: 4)
    submitted, helper_pool = [], cp._helper_pool
    monkeypatch.setattr(cp, "_helper_pool", lambda: submitted.append(1) or helper_pool())
    assert len(cp._replica_ranges(len(specs), 4)) == 4
    walk_four = walk_checkpoints_batch(params, [7, 300], specs, threads=4)
    qsl_four = qsl_functional_batch(params, 300, 1, specs, threads=4)
    assert len(submitted) == 2 * 3
    assert walk_four.tobytes() == walk_one.tobytes()
    assert qsl_four.tobytes() == qsl_one.tobytes()


def test_pool_starts_once_and_never_for_one_range(monkeypatch, fresh_pool):
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    monkeypatch.setattr(cp, "_usable_cpus", lambda: 2)
    started = threading.active_count()
    walk_checkpoints_batch(params, [10], [RngStreamSpec(0, 0)], threads=2)
    walk_checkpoints_batch(params, [10], RngStreamSpec(0).replicas(64), threads=1)
    assert cp._pool is None and threading.active_count() == started
    specs = RngStreamSpec(4).replicas(64)
    one = walk_checkpoints_batch(params, [30], specs, threads=1)
    walk_checkpoints_batch(params, [30], specs, threads=2)
    started = threading.active_count()
    for _ in range(5):
        assert np.array_equal(walk_checkpoints_batch(params, [30], specs, threads=2), one)
        assert threading.active_count() == started


def test_import_and_a_one_range_call_load_no_pool():
    # A fresh interpreter, as a CLI call or the set-up probe starts: concurrent.futures
    # costs milliseconds to import and a one-range call needs no helper.
    code = """
import sys, threading
import mrwlab, mrwlab.cli
from mrwlab import ModelParams, RngStreamSpec, walk_checkpoints_batch
loaded = 'concurrent.futures' in sys.modules
walk_checkpoints_batch(ModelParams(0.5, 0.25, 0.75), [10], [RngStreamSpec(0, 0)], threads=2)
print(loaded, 'concurrent.futures' in sys.modules, threading.active_count())
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(cp.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "1"]


def test_helper_error_is_raised_by_the_caller(monkeypatch, fresh_pool):
    monkeypatch.setattr(cp, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cp, "_replica_ranges", _fixed_ranges(16))
    caller, caller_in, helper_in, walked = threading.current_thread(), threading.Event(), threading.Event(), []

    def run_block(lo, hi):
        # The caller and the one helper each take a range; the helper fails once
        # the caller holds its range, and the caller returns once the helper's
        # thread has left the call (a probe queued behind it in the pool has run).
        by_caller = threading.current_thread() is caller
        walked.append((lo, by_caller))
        (caller_in if by_caller else helper_in).set()
        assert (helper_in if by_caller else caller_in).wait(timeout=30)
        if not by_caller:
            raise ArithmeticError(f"range {lo}")
        cp._pool.submit(int).result(timeout=30)

    with pytest.raises(ArithmeticError) as failed:
        cp._run_replica_blocks(160, run_block, 2)
    # Of the ten ranges only those two went out, and the error is the helper's.
    assert sorted(lo for lo, _ in walked) == [0, 16] and sum(by_caller for _, by_caller in walked) == 1
    assert str(failed.value) == next(f"range {lo}" for lo, by_caller in walked if not by_caller)
    params, specs = ModelParams(s=0.5, q=0.25, p=0.75), RngStreamSpec(8).replicas(160)
    assert np.array_equal(walk_checkpoints_batch(params, [40], specs, threads=2),
                          walk_checkpoints_batch(params, [40], specs, threads=1))


def test_concurrent_callers_share_the_pool(monkeypatch, fresh_pool):
    # Two callers at two workers, one helper thread: a caller whose helper waits
    # behind the other call's walks its ranges itself.
    monkeypatch.setattr(cp, "_usable_cpus", lambda: 2)
    params = ModelParams(s=0.5, q=0.25, p=0.75)
    specs = [RngStreamSpec(11).replicas(96), [RngStreamSpec(12, i) for i in range(96)]]
    expected = [walk_checkpoints_batch(params, [5, 600], s, threads=1) for s in specs]
    barrier, results = threading.Barrier(2), [None, None]

    def call(i):
        barrier.wait(timeout=30)
        for _ in range(10):
            results[i] = walk_checkpoints_batch(params, [5, 600], specs[i], threads=2)

    callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
    for c in callers:
        c.start()
    for c in callers:
        c.join(timeout=120)
    assert not any(c.is_alive() for c in callers)
    assert all(r is not None and np.array_equal(r, e) for r, e in zip(results, expected))


def test_a_call_inside_a_range_does_not_wait_on_the_pool():
    # Each range of the outer call walks its replicas in a call of its own at two
    # workers. The outer helper is the pool's one thread, so an inner call from it
    # finds its helper queued behind itself and must walk without it. Run in a
    # subprocess, so a hang fails the test.
    code = """
import numpy as np
import mrwlab.core_process as cp
from mrwlab import ModelParams, RngStreamSpec, walk_checkpoints_batch

cp._usable_cpus = lambda: 2
params, specs = ModelParams(0.5, 0.25, 0.75), RngStreamSpec(3).replicas(128)
nested = np.empty((len(specs), 1))

def run_block(lo, hi):
    nested[lo:hi] = walk_checkpoints_batch(params, [90], specs[lo:hi], threads=2)

cp._run_replica_blocks(len(specs), run_block, 2)
print(np.array_equal(nested, walk_checkpoints_batch(params, [90], specs, threads=1)))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(cp.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_walks_on_a_pool_of_its_own():
    # The child of a process whose pool has started walks at two workers: its caller
    # holds the first range until a helper has run one. A hang fails the test.
    code = """
import os, threading
import mrwlab.core_process as cp
from mrwlab import ModelParams, RngStreamSpec, walk_checkpoints_batch

cp._usable_cpus = lambda: 2
params, specs = ModelParams(0.5, 0.25, 0.75), RngStreamSpec(5).replicas(64)
parent = walk_checkpoints_batch(params, [9, 200], specs, threads=2)
pid = os.fork()
if pid == 0:
    helper_ran = threading.Event()

    def run_block(lo, hi):
        if threading.current_thread() is threading.main_thread():
            helper_ran.wait(timeout=10)
        else:
            helper_ran.set()

    cp._run_replica_blocks(len(specs), run_block, 2)
    child = walk_checkpoints_batch(params, [9, 200], specs, threads=2)
    os._exit(0 if helper_ran.is_set() and child.tobytes() == parent.tobytes() else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(cp.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


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
    replicas=st.lists(st.one_of(st.just(2**63), st.integers(0, 2**63)), min_size=1, max_size=33),
    n=st.integers(1, 130),
    width=st.sampled_from([1, 3, 8, 9, 8192]),
    tile=st.sampled_from([1, 16, 40, 136, cp._TILE_VALUES]),
    threads=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_batch_engines_match_per_replica_generators(s, q, p, seed, replicas, n, width, tile, threads, data):
    # Up to 33 replicas fill the kernel's widest vector unit of 32 and leave
    # a scalar tail, or run its units of 16 and 8 and a tail; small position
    # tiles split the walk into many kernel calls, and checkpoint gaps start
    # calls inside a Philox block of 8 draws.
    specs = [RngStreamSpec(seed, i) for i in replicas]
    if data.draw(st.booleans()):
        # A ReplicaRange, or a slice of it, in place of a list: the engines
        # key its streams from its fields, and give the bytes of its specs.
        count = data.draw(st.integers(1, 33))
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
    # Small position tiles split the walk into many kernel calls, each
    # starting on the edge of a Philox block of 8 draws. Starts inside a
    # block are covered by the checkpoint engines and by
    # test_kernel_starts_each_stream_at_its_offset.
    spec = RngStreamSpec(seed, replica)
    params = ModelParams(s=s, q=q, p=p)
    ref = _reference_positions(params, n, [spec])[0, 1:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cp, "_TILE_VALUES", position_tile)
        chunks = list(walk_position_chunks(params, n, spec))
        path = simulate_walk(params, n, spec)
    assert all(k % 8 == 1 for k, _ in chunks)
    assert [k for k, _ in chunks] == list(np.cumsum([1] + [len(v) for _, v in chunks[:-1]]))
    assert np.array_equal(np.concatenate([v for _, v in chunks]), ref)
    assert np.array_equal(path.positions[1:], ref) and np.array_equal(path.steps, np.diff(path.positions))


def test_positions_beyond_physical_memory_are_refused():
    # 10^5 replicas x (10^8 + 1) int32 positions is 40 TB: a ValueError, not a MemoryError.
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    specs = [RngStreamSpec(1, i) for i in range(10**5)]
    with pytest.raises(ValueError, match="walk_checkpoints_batch"):
        walk_positions_batch(params, 10**8, specs)


def test_checkpoints_beyond_physical_memory_are_refused():
    # 10^12 replicas x (24 + 8 * 2) bytes (keys, positions and 2 results per
    # replica) is 40 TB: a ValueError naming the size, raised before the keys,
    # positions or result are allocated.
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    with pytest.raises(ValueError, match="1000000000000 replicas x 2 checkpoints need 40000000000000 bytes"):
        walk_checkpoints_batch(params, [10, 20], RngStreamSpec(0).replicas(10**12))


@settings(max_examples=100, deadline=None)
@given(
    s=st.floats(0.01, 0.99),
    # q = 1, p = 0 is alpha = -1; _unit holds p = 1; q may be subnormal.
    qp=st.one_of(st.just((1.0, 0.0)),
                 st.tuples(st.one_of(st.floats(5e-324, 2.0**-1022), _unit.filter(lambda q: q > 0.0)), _unit)),
    seed=st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1)),
    width=st.sampled_from([1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 48, 63, 64, 65, 97]),
    m=st.one_of(st.sampled_from([0, 1, 7, 8, 9, 1023]), st.integers(0, 1100)),
    steps=st.integers(1, 40),
    tile=st.booleans(),
    r=st.sampled_from([None, 1, 2, 3]),
    data=st.data(),
)
def test_kernel_paths_match_per_replica_generators(s, qp, seed, width, m, steps, tile, r, data):
    # On a CPU with AVX-512 the kernel runs units of 32 replicas while 32
    # remain, then a unit of 16 and a unit of 8 while whole sets of 8
    # remain, and only a remainder under 8 on its scalar groups. The widths
    # reach each mix of units: 8, 16, 32 and 64 alone, 24 = 16 + 8,
    # 40 = 32 + 8, 48 = 32 + 16 and 63 = 32 + 16 + 8 + 7, a scalar tail
    # behind each unit class (9, 15, 17, 31, 33, 65, 97), and the scalar
    # group alone (1, 7). Elsewhere every width runs the scalar groups.
    # Either way each byte must equal numpy's stream, and each QSL sum
    # (r not None) the step-order sum of the same doubles.
    first = data.draw(st.one_of(st.integers(2**63 - 40, 2**63 + 40), st.just(2**64 - width),
                                st.integers(0, 2**64 - width)))
    specs = RngStreamSpec(seed, first).replicas(width)
    params = ModelParams(s=s, q=qp[0], p=qp[1])
    ref = _reference_positions(params, m + steps, list(specs))
    S = ref[:, m].copy()
    out = np.full((steps, width), np.nan) if tile else None
    qsl = None
    if r is not None:
        # The sums start at any step of the call, on or off a Philox block
        # edge. NaNs sit just before scale and weight, so a read of a step
        # before the first summed one shows.
        k = np.arange(m + 1 + data.draw(st.integers(0, steps)), m + steps + 1, dtype=np.float64)
        centre = data.draw(st.floats(0.0, 2.0))
        acc = np.linspace(0.0, 1.0, width)
        scale, weight = np.full((2, len(k) + 1), np.nan)
        scale[1:], weight[1:] = np.sqrt(k / np.log1p(k)), 1.0 / (k * np.log1p(k))
        qsl = (scale[1:], weight[1:], centre, r, acc.copy())
    cp._advance(params, cp._stream_keys(specs), S, m, steps, out, qsl)
    assert S.tobytes() == ref[:, m + steps].tobytes()
    if tile:
        assert out.tobytes() == np.ascontiguousarray(ref[:, m + 1 : m + steps + 1].T).tobytes()
    if r is not None:
        for i in range(width):
            for kk, scale_k, weight_k in zip(k.tolist(), qsl[0].tolist(), qsl[1].tolist()):
                point = scale_k * (float(ref[i, int(kk)]) / kk - centre)
                term = weight_k * (point * point)
                for _ in range(r - 1):
                    term *= point * point
                acc[i] += term
        assert qsl[4].tobytes() == acc.tobytes()


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


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the FE_* flag values below are x86-64's")
def test_kernel_raises_no_divide_by_zero_or_invalid_flag():
    # Step 0 takes no coefficient alpha / t, and the kernel never divides by
    # t = 0 to form one: alpha / 0 would raise divide-by-zero, and 0 / 0 at
    # alpha = 0 invalid. 41 replicas reach both paths from step 0.
    libm = ctypes.CDLL(ctypes.util.find_library("m"))
    fe_invalid, fe_divbyzero, fe_all = 0x01, 0x04, 0x3D
    keys = cp._stream_keys(RngStreamSpec(2).replicas(41))
    for params in (ModelParams(0.5, 0.25, 0.75), ModelParams(0.5, 0.5, 0.5)):
        cp._advance(params, keys, np.zeros(41), 0, 1)  # loads the kernel before the flags are cleared
        libm.feclearexcept(fe_all)
        cp._advance(params, keys, np.zeros(41), 0, 20, np.empty((20, 41)))
        assert libm.fetestexcept(fe_invalid | fe_divbyzero) == 0, params


# ---------------------------------------------------------------- kernel build


def test_forced_scalar_build_matches_default_build(tmp_path):
    # Built with -DMRW_SCALAR_ONLY the kernel runs advance_group, its scalar
    # reference, on every replica; on an AVX-512 machine the default build
    # runs it only on a remainder under 8. Positions, out tiles and QSL sums
    # must agree byte for byte at every width from 1 to 100 (each unit of
    # 32, 16 and 8, and each tail), for calls that start at step 0, off a
    # Philox block edge and on one.
    lib = tmp_path / "walk_kernel_scalar.so"
    done = subprocess.run(["cc", *cp._CFLAGS, "-DMRW_SCALAR_ONLY", "-o", str(lib), str(cp._KERNEL_SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    builds = {"scalar": cp._bind_kernel(lib), "default": cp._load_kernel()}
    params, steps, r = ModelParams(s=0.5, q=0.3, p=0.65), 29, 2
    keys = cp._stream_keys(RngStreamSpec(5, 2**63 - 50).replicas(100))
    for m in (0, 13, 1024):
        start = np.zeros(100)
        if m:
            cp._advance(params, keys, start, 0, m)
        k = np.arange(m + 1 + steps // 3, m + steps + 1, dtype=np.float64)
        scale, weight = np.sqrt(k / np.log1p(k)), 1.0 / (k * np.log1p(k))
        for width in range(1, 101):
            results = {}
            for name, kernel in builds.items():
                S, out, acc = start[:width].copy(), np.empty((steps, width)), np.linspace(0.0, 1.0, width)
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(cp, "_kernel", kernel)
                    cp._advance(params, keys[:width], S, m, steps, out, (scale, weight, 0.6, r, acc))
                results[name] = S.tobytes() + out.tobytes() + acc.tobytes()
            assert results["scalar"] == results["default"], (m, width)


_QUOTIENT_DRIVER = r"""
#include "walk_kernel.c"

int has_avx512(void) { return use_avx512; }

/* out[i] = x[i] / k for i < n, a multiple of 8, as qsl_terms_x8 forms it. */
AVX512 void quotients(const double *x, int64_t n, double k, double *out)
{
    for (int64_t i = 0; i < n; i += LANES)
        _mm512_storeu_pd(out + i, quotient_x8(_mm512_loadu_pd(x + i), k));
}
"""


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the AVX-512 path is x86-64's")
def test_vector_quotient_is_the_correctly_rounded_division(tmp_path):
    # The AVX-512 QSL reducer forms S / k from y = 1 / k and two fused
    # multiply-adds, where the scalar reference divides. For every k up to
    # 4096 and 0 <= S <= k, the quotient must be numpy's S / k to the byte,
    # +0 at S = 0 included.
    driver, lib = tmp_path / "quotients.c", tmp_path / "quotients.so"
    driver.write_text(_QUOTIENT_DRIVER)
    done = subprocess.run(["cc", *cp._CFLAGS, "-I", str(cp._KERNEL_SOURCE.parent), "-o", str(lib), str(driver)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    so = ctypes.CDLL(str(lib))
    if not so.has_avx512():
        pytest.skip("this CPU has no AVX-512 F and DQ")
    so.quotients.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p]
    so.quotients.restype = None
    top = 4096
    S, out = np.arange(top + 8, dtype=np.float64), np.empty(top + 8)
    for k in range(1, top + 1):
        n = (k + 8) // 8 * 8
        so.quotients(S.ctypes.data, n, float(k), out.ctypes.data)
        assert out[: k + 1].tobytes() == (S[: k + 1] / k).tobytes(), k


def test_kernel_compiles_without_warnings(tmp_path):
    # The engine's own flags, with every common warning an error, for the
    # default build and for the scalar reference build.
    for defines in ([], ["-DMRW_SCALAR_ONLY"]):
        done = subprocess.run(["cc", *cp._CFLAGS, *defines, "-Wall", "-Wextra", "-Werror", "-c",
                               str(cp._KERNEL_SOURCE), "-o", str(tmp_path / "walk_kernel.o")],
                              capture_output=True, text=True)
        assert done.returncode == 0, (defines, done.stderr)


def test_key_reader_compiles_without_warnings(tmp_path):
    # The same for stream_keys.c, against this interpreter's CPython headers.
    done = subprocess.run(["cc", *cp._CFLAGS, "-Wall", "-Wextra", "-Werror", "-I", sysconfig.get_path("include"), "-c",
                           str(cp._KEYS_SOURCE), "-o", str(tmp_path / "stream_keys.o")], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cached_library_names_the_interpreter_abi(tmp_path, monkeypatch):
    # The library calls into the CPython ABI, so its file name carries this
    # interpreter's extension suffix, and no other interpreter loads it.
    monkeypatch.setattr(cp, "_KERNEL_CACHE", tmp_path)
    monkeypatch.setattr(cp, "_kernel", None)
    specs = [RngStreamSpec(2, i) for i in range(3)]
    rec = walk_checkpoints_batch(ModelParams(0.5, 0.25, 0.75), [9], specs)
    assert np.array_equal(rec, _reference_positions(ModelParams(0.5, 0.25, 0.75), 9, specs)[:, [9]])
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    assert sys.implementation.cache_tag in suffix
    [name] = [path.name for path in tmp_path.iterdir()]
    assert re.fullmatch("walk_kernel-[0-9a-f]{64}" + re.escape(suffix), name), name


def test_missing_python_headers_are_named(tmp_path, monkeypatch):
    # sysconfig's include directory is pointed at an empty folder.
    (tmp_path / "include").mkdir()
    get_path = sysconfig.get_path
    monkeypatch.setattr(sysconfig, "get_path", lambda name, *args, **kwargs:
                        str(tmp_path / "include") if name == "include" else get_path(name, *args, **kwargs))
    monkeypatch.setattr(cp, "_KERNEL_CACHE", tmp_path / "cache")
    monkeypatch.setattr(cp, "_kernel", None)
    with pytest.raises(cp._KernelBuildError, match="Python.h"):
        walk_checkpoints_batch(ModelParams(0.5, 0.5, 0.5), [10], [RngStreamSpec(1)])
    assert list((tmp_path / "cache").iterdir()) == []


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
    # A cast to int64 would truncate 2.5 to step 2, and overflow on inf.
    for checkpoints in ([2.5], [3, 4.5], [float("inf")], [float("nan")], [1, 2**63]):
        with pytest.raises(ValueError, match="integral"):
            walk_checkpoints_batch(params, checkpoints, [RngStreamSpec(1)])


def test_integral_checkpoints_of_any_type_agree():
    params = ModelParams(s=0.5, q=0.5, p=0.5)
    specs = [RngStreamSpec(1, i) for i in range(3)]
    ref = walk_checkpoints_batch(params, [2, 5, 9], specs)
    for cps in ([2.0, 5.0, 9.0], np.array([2, 5, 9], dtype=np.uint32), np.array([2.0, 5.0, 9.0])):
        assert np.array_equal(walk_checkpoints_batch(params, cps, specs), ref)


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
