import json
import math
import resource
import subprocess
import sys
import sysconfig
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import mrwlab.cli
import mrwlab.core_process as cp
from mrwlab import ModelParams, RngStreamSpec, exact_mean_recursion, simulate_urn
from mrwlab.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_REGIME, main


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out-path", str(out)])
    return rc, out


# ---------------------------------------------------------------- smokes


@pytest.mark.parametrize(
    "name,argv",
    [
        ("simulate", ["simulate", "--n", "200", "--replicas", "50"]),
        ("simulate-traj", ["simulate", "--n", "50", "--trajectory", "--mechanism", "lookup"]),
        ("exact", ["exact", "--n", "40", "--q", "0.25", "--p", "0.75"]),
        ("asclt", ["asclt", "--n", "500"]),
        ("asclt-crit", ["asclt", "--n", "500", "--q", "0.25", "--p", "0.75"]),
        ("qsl", ["qsl", "--n", "300", "--r-order", "2", "--replicas", "3"]),
        ("fclt", ["fclt", "--n", "200", "--replicas", "5"]),
        ("fclt-cov", ["fclt", "--n", "200", "--replicas", "1000"]),
        ("urn", ["urn-compare", "--n", "25"]),
        ("super", ["superdiffusive", "--n", "100,1000", "--replicas", "200", "--q", "0.1", "--p", "0.9"]),
        ("sequences", ["sequences", "--n", "100000", "--points", "10", "--q", "0.25", "--p", "0.75"]),
    ],
)
def test_subcommand_smokes(tmp_path, name, argv):
    rc, out = run_to_file(tmp_path, name + ".csv", argv)
    assert rc == EXIT_OK
    text = out.read_text()
    assert text.startswith("#")
    assert "# q=" in text and "# seed=42" in text and "# regime=" in text


def test_stdout_default(capsys):
    rc = main(["exact", "--n", "5"])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert "# command=exact" in captured.out
    # one-line summary on stderr
    assert captured.err.strip() != ""


# ---------------------------------------------------------------- formats


def test_csv_layout_and_precision(tmp_path):
    rc, out = run_to_file(tmp_path, "exact.csv", ["exact", "--n", "8", "--q", "0.3", "--p", "0.9"])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any(ln.startswith("# alpha=") for ln in comments)
    header, rows = data[0], data[1:]
    assert len(rows) == 9
    # probabilities carry 17 significant digits and sum to one on re-parse
    probs = [float(r.split(",")[1]) for r in rows]
    assert abs(sum(probs) - 1.0) < 1e-12
    assert any(len(r.split(",")[1]) >= 17 for r in rows)


def test_json_schema(tmp_path):
    rc, out = run_to_file(
        tmp_path,
        "qsl.json",
        ["qsl", "--n", "300", "--replicas", "4", "--out", "json", "--q", "0.25", "--p", "0.75"],
    )
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "qsl"
    cfg = doc["config"]
    assert cfg["q"] == 0.25 and cfg["p"] == 0.75 and cfg["seed"] == 42
    assert cfg["regime"] == "critical"
    assert abs(cfg["alpha"] - 0.5) < 1e-15
    assert doc["table"]["rows"], "table should not be empty"
    assert {"target", "mean", "standard_error"} <= set(doc["results"])


def test_json_preserves_integer_cells(tmp_path):
    rc, out = run_to_file(
        tmp_path, "seq.json", ["sequences", "--n", "1000", "--points", "5", "--out", "json"]
    )
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    n_col = doc["table"]["columns"].index("n")
    for row in doc["table"]["rows"]:
        assert isinstance(row[n_col], int)


# ---------------------------------------------------------------- reproducibility


def test_outputs_are_byte_identical_across_runs_and_threads(tmp_path):
    argv = ["qsl", "--n", "400", "--replicas", "8", "--q", "0.25", "--p", "0.75"]
    _, a = run_to_file(tmp_path, "a.csv", argv + ["--threads", "1"])
    _, b = run_to_file(tmp_path, "b.csv", argv + ["--threads", "1"])
    _, c = run_to_file(tmp_path, "c.csv", argv + ["--threads", "4"])
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_seed_changes_output(tmp_path):
    argv = ["simulate", "--n", "100", "--replicas", "10"]
    _, a = run_to_file(tmp_path, "a.csv", argv)
    _, b = run_to_file(tmp_path, "b.csv", argv + ["--seed", "43"])
    assert a.read_bytes() != b.read_bytes()


# ---------------------------------------------------------------- exit codes


def test_config_error_exit(capsys):
    assert main(["simulate", "--n", "100", "--q", "0.0"]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_regime_error_exit(capsys):
    assert main(["asclt", "--n", "1000", "--q", "0.1", "--p", "0.9"]) == EXIT_REGIME
    assert "regime mismatch" in capsys.readouterr().err


def test_io_error_exit(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    rc = main(["exact", "--n", "5", "--out-path", str(missing)])
    assert rc == EXIT_IO
    assert "i/o failure" in capsys.readouterr().err


def test_superdiffusive_rejects_bad_horizon_list(capsys):
    rc = main(["superdiffusive", "--n", "1000,100", "--q", "0.1", "--p", "0.9"])
    assert rc == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("grid", ["0.5,2", "0.5,1e30"])
def test_fclt_rejects_grid_times_past_the_horizon(tmp_path, capsys, grid):
    rc, out = run_to_file(tmp_path, "fclt.csv", ["fclt", "--n", "100", "--replicas", "5", "--grid", grid])
    assert rc == EXIT_CONFIG and not out.exists()
    assert "grid times must be finite and lie in (0, 1], got grid [0.5, " in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["", "0.5,,1"])
def test_fclt_rejects_empty_grid_times(tmp_path, capsys, grid):
    # An empty --grid is an empty grid time, not the regime's default grid.
    rc, out = run_to_file(tmp_path, "fclt.csv", ["fclt", "--n", "100", "--replicas", "5", "--grid", grid])
    assert rc == EXIT_CONFIG and not out.exists()
    assert "could not convert string to float: ''" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.5,nan", "0.5,inf"])
def test_fclt_rejects_non_finite_grid_times(tmp_path, capsys, grid):
    rc, out = run_to_file(tmp_path, "fclt.csv", ["fclt", "--n", "100", "--replicas", "5", "--grid", grid])
    assert rc == EXIT_CONFIG and not out.exists()
    assert "grid times must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "10", "--replicas", "0"],
        ["simulate", "--n", "10", "--replicas", "-2"],
        ["qsl", "--n", "10", "--replicas", "0"],
        ["fclt", "--n", "10", "--replicas", "0"],
        ["superdiffusive", "--n", "10,100", "--replicas", "0", "--q", "0.1", "--p", "0.9"],
    ],
)
def test_nonpositive_replicas_exit(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    assert "--replicas must be at least 1" in capsys.readouterr().err


def test_qsl_refuses_a_moment_beyond_the_double_range_before_simulating(monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("qsl simulated before its target was resolved")

    monkeypatch.setattr(mrwlab.cli, "qsl_functional_batch", no_simulation)
    assert main(["qsl", "--n", "300", "--r-order", "198", "--replicas", "2"]) == EXIT_CONFIG
    assert "r = 198" in capsys.readouterr().err


def test_simulate_refuses_an_undefined_exact_mean_before_simulating(monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate walked before its exact mean was resolved")

    monkeypatch.setattr(mrwlab.cli, "walk_checkpoints_batch", no_simulation)
    argv = ["simulate", "--q", "2.2250738585072014e-308", "--p", "1", "--n", "10000000", "--replicas", "200"]
    assert main(argv) == EXIT_CONFIG
    assert "the float 1 - alpha is 0 at alpha = 1.0" in capsys.readouterr().err


def test_qsl_runs_past_the_factorial_range(tmp_path):
    argv = ["qsl", "--n", "300", "--r-order", "86", "--replicas", "2", "--out", "json"]
    rc, out = run_to_file(tmp_path, "qsl.json", argv)
    assert rc == EXIT_OK
    assert 1.90e103 < json.loads(out.read_text())["results"]["target"] < 1.91e103


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_nonpositive_threads_exit(capsys, threads):
    # 0 is a thread count like any other, not "use the default".
    assert main(["simulate", "--n", "10", "--replicas", "3", "--threads", threads]) == EXIT_CONFIG
    assert "--threads must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("replicas", ["2", "5"])
def test_trajectory_rejects_more_than_one_replica(tmp_path, capsys, replicas):
    rc, out = run_to_file(tmp_path, "traj.csv", ["simulate", "--n", "3", "--trajectory", "--replicas", replicas])
    assert rc == EXIT_CONFIG and not out.exists()
    assert "--trajectory" in capsys.readouterr().err


def test_lookup_trajectory_is_the_urn_blue_count(tmp_path):
    rc, out = run_to_file(tmp_path, "traj.csv", ["simulate", "--n", "60", "--seed", "5", "--q", "0.3",
                                                  "--p", "0.8", "--trajectory", "--mechanism", "lookup"])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == ["k", "S_k"]
    blue = simulate_urn(ModelParams(0.5, 0.3, 0.8), 60, RngStreamSpec(5, 0)).blue
    assert rows[1:] == [[str(k), str(b)] for k, b in enumerate(blue)]


def test_lookup_mechanism_needs_trajectory(tmp_path, capsys):
    # Final positions always read the direct engine stream, so lookup there would be mislabelled.
    rc, out = run_to_file(tmp_path, "sim.csv", ["simulate", "--n", "10", "--replicas", "2", "--mechanism", "lookup"])
    assert rc == EXIT_CONFIG and not out.exists()
    assert "--mechanism lookup needs --trajectory" in capsys.readouterr().err


@pytest.mark.parametrize("replica", [str(2**64), str(2**70), "-1"])
def test_asclt_replica_outside_64_bits_is_a_config_error(capsys, replica):
    assert main(["asclt", "--n", "20", "--replica", replica]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "replica_index must be an unsigned 64-bit integer" in err and "C long" not in err


def test_asclt_reads_the_last_64_bit_replica(tmp_path):
    rc, _ = run_to_file(tmp_path, "asclt.csv", ["asclt", "--n", "20", "--replica", str(2**64 - 1)])
    assert rc == EXIT_OK


def test_trajectory_is_replica_zero_of_the_simulate_stream(tmp_path):
    argv = ["simulate", "--n", "5000", "--q", "0.25", "--p", "0.75"]
    _, traj = run_to_file(tmp_path, "traj.csv", argv + ["--trajectory"])
    _, finals = run_to_file(tmp_path, "finals.csv", argv + ["--replicas", "1"])
    assert traj.read_text().splitlines()[-1] == "5000,2563"
    assert finals.read_text().splitlines()[-1] == "0,2563"


@pytest.mark.parametrize("points", ["1", "0", "-3"])
def test_sequences_rejects_fewer_than_two_points(capsys, points):
    assert main(["sequences", "--n", "1000", "--points", points]) == EXIT_CONFIG
    assert f"points must be at least 2, got {points}" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1", "0"])
def test_sequences_rejects_a_horizon_below_two(capsys, n):
    assert main(["sequences", "--n", n]) == EXIT_CONFIG
    assert f"horizon must be at least 2, got {n}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["qsl", "--replicas", "1", "--n", str(cp.MAX_HORIZON + 1)],
        ["simulate", "--n", str(cp.MAX_HORIZON + 1)],
        ["simulate", "--trajectory", "--n", str(cp.MAX_HORIZON + 1)],
        ["simulate", "--trajectory", "--mechanism", "lookup", "--n", str(cp.MAX_HORIZON + 1)],
        ["asclt", "--n", str(cp.MAX_HORIZON + 1)],
        ["fclt", "--n", str(cp.MAX_HORIZON + 1)],
        # superdiffusive walks each replica to twice its largest horizon.
        ["superdiffusive", "--q", "0.1", "--p", "0.9", "--replicas", "2", "--n", str(cp.MAX_HORIZON // 2 + 1)],
        ["sequences", "--n", str(cp.MAX_HORIZON + 1)],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:-2]),
)
def test_a_horizon_beyond_the_bound_exits_before_simulating(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == EXIT_CONFIG
    assert time.perf_counter() - start < 1.0
    assert "the horizon must be at most MAX_HORIZON = 100000000" in capsys.readouterr().err


_NEAR_CRITICAL = ["--n", "1000", "--q", "0.0007500000000000285", "--p", "0.50075"]


@pytest.mark.parametrize("command", ["fclt", "asclt", "qsl", "sequences"])
def test_near_critical_float_alpha_is_a_named_config_error(tmp_path, capsys, command):
    # Diffusive in exact rationals, but the float alpha is 1/2, so 1 - 2 alpha is 0.
    assert main([command, *_NEAR_CRITICAL, "--out-path", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "damping 1 - 2 alpha is 0.0 at the float alpha = 0.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_runs_at_the_near_critical_point(tmp_path):
    rc, _ = run_to_file(tmp_path, "sim.csv", ["simulate", *_NEAR_CRITICAL, "--replicas", "2"])
    assert rc == EXIT_OK


@pytest.mark.parametrize(
    "pq,extra",
    [
        (["--q", "0.25", "--p", "0.5"], ["v_over_power", "n_times_f"]),
        (["--q", "0.2", "--p", "0.7"], ["v_over_logn", "nlogn_times_f"]),
        (["--q", "0.1", "--p", "0.9"], []),
    ],
)
def test_sequences_columns_follow_the_library_diagnostics(tmp_path, pq, extra):
    rc, out = run_to_file(tmp_path, "seq.json", ["sequences", "--n", "5000", "--points", "8", "--out", "json", *pq])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["table"]["columns"] == ["n", "a_n", "A_n", "v_n", "f_n", "mean_ratio_dev", *extra]
    expected = {"sigma2"} | {f"{name}_{end}" for name in extra for end in ("final", "target")}
    assert set(doc["results"]) == expected


def test_sequences_rejects_alpha_minus_one(capsys):
    rc = main(["sequences", "--n", "100", "--q", "1", "--p", "0"])
    assert rc == EXIT_CONFIG
    assert "alpha = -1" in capsys.readouterr().err


def test_simulate_at_alpha_minus_one_reports_exact_mean(tmp_path):
    # E[S_{m+1}] = 1 + (1 - 1/m) E[S_m] at alpha = -1, so E[S_m] = m/2 for m >= 2.
    rc, out = run_to_file(tmp_path, "sim.csv", ["simulate", "--n", "100", "--replicas", "3", "--q", "1", "--p", "0"])
    assert rc == EXIT_OK
    assert "# diagnostic exact_mean=50" in out.read_text().splitlines()


def test_default_threads_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(cp.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cp.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert cp._usable_cpus() == 2
    monkeypatch.delattr(cp.os, "sched_getaffinity")
    assert cp._usable_cpus() == 64


def test_exact_rejects_oversized_n(capsys):
    rc = main(["exact", "--n", "20000"])
    assert rc == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("q,p", [("0.6", "1.0"), ("0.5", "1.0")], ids=["diffusive", "critical"])
def test_fclt_covariance_with_a_zero_kernel_reports_absolute_error(tmp_path, q, p):
    # At p = 1 the limit kernel is identically 0, so a relative error is undefined.
    argv = ["fclt", "--n", "500", "--replicas", "1000", "--q", q, "--p", p, "--out", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out = run_to_file(tmp_path, "fclt.json", argv)
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    rows = doc["table"]["rows"]
    assert all(row[3] == 0.0 for row in rows)
    assert "max_relative_error" not in doc["results"]
    assert doc["results"]["max_absolute_error"] == max(abs(row[2]) for row in rows)


def _exact_statistic_mean(s: float, q: float, p: float, n: int) -> float:
    """n^(1-alpha)(E[S_n]/n - q/(1-alpha)) from the mean recursion in exact arithmetic."""
    s_, q_, p_ = Fraction(s), Fraction(q), Fraction(p)
    alpha = p_ - q_
    mean = s_
    for m in range(1, n):
        mean += q_ + alpha * mean / m
    return float(mean - n * q_ / (1 - alpha)) * n ** -ModelParams(s, q, p).alpha


@pytest.mark.parametrize("s,q,p", [(0.5, 0.1, 0.9), (0.3, 0.1, 0.9), (0.9, 0.15, 0.8), (0.05, 0.05, 0.7)])
def test_superdiffusive_exact_final_mean_matches_exact_recursion(tmp_path, s, q, p):
    argv = ["superdiffusive", "--n", "3,100", "--replicas", "2", "--s", str(s), "--q", str(q), "--p", str(p)]
    rc, out = run_to_file(tmp_path, "super.json", argv + ["--out", "json"])
    assert rc == EXIT_OK
    value = json.loads(out.read_text())["results"]["exact_final_mean"]
    assert abs(value - _exact_statistic_mean(s, q, p, 100)) <= 1e-15


def test_simulate_exact_mean_does_not_materialize_the_sequences(tmp_path):
    argv = ["simulate", "--n", "5000", "--replicas", "4", "--q", "0.3", "--p", "0.6"]
    expected = format(float(exact_mean_recursion(ModelParams(0.5, 0.3, 0.6), 5000)[-1]), ".17g")
    rc, out = run_to_file(tmp_path, "sim.csv", argv)
    assert rc == EXIT_OK
    assert f"# diagnostic exact_mean={expected}" in out.read_text().splitlines()


def test_missing_compiler_exits_with_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cp, "_KERNEL_CACHE", tmp_path)
    monkeypatch.setattr(cp, "_engine", None)
    monkeypatch.setenv("PATH", str(tmp_path))
    assert main(["simulate", "--n", "10", "--replicas", "3"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "`cc`" in err and "Traceback" not in err


def test_missing_python_headers_exit_with_config_error(tmp_path, monkeypatch, capsys):
    get_path = sysconfig.get_path
    monkeypatch.setattr(sysconfig, "get_path", lambda name, *args, **kwargs:
                        str(tmp_path) if name == "include" else get_path(name, *args, **kwargs))
    monkeypatch.setattr(cp, "_KERNEL_CACHE", tmp_path / "cache")
    monkeypatch.setattr(cp, "_engine", None)
    assert main(["simulate", "--n", "10", "--replicas", "3"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Python.h" in err and "Traceback" not in err


def test_run_beyond_memory_exits_with_config_error():
    # 5e7 replicas cannot be set up in a 512 MB address space, set in the child only.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

    argv = [sys.executable, "-m", "mrwlab.cli", "simulate", "--n", "10", "--replicas", "50000000"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, preexec_fn=limit,
                          env={"PYTHONPATH": str(Path(cp.__file__).parents[1])})
    assert done.returncode == EXIT_CONFIG and done.stdout == "", done.stderr
    assert "does not fit in memory" in done.stderr and "Traceback" not in done.stderr


def test_import_does_not_load_scipy_stats():
    # scipy.stats costs about a second to import, and every CLI call would pay
    # it; scipy.special is most of the rest of the package's import time, and
    # only the weighted KS distance needs it.
    code = "import sys, mrwlab, mrwlab.cli; print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(Path(cp.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False"


# ---------------------------------------------------------------- boundary sweep

_TINY_Q = "2.2250738585072014e-308"  # the smallest normal double

# (q, p) as typed: alpha = 1/2 in decimals and within ulps of it on both sides,
# alpha = -1, p = 1 in each regime, q at the smallest normal double, and
# decimal spellings whose doubles are the critical point.
_EDGE_POINTS = [
    ("0.25", "0.75"),
    ("0.2", "0.7"),  # critical, float alpha 0.49999999999999994
    ("0.25", "0.7499999999999999"),
    ("0.25", "0.7500000000000001"),
    ("0.2", "0.7000000000000001"),
    ("0.0007500000000000285", "0.50075"),  # diffusive, float alpha 0.5
    ("1", "0"),
    ("0.7", "1"),
    ("0.5", "1"),
    ("0.3", "1"),
    (_TINY_Q, "0"),
    (_TINY_Q, "0.5"),
    (_TINY_Q, "1"),  # superdiffusive, float 1 - alpha is 0
    ("0.25", "0.75000000000000001"),
    ("0.24999999999999999", "0.75"),
    ("2.5e-1", "7.5e-1"),
]

_SMALL_RUNS = {
    "simulate": ["simulate", "--n", "16", "--replicas", "3"],
    "exact": ["exact", "--n", "16"],
    "asclt": ["asclt", "--n", "16"],
    "qsl": ["qsl", "--n", "16", "--replicas", "2"],
    "fclt": ["fclt", "--n", "16", "--replicas", "3"],
    "fclt-covariance": ["fclt", "--n", "16", "--replicas", "1000"],
    "urn-compare": ["urn-compare", "--n", "16"],
    "superdiffusive": ["superdiffusive", "--n", "8,16", "--replicas", "3"],
    "sequences": ["sequences", "--n", "64", "--points", "5"],
}


def _decimal(text):
    return Fraction(repr(float(text)))


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for x in node:
            yield from _numbers(x)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


@pytest.mark.parametrize("run", ["simulate", "superdiffusive", "sequences"])
def test_a_float_one_minus_alpha_of_zero_is_a_named_config_error(capsys, run):
    # At p = 1 with q below 2^-53 the float 1 - alpha is 0, so the centre q/(1 - alpha) is undefined.
    assert main([*_SMALL_RUNS[run], "--q", _TINY_Q, "--p", "1"]) == EXIT_CONFIG
    assert "the float 1 - alpha is 0 at alpha = 1.0" in capsys.readouterr().err


def _exit_cleanly(capsys, argv):
    # Finite numbers on exit 0, or exit 2 or 3 with a message; no warning escapes.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*argv, "--out", "json", "--threads", "1"])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_REGIME), err
    if rc == EXIT_OK:
        values = list(_numbers(json.loads(out)))
        assert values and all(math.isfinite(x) for x in values), out
    else:
        assert out == "" and err.strip() != ""
    return rc, err


@pytest.mark.parametrize("q,p", _EDGE_POINTS, ids=lambda x: x)
@pytest.mark.parametrize("run", list(_SMALL_RUNS))
def test_boundary_points_exit_cleanly(capsys, run, q, p):
    # The Gaussian limit harnesses exit 3 wherever p - q > 1/2, taken in the
    # shortest decimals of the parsed doubles (0.75000000000000001 parses to 0.75).
    rc, err = _exit_cleanly(capsys, [*_SMALL_RUNS[run], "--q", q, "--p", p])
    if run in ("asclt", "qsl", "fclt", "fclt-covariance") and _decimal(p) - _decimal(q) > Fraction(1, 2):
        assert rc == EXIT_REGIME, err


@pytest.mark.parametrize("run", list(_SMALL_RUNS))
def test_smallest_horizons_exit_cleanly(capsys, run):
    # The last --n given wins, so it replaces the run's own horizon.
    for q, p in [("0.5", "0.5"), ("0.25", "0.75"), ("0.1", "0.9"), ("1", "0"), ("0.6", "1")]:
        for n in ("1", "2", "3"):
            _exit_cleanly(capsys, [*_SMALL_RUNS[run], "--q", q, "--p", p, "--n", n])
