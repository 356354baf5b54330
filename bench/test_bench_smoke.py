"""Smoke test of the benchmark: every workload, every check and the trace
writer at tiny sizes, plus the refusal to run without the program's sources."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import Span

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", ["replica_fanout", "replica_batch", "single_path", "cli_exact"]
)
def test_smoke_workload(workload, trace, capsys):
    code = run.main(
        ["--workload", workload, "--scale", "smoke", "--seconds", "0", "--trace", str(trace)]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, out
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and isinstance(value["value"], (int, float))
    written = json.loads(
        (run.ROOT / ".bench_out" / f"{workload}-smoke-seed1-trace{trace}.json").read_text()
    )
    assert written["machine"]["threads"] == 2
    if trace:
        spans = {s["id"]: s for s in written["spans"]}
        assert spans
        for s in spans.values():
            assert s["start_s"] <= s["end_s"] and s["self_s"] >= 0, s
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                assert parent["start_s"] <= s["start_s"] and s["end_s"] <= parent["end_s"], s
        children = {}
        for s in written["spans"]:
            children.setdefault(s["parent"], []).append(s)
        for siblings in children.values():
            for a, b in zip(siblings, siblings[1:]):
                assert a["end_s"] <= b["start_s"], (a, b)


def test_nesting_check_catches_broken_trees():
    root = Span(0, "root", None, 0.0, 10.0)
    first = Span(1, "first", 0, 1.0, 5.0)
    root.children.append(first)
    assert root.nesting_errors() == []
    root.children.append(Span(2, "overlaps", 0, 4.0, 6.0))
    first.children.append(Span(3, "outside", 1, 0.5, 2.0))
    errors = root.nesting_errors()
    assert any("overlaps its sibling first" in e for e in errors)
    assert any("outside lies outside its parent first" in e for e in errors)
    root.children[1].children.append(Span(4, "long", 2, 4.0, 9.0))
    assert any("overlaps has self time" in e for e in root.nesting_errors())


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replica_fanout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
