"""Benchmark of mrwlab: four workloads, end-to-end metrics, per-layer timings.

Run from the repository root:

    python3 bench/run.py --workload replica_batch --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --workload cli_exact --trace 1 --scale smoke

The program under test is the package in src/ of the same checkout; nothing
is installed. BENCHMARK.json declares the metrics and the gated workloads
(replica_fanout and replica_batch); single_path and cli_exact run the same
way but are left out of it, and each says why when it runs. --workload all
runs all four, each in its own process.

--trace 0 times whole passes with tracing off: after a smoke-size warm-up it
repeats the workload's pass until --seconds have gone by and at least three
passes ran, and reports the end-to-end metrics (medians over passes; set-up
time is the median of fresh-process probes, two after each pass). --trace 1
runs one untraced and one traced pass, then the layer calls, and reports the
per-layer metrics.
Metrics the workload does not exercise come from the other workloads' passes
and layer calls at the same size; the printed lines and the result file name
each one's source. Every pass's outputs are checked against exact oracles
outside the timed region.
--scale smoke runs everything at tiny sizes.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The full result
(machine record, pass times, counts, output digest, failures and, when
traced, every span) is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    return args


def run_all(args) -> int:
    """Every workload, gated or not, each in its own process, so peak RSS and
    set-up stay per workload."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mrwlab" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: {ROOT} lacks src/mrwlab/ or BENCHMARK.json", file=sys.stderr)
        return 2
    for path in (str(SRC), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return run_all(args)
    # Timed first, before anything else loads numpy or scipy.
    t0 = time.perf_counter()
    import mrwlab
    import_s = time.perf_counter() - t0
    if Path(mrwlab.__file__).resolve().parent != (SRC / "mrwlab").resolve():
        print(f"bench: imported mrwlab from {mrwlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.run_one(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
