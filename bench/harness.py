"""Runs one workload untraced or traced and reports its metrics."""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import machine_record
from spans import Ledger, Tracer
from workloads import THREADS, WORKLOADS, Context, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MIN_PASSES = 3
# Time the tracer may add around the pass span: two clock reads and a
# context manager, well under a millisecond unless the process is descheduled.
BRACKET_SLACK_S = 0.05
MIN_SETUP_PROBES = {"full": 9, "smoke": 1}
PROBES_PER_PASS = {"full": 2, "smoke": 0}

# A fresh interpreter imports the package and the CLI, makes one tiny call
# and prints the monotonic clock, which Linux shares between processes.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, {src!r})
import mrwlab, mrwlab.cli
from mrwlab import ModelParams, RngStreamSpec, walk_checkpoints_batch
walk_checkpoints_batch(ModelParams(0.5, 0.25, 0.75), [10], [RngStreamSpec(0, 0)])
print(time.monotonic())
"""


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup_probe() -> float:
    """Seconds from interpreter start to import and one call done, in a fresh process."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE.format(src=str(SRC))],
        capture_output=True, text=True, timeout=150, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1]) - t0


def finish_pass(wl, ctx, out, tr, led):
    """Everything after a pass's timed region: collect, check, digest."""
    wl.collect(ctx, out)
    wl.check(ctx, out, tr, led)
    try:
        return digest(wl.digest_parts(out))
    except (AttributeError, TypeError, KeyError):
        return None  # a failed call left no output; the ledger already counted it


def run_untraced(wl, ctx, seconds, led):
    off = Tracer(False)
    setup, digests, walls, cpus = [], [], [], []
    counts = None
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()
        c0, t0 = cpu_seconds(), time.perf_counter()
        out = wl.run_pass(ctx, off, led)
        t1, c1 = time.perf_counter(), cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        digests.append(finish_pass(wl, ctx, out, off, led))
        counts = counts or wl.counts(ctx, out)
        del out
        # Set-up probes after each pass spread over the run, so a few busy
        # seconds on the machine do not decide their median.
        setup.extend(setup_probe() for _ in range(PROBES_PER_PASS[ctx.scale]))
    while len(setup) < MIN_SETUP_PROBES[ctx.scale]:
        setup.append(setup_probe())
    wl.check_once(ctx, off, led)
    q = statistics.quantiles(walls, n=4)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    detail = {
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "wall_s_quartiles": [q[0], q[2]],
        "setup_probe_s": setup,
    }
    return metrics, digests, counts, detail


def run_traced(wl, ctx, led, spec, import_s):
    off, tr = Tracer(False), Tracer(True)
    gc.collect()
    t0 = time.perf_counter()
    out = wl.run_pass(ctx, off, led)
    untraced_wall = time.perf_counter() - t0
    with tr.span("checks"):
        digests = [finish_pass(wl, ctx, out, tr, led)]
    del out
    gc.collect()
    t0 = time.perf_counter()
    with tr.span(f"pass:{wl.name}") as root:
        out = wl.run_pass(ctx, tr, led)
    bracket = time.perf_counter() - t0
    with tr.span("checks"):
        digests.append(finish_pass(wl, ctx, out, tr, led))
        wl.check_once(ctx, tr, led)
    with tr.span(f"layers:{wl.name}"):
        metrics = wl.layers(ctx, out, root, tr, led)
    counts = wl.counts(ctx, out)
    del out
    sources = {k: f"{wl.name}@{ctx.scale}" for k in metrics}

    # Metrics this workload does not exercise come from the other workloads'
    # passes and layer calls, at this run's size.
    per_layer = [m["name"] for m in spec["per_layer"]]
    for other in WORKLOADS.values():
        missing = [k for k in per_layer if k not in metrics and not k.startswith(("trace.", "setup."))]
        if other is wl or not missing:
            continue
        pctx = Context(ctx.seed, ctx.scale, ctx.workdir)
        other.prepare(pctx)
        with tr.span(f"probe:{other.name}"):
            with tr.span(f"pass:{other.name}") as proot:
                pout = other.run_pass(pctx, tr, led)
            with tr.span("checks"):
                finish_pass(other, pctx, pout, tr, led)
            probe = other.layers(pctx, pout, proot, tr, led)
        for k in missing:
            if k in probe:
                metrics[k] = probe[k]
                sources[k] = f"{other.name}@{ctx.scale}"

    # Self times plus the remainder equal the traced wall time when the spans
    # nest; check that they do, and that the pass span covers the pass as
    # timed from outside the tracer.
    nesting = [e for r in tr.roots for e in r.nesting_errors()]
    led.check("traced spans nest without overlap", lambda: (not nesting, nesting[:5]))
    led.check(
        "the pass span covers the pass timed outside the tracer",
        lambda: (
            0 <= bracket - root.duration <= BRACKET_SLACK_S,
            f"pass span {root.duration} s, outside bracket {bracket} s",
        ),
    )
    self_sum = sum(s.self_time for s in root.walk() if s is not root)
    own = {
        "exact_oracle.check_s": sum(
            s.duration for r in tr.roots for s in r.walk() if s.name.startswith("check.exact_oracle.")
        ),
        "setup.import_s": import_s,
        "trace.overhead_s": root.duration - untraced_wall,
        "trace.remainder_s": root.self_time,
    }
    metrics.update(own)
    sources.update({k: f"{wl.name}@{ctx.scale}" for k in own})
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": root.duration,
        "self_time_sum_s": self_sum,
        "metric_sources": sources,
        "spans": tr.records(),
    }
    return metrics, digests, counts, detail


def run_one(args, import_s: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"tmp-{args.workload}-{args.seed}-{time.time_ns()}"
    led = Ledger()
    ctx = Context(args.seed, args.scale, workdir)
    try:
        wl.prepare(ctx)
        # Warm-up: one smoke-size pass fills lazy imports and code paths.
        warm = Context(args.seed, "smoke", workdir)
        wl.prepare(warm)
        off = Tracer(False)
        finish_pass(wl, warm, wl.run_pass(warm, off, led), off, led)
        if args.trace:
            names = spec["per_layer"]
            metrics, digests, counts, detail = run_traced(wl, ctx, led, spec, import_s)
        else:
            names = spec["end_to_end"]
            metrics, digests, counts, detail = run_untraced(wl, ctx, args.seconds, led)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    led.check(
        "every pass gives the same output bytes",
        lambda: (None not in digests and len(set(digests)) == 1, f"digests {digests}"),
    )
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    report(args, wl, led, result, digests[0], counts, detail)
    return 0


def report(args, wl, led, metrics, output_digest, counts, detail) -> None:
    record = machine_record(ROOT, args.seed, THREADS)
    failed_share = led.failed / led.attempted
    mode = "traced" if args.trace else "tracing off"
    print("machine: " + ", ".join(f"{k}={v}" for k, v in record.items()))
    print(f"workload {wl.name} (seed {args.seed}, {args.scale} size, {mode}): {wl.why}")
    if wl.ungated:
        print(f"  not in BENCHMARK.json: {wl.ungated}")
    sources = detail.get("metric_sources", {})
    for name, m in metrics.items():
        source = sources.get(name, "")
        borrowed = f"  (from {source})" if source and not source.startswith(f"{wl.name}@") else ""
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}{borrowed}")
    if not args.trace:
        q1, q3 = detail["wall_s_quartiles"]
        print(f"  {'wall_s quartiles':52s} {q1:.6g} .. {q3:.6g} s over {len(detail['pass_wall_s'])} passes")
    print(f"  {'failed_share':52s} {failed_share:.6g} ({led.failed} of {led.attempted} operations)")
    print("  counts: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"  output sha256 {output_digest}")
    for failure in led.failures:
        print(f"  FAILED {failure}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{wl.name}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "machine": record,
        "workload": wl.name,
        "why": wl.why,
        "scale": args.scale,
        "seconds": args.seconds,
        "metrics": metrics,
        "failed_share": failed_share,
        "attempted": led.attempted,
        "failed": led.failed,
        "failures": led.failures,
        "counts": counts,
        "output_sha256": output_digest,
        **detail,
    }, indent=1) + "\n")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": metrics,
    }))
