"""Command-line entry point.

Each subcommand wires parameters, a master seed, and replica counts into one
harness operation and emits CSV or JSON. Output embeds the full
configuration (comment lines prefixed '#' in CSV, a config object in JSON),
so files are self-describing, and identical configurations produce
byte-identical files at any thread count.

Exit codes: 0 success, 2 configuration error, 3 regime mismatch for the
requested experiment, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from .core_process import (
    ModelParams,
    RegimeError,
    RngStreamSpec,
    _KernelBuildError,
    classify_regime,
    simulate_urn,
    simulate_walk,
    walk_checkpoints_batch,
)
from .exact_oracle import (
    DP_BOUND,
    exact_distribution,
    exact_mean_checkpoints,
    exact_urn_distribution,
    total_variation,
)
from .limit_harness import (
    asclt_measure,
    covariance_grid,
    fclt_skeletons_batch,
    limit_law,
    qsl_functional_batch,
    superdiffusive_limit,
    weighted_ks_to_normal,
    weighted_mean_variance,
)
from .martingale_sequences import sequence_asymptotics, sigma_squared

SCHEMA_VERSION = 1


def _json_cell(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    return float(x)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_IO = 4


def _fmt(x) -> str:
    """Round-trip-safe decimal text for doubles (17 significant digits)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=float, default=0.5, help="response to an observed 0 (default 0.5)")
    sub.add_argument("--p", type=float, default=0.5, help="response to an observed 1 (default 0.5)")
    sub.add_argument("--s", type=float, default=0.5, help="first-step probability (default 0.5)")
    sub.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker threads, at most the usable CPUs (default: all of them); "
        "results are identical at any value",
    )
    sub.add_argument(
        "--out",
        choices=("csv", "json"),
        default="csv",
        help="output format (default csv)",
    )
    sub.add_argument(
        "--out-path",
        default="-",
        help="output file path, or '-' for stdout (default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrwlab",
        description="Simulation and verification lab for the minimal random walk "
        "and its two-color urn.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("simulate", help="simulate walk replicas; final positions or one trajectory")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True, help="number of steps")
    sp.add_argument("--replicas", type=int, default=1)
    sp.add_argument(
        "--mechanism",
        choices=("direct", "lookup"),
        default="direct",
        help="stepping mechanism of the --trajectory path: direct reads the walk engine's stream of "
        "replica 0, lookup runs the urn's draw-and-respond chain on it (lookup needs --trajectory)",
    )
    sp.add_argument(
        "--trajectory",
        action="store_true",
        help="emit the full (k, S_k) path of replica 0 instead of final positions (needs --replicas 1)",
    )

    sp = subs.add_parser("exact", help="exact law of S_n by dynamic programming")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True, help=f"step count (at most {DP_BOUND})")

    sp = subs.add_parser("asclt", help="single-path weighted empirical measure vs. its Gaussian target")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--replica", type=int, default=0, help="replica index of the path (default 0)")

    sp = subs.add_parser("qsl", help="even-moment path functional vs. its limit")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r-order", type=int, default=1, help="moment order r (default 1)")
    sp.add_argument("--replicas", type=int, default=1)

    sp = subs.add_parser("fclt", help="path skeletons; covariance grid when replicas >= 1000")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--replicas", type=int, default=1000)
    sp.add_argument(
        "--grid",
        type=str,
        default=None,
        help="comma-separated grid times (defaults: diffusive 0.25,0.5,0.75,1; critical 0.5,0.75,1)",
    )

    sp = subs.add_parser("urn-compare", help="TV distance between exact urn and walk laws")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True, help=f"step count (at most {DP_BOUND})")

    sp = subs.add_parser("superdiffusive", help="samples of the superdiffusive a.s. limit statistic")
    _add_common(sp)
    sp.add_argument(
        "--n",
        type=str,
        default="1000,10000,100000",
        help="comma-separated increasing horizons (default 1000,10000,100000)",
    )
    sp.add_argument("--replicas", type=int, default=10000)

    sp = subs.add_parser("sequences", help="coefficient sequences and their limit diagnostics")
    _add_common(sp)
    sp.add_argument("--n", type=int, required=True, help="horizon (up to 10^8)")
    sp.add_argument("--points", type=int, default=40, help="log-grid size (default 40)")

    return parser


def _params_from(args) -> ModelParams:
    return ModelParams(s=args.s, q=args.q, p=args.p)


def _config_dict(args, params: ModelParams) -> dict:
    cfg = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "s": params.s,
        "q": params.q,
        "p": params.p,
        "alpha": params.alpha,
        "regime": classify_regime(params).value,
        "seed": args.seed,
    }
    for key in ("n", "replicas", "r_order", "grid", "mechanism", "trajectory", "points", "replica"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


class _Emitter:
    """Collects rows plus summary values and writes CSV or JSON."""

    def __init__(self, config: dict):
        self.config = config
        self.columns: list[str] = []
        self.rows: list[tuple] = []
        self.results: dict = {}
        self.diagnostics: dict = {}

    def table(self, columns: Sequence[str], rows) -> None:
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]

    def summary_line(self) -> str:
        parts = [f"{k}={_fmt(v)}" for k, v in self.results.items()]
        return f"{self.config['command']}: " + " ".join(parts)

    def render_csv(self) -> str:
        lines = [f"# {k}={_fmt(v) if isinstance(v, (int, float, np.floating)) else v}"
                 for k, v in self.config.items()]
        for k, v in self.results.items():
            lines.append(f"# result {k}={_fmt(v)}")
        for k, v in self.diagnostics.items():
            lines.append(f"# diagnostic {k}={_fmt(v)}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(x) for x in row))
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": self.config["command"],
            "config": self.config,
            "results": self.results,
            "diagnostics": self.diagnostics,
            "table": {
                "columns": self.columns,
                "rows": [[_json_cell(x) for x in row] for row in self.rows],
            },
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _run_simulate(args, params, threads, emitter) -> None:
    if args.n < 1:
        raise ValueError("n must be at least 1")
    if args.trajectory:
        if args.replicas != 1:
            raise ValueError("--trajectory emits the path of replica 0 alone; it needs --replicas 1")
        rng = RngStreamSpec(args.seed, 0)
        if args.mechanism == "lookup":
            positions = simulate_urn(params, args.n, rng).blue
        else:
            positions = simulate_walk(params, args.n, rng).positions
        emitter.table(("k", "S_k"), ((k, int(positions[k])) for k in range(args.n + 1)))
        emitter.results["final_position"] = int(positions[-1])
        return
    if args.mechanism != "direct":
        raise ValueError(f"--mechanism {args.mechanism} needs --trajectory; final positions read the direct engine stream")
    specs = RngStreamSpec(args.seed).replicas(args.replicas)
    finals = walk_checkpoints_batch(params, [args.n], specs, threads=threads)[:, 0]
    emitter.table(("replica", "S_n"), ((i, int(v)) for i, v in enumerate(finals)))
    emitter.results["mean"] = float(finals.mean())
    if args.replicas > 1:
        emitter.results["variance"] = float(finals.var(ddof=1))
    emitter.diagnostics["exact_mean"] = float(exact_mean_checkpoints(params, [args.n])[0])


def _run_exact(args, params, threads, emitter) -> None:
    dist = exact_distribution(params, args.n)
    emitter.table(("j", "prob"), ((j, float(p)) for j, p in enumerate(dist.probs)))
    emitter.results["mean"] = dist.mean()
    emitter.results["variance"] = dist.variance()


def _run_asclt(args, params, threads, emitter) -> None:
    sample = asclt_measure(params, args.n, RngStreamSpec(args.seed, args.replica))
    if sample.target_variance > 0:
        emitter.results["ks_distance"] = weighted_ks_to_normal(sample)
    mean, var = weighted_mean_variance(sample)
    emitter.results["target_variance"] = sample.target_variance
    emitter.results["weighted_variance"] = var
    emitter.diagnostics["weighted_mean"] = mean
    emitter.diagnostics["mass_ratio"] = sample.mass_ratio()
    emitter.diagnostics["histogram_mode"] = int(sample.histogram)
    if sample.histogram:
        idx = np.arange(len(sample.points))
        emitter.table(
            ("bin", "point", "weight"),
            zip(idx, sample.points, sample.weights),
        )
    else:
        k = np.arange(limit_law(params).first_step, args.n + 1)
        emitter.table(("k", "point", "weight"), zip(k, sample.points, sample.weights))


def _run_qsl(args, params, threads, emitter) -> None:
    specs = RngStreamSpec(args.seed).replicas(args.replicas)
    values = qsl_functional_batch(params, args.n, args.r_order, specs, threads=threads)
    emitter.table(("replica", "value"), ((i, float(v)) for i, v in enumerate(values)))
    emitter.results["target"] = limit_law(params).moment(args.r_order)
    emitter.results["mean"] = float(values.mean())
    if args.replicas > 1:
        emitter.results["standard_error"] = float(values.std(ddof=1) / math.sqrt(args.replicas))


def _run_fclt(args, params, threads, emitter) -> None:
    grid = None
    if args.grid:
        grid = [float(x) for x in args.grid.split(",")]
    rng = RngStreamSpec(args.seed)
    if args.replicas >= 1000:
        est = covariance_grid(params, args.n, grid, args.replicas, rng, threads=threads)
        i, j = np.triu_indices(len(est.grid))
        cells = (est.grid[i], est.grid[j], est.empirical[i, j], est.theoretical[i, j], est.standard_errors[i, j])
        emitter.table(("s", "t", "empirical", "theoretical", "standard_error"), zip(*cells))
        err = np.abs(est.empirical - est.theoretical)
        if np.all(est.theoretical != 0):
            emitter.results["max_relative_error"] = float((err / np.abs(est.theoretical)).max())
        else:  # the kernel vanishes (p = 1), so only the absolute error is meaningful
            emitter.results["max_absolute_error"] = float(err.max())
    else:
        skel = fclt_skeletons_batch(params, args.n, grid, rng.replicas(args.replicas), threads=threads)
        rows = ((i, t, v) for i, values in enumerate(skel.values) for t, v in zip(skel.grid, values))
        emitter.table(("replica", "t", "value"), rows)
        emitter.results["replicas"] = args.replicas
    emitter.results["target_variance_t1"] = limit_law(params).variance


def _run_urn_compare(args, params, threads, emitter) -> None:
    walk = exact_distribution(params, args.n)
    urn = exact_urn_distribution(params, args.n)
    emitter.table(
        ("j", "walk_prob", "urn_prob"),
        ((j, float(a), float(b)) for j, (a, b) in enumerate(zip(walk.probs, urn.probs))),
    )
    emitter.results["tv_distance"] = total_variation(walk.probs, urn.probs)


def _run_superdiffusive(args, params, threads, emitter) -> None:
    n_list = [int(x) for x in str(args.n).split(",")]
    rng = RngStreamSpec(args.seed)
    estimates = superdiffusive_limit(params, n_list, args.replicas, rng, threads=threads)
    rows = [
        (e.n, e.mean, e.mean_se, e.variance, e.variance_se, e.cauchy_rms)
        for e in estimates
    ]
    emitter.table(("n", "mean", "mean_se", "variance", "variance_se", "cauchy_rms"), rows)
    last = estimates[-1]
    emitter.results["final_mean"] = last.mean
    emitter.results["exact_final_mean"] = last.exact_mean
    emitter.results["final_variance"] = last.variance


def _run_sequences(args, params, threads, emitter) -> None:
    if args.n < 2:
        raise ValueError("horizon must be at least 2")
    if args.n > 10**8:
        raise ValueError("horizon must be at most 10^8")
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    diag = sequence_asymptotics(params, args.n, args.points)
    table = {
        "n": diag.grid, "a_n": diag.a, "A_n": diag.A, "v_n": diag.v, "f_n": diag.f,
        "mean_ratio_dev": diag.mean_ratio_dev, **diag.columns,
    }
    for name, target in diag.targets.items():
        emitter.results[f"{name}_final"] = float(diag.columns[name][-1])
        emitter.results[f"{name}_target"] = target
    emitter.results["sigma2"] = sigma_squared(params)
    emitter.table(list(table), zip(*table.values()))


_RUNNERS = {
    "simulate": _run_simulate,
    "exact": _run_exact,
    "asclt": _run_asclt,
    "qsl": _run_qsl,
    "fclt": _run_fclt,
    "urn-compare": _run_urn_compare,
    "superdiffusive": _run_superdiffusive,
    "sequences": _run_sequences,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _params_from(args)
        if args.threads is not None and args.threads < 1:
            raise ValueError("--threads must be positive")
        if getattr(args, "replicas", 1) < 1:
            raise ValueError("--replicas must be at least 1")
        config = _config_dict(args, params)
        emitter = _Emitter(config)
        _RUNNERS[args.command](args, params, args.threads, emitter)
    except RegimeError as exc:
        print(f"regime mismatch: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ValueError, ArithmeticError, _KernelBuildError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("configuration error: the run does not fit in memory; lower --replicas or --n", file=sys.stderr)
        return EXIT_CONFIG
    text = emitter.render_json() if args.out == "json" else emitter.render_csv()
    try:
        if args.out_path == "-":
            sys.stdout.write(text)
        else:
            with open(args.out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(emitter.summary_line(), file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
