"""The four benchmark workloads: inputs, one pass, checks and layer timings.

Each workload is a closed loop with one caller: every call starts when the
previous one returns. Calls go through mrwlab's public API only, so the
benchmark keeps running unchanged while the engine behind that API is
rewritten. Every call that takes `threads` gets THREADS.

A pass is the timed unit. Its checks run outside the timed region and
compare the outputs with exact oracles. `layers` runs only in the traced
mode: it repeats some calls on the same inputs (the engine alone, the
engine at one thread, the library call behind a CLI subcommand) and turns
the differences between span totals into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

import mrwlab.cli
from mrwlab import (
    ModelParams,
    Regime,
    RngStreamSpec,
    asclt_measure_critical,
    asclt_measure_diffusive,
    classify_regime,
    covariance_grid,
    exact_covariance_S,
    exact_distribution,
    exact_mean_recursion,
    exact_urn_distribution,
    fclt_skeletons_batch,
    moment_recursion,
    qsl_functional,
    qsl_functional_batch,
    sequence_checkpoints,
    simulate_urn,
    simulate_walk,
    skeleton_steps,
    superdiffusive_limit,
    theoretical_covariance_critical,
    theoretical_covariance_diffusive,
    total_variation,
    walk_checkpoints_batch,
    walk_position_chunks,
    walk_positions_batch,
    weighted_ks_to_normal,
    weighted_mean_variance,
)

THREADS = 2

D = ModelParams(0.5, 0.5, 0.5)  # diffusive
C = ModelParams(0.5, 0.25, 0.75)  # critical
U = ModelParams(0.5, 0.1, 0.9)  # superdiffusive

# The skeleton grids covariance_grid uses when called with grid=None.
GRID = {"D": (0.25, 0.5, 0.75, 1.0), "C": (0.5, 0.75, 1.0)}

QSL_R = 2
MOMENT_ORDER = 4
SEQ_POINTS = 40
# Crosses the 16384-step chunk boundary of the single-path engine.
PREFIX_N = 20_000

SIZES = {
    "full": {
        "fanout_replicas": 131_072,
        "fanout_n": 50,
        "cov_n": 1024,
        "cov_replicas": 32_768,
        "sup_ns": (256, 1024),
        "sup_replicas": 8192,
        "qsl_n": 8192,
        "qsl_replicas": 1024,
        "path_n": 150_000,
        "exact_n": 10_000,
        "urn_n": 2000,
        "seq_n": 10**8,
        "asclt_n": 30_000,
        "mom_n": 100_000,
    },
    # Every workload, check and the trace writer in a few seconds. The
    # fanout still spans two replica blocks of 16384.
    "smoke": {
        "fanout_replicas": 16_400,
        "fanout_n": 20,
        "cov_n": 64,
        "cov_replicas": 2048,
        "sup_ns": (16, 64),
        "sup_replicas": 512,
        "qsl_n": 256,
        "qsl_replicas": 64,
        "path_n": 3000,
        "exact_n": 200,
        "urn_n": 100,
        "seq_n": 10**5,
        "asclt_n": 1000,
        "mom_n": 1000,
    },
}

# Each statistical check may raise a false alarm with probability at most
# DELTA. No workload makes more than 100 of them in a run (passes repeat
# bit-identical outputs, so they add none), which keeps a run's false-alarm
# probability at or below 1e-6.
DELTA = 1e-8

# Bytes read plus bytes written per replica-step by the numpy operations of
# the batch step kernel (scale, add, compare, accumulate on float64 S with
# float32 uniforms). Storing each position adds a read of S and an int32 or
# float64 write. A model of the arrays touched, not a measurement.
KERNEL_BYTES = 62
STORE_INT32_BYTES = 12
STORE_FLOAT64_BYTES = 16


class Context:
    """Inputs and cached oracle values of one run of one workload."""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.scale = scale
        self.size = SIZES[scale]
        self.workdir = workdir
        self.inputs: dict = {}
        self._oracles: dict = {}

    def specs(self, count: int) -> list[RngStreamSpec]:
        """Replica i of a call uses RngStreamSpec(seed, i)."""
        key = ("specs", count)
        if key not in self.inputs:
            self.inputs[key] = [RngStreamSpec(self.seed, i) for i in range(count)]
        return self.inputs[key]

    def oracle(self, tr, led, name: str, fn, *args):
        """An exact reference value for a check, computed once per run inside
        a span named "check.<name>"."""
        key = (name, args)
        if key not in self._oracles:
            self._oracles[key] = led.call(tr, f"check.{name}", fn, *args)
        return self._oracles[key]


# --- statistical bounds ----------------------------------------------------


def dkw_epsilon(samples: int, delta: float = DELTA) -> float:
    """Dvoretzky-Kiefer-Wolfowitz (Massart) band half-width for an empirical CDF."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * samples))


def empirical_bernstein_radius(
    sample_var: float, samples: int, value_range: float, delta: float = DELTA
) -> float:
    """Two-sided empirical Bernstein radius for the mean of bounded i.i.d. samples.

    Maurer and Pontil (2009), Theorem 4, applied to each side at delta/2;
    sample_var is the unbiased sample variance. Distribution-free given the
    range.
    """
    log_term = math.log(4.0 / delta)
    return (
        math.sqrt(2.0 * sample_var * log_term / samples)
        + 7.0 * value_range * log_term / (3.0 * (samples - 1))
    )


def t_threshold(dof: int, delta: float = DELTA) -> float:
    """Two-sided Student-t quantile; assumes near-normal batch estimates."""
    return float(stats.t.isf(delta / 2.0, dof))


def z_threshold(delta: float = DELTA) -> float:
    """Two-sided normal quantile; assumes the central limit theorem holds."""
    return float(stats.norm.isf(delta / 2.0))


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# --- layer timing helpers --------------------------------------------------


def engine_chunk(width: int, steps_left: int) -> int:
    """Chunk length the batch engine used at the time of writing for a block
    of `width` replicas. Fixed here, so the fill is timed at one shape on
    every commit, whatever the engine does later."""
    return min(max(1024, min(16384, (32 << 20) // width)), steps_left)


def time_stream_setup(tr, specs, keep: int = 0):
    """Seconds to build one Generator per spec; returns the first `keep`."""
    kept = []
    with tr.span("core_process.RngStreamSpec.generator") as sp:
        for i, spec in enumerate(specs):
            gen = spec.generator()
            if i < keep:
                kept.append(gen)
    return sp.duration, kept


def time_fill(tr, gens, steps: int, chunk: int):
    """Seconds and floats to draw each stream's first uniform and then
    `steps - 1` more in chunks of `chunk`, as the engines draw them."""
    buf = np.empty((len(gens), min(chunk, max(steps - 1, 1))), dtype=np.float32)
    with tr.span("numpy.Generator.random") as sp:
        for g in gens:
            g.random(dtype=np.float32)
        m = 1
        while m < steps:
            c = min(chunk, steps - m)
            for i, g in enumerate(gens):
                buf[i, :c] = g.random(c, dtype=np.float32)
            m += c
    return sp.duration, len(gens) * steps


def timed(tr, led, name: str, fn, *args, **kwargs) -> float:
    """Seconds of one public call, made inside a span of its own."""
    with tr.span(f"extra.{name}") as sp:
        led.call(tr, name, fn, *args, **kwargs)
    return sp.duration


def _drain(params, n, spec) -> int:
    count = 0
    for _, values in walk_position_chunks(params, n, spec):
        count += len(values)
    return count


def digest(parts: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(parts):
        value = parts[key]
        h.update(key.encode())
        if isinstance(value, bytes):
            h.update(value)
        else:
            arr = np.ascontiguousarray(value)
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def _batch_engine_metrics(calls, setup_per_replica, fill_per_float) -> dict:
    """Engine metrics from (replicas, replica_steps, t_threads2, t_threads1) calls.

    The step kernel is the one-thread engine time minus stream set-up and
    uniform fill at their separately measured rates: computed, not timed.
    """
    steps = sum(c[1] for c in calls)
    t2 = sum(c[2] for c in calls)
    t1 = sum(c[3] for c in calls)
    setup = setup_per_replica * sum(c[0] for c in calls)
    fill = fill_per_float * steps
    return {
        "core_process.batch_engine_ns_per_replica_step": t2 / steps * 1e9,
        "core_process.step_kernel_ns_per_replica_step": (t1 - setup - fill) / steps * 1e9,
        "core_process.parallel_efficiency": t1 / (THREADS * t2),
    }


# --- workloads -------------------------------------------------------------


# The interpreter-bound workloads are runnable but not gated: on a shared
# 2-vCPU KVM guest (Xeon, Python 3.11) the speed of Python-level loops
# drifted by a third over tens of seconds, so the median wall time of a run
# spread by 15-31% of its median across seeds (IQR, five seeds per set),
# beyond the largest bound a gated metric may have (25%). Their layers are
# still measured, at full size, in the traced runs of the gated workloads.
_DRIFT = (
    "run-to-run spread of wall_s was 15-31% of the median on a shared 2-vCPU VM, "
    "above the 25% bound; its layers are measured in the gated workloads' traced runs"
)


class Workload:
    """One benchmark workload. Subclasses define run_pass, digest_parts,
    check, layers and counts; the hooks below default to doing nothing."""

    name = ""
    why = ""
    # Why the workload is left out of BENCHMARK.json; empty when it is gated.
    ungated = ""

    def prepare(self, ctx):
        """Build the inputs, outside any timed region."""

    def collect(self, ctx, out):
        """Gather outputs the pass left outside `out`, after the timed region."""

    def check_once(self, ctx, tr, led):
        """Checks that need one run, not one pass."""


class ReplicaFanout(Workload):
    name = "replica_fanout"
    why = (
        "131072 replicas of 50 steps: Philox stream set-up dominates and the step "
        "kernel is bypassed, so a kernel or layout change must not move it"
    )

    def prepare(self, ctx):
        ctx.specs(ctx.size["fanout_replicas"])

    def run_pass(self, ctx, tr, led):
        s = ctx.size
        specs = ctx.specs(s["fanout_replicas"])
        S = led.call(
            tr, "core_process.walk_checkpoints_batch", walk_checkpoints_batch,
            C, [s["fanout_n"]], specs, threads=THREADS,
        )
        return {"S_n": S}

    def digest_parts(self, out):
        return {"S_n": out["S_n"]}

    def check(self, ctx, out, tr, led):
        n, R = ctx.size["fanout_n"], ctx.size["fanout_replicas"]
        exact = ctx.oracle(tr, led, "exact_oracle.exact_distribution", exact_distribution, C, n)

        def support():
            S = out["S_n"]
            ok = S.shape == (R, 1) and np.all(S == np.round(S)) and S.min() >= 0 and S.max() <= n
            return bool(ok), f"shape {S.shape}, range [{S.min()}, {S.max()}]"

        def dkw():
            counts = np.bincount(out["S_n"][:, 0].astype(np.int64), minlength=n + 1)
            gap = float(np.max(np.abs(np.cumsum(counts) / R - exact.cdf())))
            eps = dkw_epsilon(R)
            return gap <= eps, f"sup |F_emp - F_exact| = {gap:.3g} > DKW {eps:.3g}"

        led.check("fanout S_n support", support)
        led.check("fanout DKW band vs exact law of S_n", dkw)

    def layers(self, ctx, out, pass_span, tr, led):
        s = ctx.size
        n, R = s["fanout_n"], s["fanout_replicas"]
        specs = ctx.specs(R)
        width = min(16384, R)
        t_setup, gens = time_stream_setup(tr, specs, keep=width)
        t_fill, floats = time_fill(tr, gens, n, engine_chunk(width, n - 1))
        del gens
        with tr.span("baseline.threads=1") as base:
            led.call(
                tr, "core_process.walk_checkpoints_batch", walk_checkpoints_batch,
                C, [n], specs, threads=1,
            )
        t2 = pass_span.total("core_process.walk_checkpoints_batch")
        t1 = base.total("core_process.walk_checkpoints_batch")
        metrics = {
            "core_process.stream_setup_us_per_replica": t_setup / R * 1e6,
            "core_process.uniform_fill_ns_per_float": t_fill / floats * 1e9,
        }
        metrics.update(_batch_engine_metrics([(R, R * n, t2, t1)], t_setup / R, t_fill / floats))
        return metrics

    def counts(self, ctx, out):
        n, R = ctx.size["fanout_n"], ctx.size["fanout_replicas"]
        return {
            "streams_created": R,
            "replica_steps": R * n,
            "uniforms_drawn_float32": R * n,
            "kernel_buffer_bytes_computed": R * (n - 1) * KERNEL_BYTES,
        }


class ReplicaBatch(Workload):
    name = "replica_batch"
    why = (
        "about 9e7 replica-steps at n >= 1024: the step kernel, uniform fill and "
        "buffer layout dominate, with threads over two replica blocks"
    )

    def prepare(self, ctx):
        for key in ("cov_replicas", "sup_replicas", "qsl_replicas"):
            ctx.specs(ctx.size[key])

    def run_pass(self, ctx, tr, led):
        s = ctx.size
        out = {}
        for tag, params in (("D", D), ("C", C)):
            out[f"cov_{tag}"] = led.call(
                tr, f"limit_harness.covariance_grid[{tag}]", covariance_grid,
                params, s["cov_n"], None, s["cov_replicas"], RngStreamSpec(ctx.seed),
                threads=THREADS,
            )
        out["sup"] = led.call(
            tr, "limit_harness.superdiffusive_limit", superdiffusive_limit,
            U, list(s["sup_ns"]), s["sup_replicas"], RngStreamSpec(ctx.seed), threads=THREADS,
        )
        out["qsl"] = led.call(
            tr, "limit_harness.qsl_functional_batch", qsl_functional_batch,
            D, s["qsl_n"], QSL_R, ctx.specs(s["qsl_replicas"]), threads=THREADS,
        )
        return out

    def digest_parts(self, out):
        parts = {"qsl": out["qsl"]}
        for tag in ("D", "C"):
            est = out[f"cov_{tag}"]
            parts[f"cov_{tag}.empirical"] = est.empirical
            parts[f"cov_{tag}.theoretical"] = est.theoretical
            parts[f"cov_{tag}.standard_errors"] = est.standard_errors
        parts["sup"] = np.array(
            [[e.n, e.mean, e.mean_se, e.variance, e.variance_se, e.cauchy_rms] for e in out["sup"]]
        )
        return parts

    def _exact_covariance(self, ctx, tr, led, tag, params):
        """Exact finite-n covariance of the skeleton values covariance_grid returns."""
        n = ctx.size["cov_n"]
        regime = classify_regime(params)
        steps = skeleton_steps(n, GRID[tag], regime)
        if regime is Regime.CRITICAL:
            scale = np.sqrt(steps / math.log(n))
        else:
            scale = np.full(len(steps), math.sqrt(n))
        G = len(steps)
        exact = np.empty((G, G))
        for i in range(G):
            for j in range(i, G):
                cov_s = ctx.oracle(
                    tr, led, "exact_oracle.exact_covariance_S", exact_covariance_S,
                    params, int(steps[i]), int(steps[j]),
                )
                exact[i, j] = exact[j, i] = scale[i] * scale[j] * cov_s / (steps[i] * steps[j])
        return exact

    def _qsl_expectation(self, ctx, tr, led):
        """E of the diffusive QSL functional, from raw moments of S_k up to 2r."""
        n = ctx.size["qsl_n"]
        mom = ctx.oracle(tr, led, "exact_oracle.moment_recursion", moment_recursion, D, n, 2 * QSL_R)
        k = np.arange(1, n + 1, dtype=np.float64)
        center = D.q / (1.0 - D.alpha)
        central = sum(
            math.comb(2 * QSL_R, j) * mom[j, 1:] * (-center * k) ** (2 * QSL_R - j)
            for j in range(2 * QSL_R + 1)
        )
        return float(np.sum(k ** (QSL_R - 1) * central / k ** (2 * QSL_R))) / math.log(n)

    def check(self, ctx, out, tr, led):
        s = ctx.size
        for tag, params in (("D", D), ("C", C)):
            exact = self._exact_covariance(ctx, tr, led, tag, params)

            def cov_cells(tag=tag, exact=exact):
                est = out[f"cov_{tag}"]
                if not np.allclose(est.grid, GRID[tag], rtol=0, atol=0):
                    return False, f"grid {est.grid} is not {GRID[tag]}"
                z = np.abs(est.empirical - exact) / est.standard_errors
                # covariance_grid's standard errors come from 20 batch means.
                limit = t_threshold(19)
                return bool(np.all(z <= limit)), f"max |emp - exact| = {z.max():.2f} SE > {limit:.2f}"

            led.check(f"covariance_grid[{tag}] vs exact_covariance_S", cov_cells)

        exact_means = ctx.oracle(
            tr, led, "exact_oracle.exact_mean_recursion", exact_mean_recursion, U, 2 * max(s["sup_ns"])
        )

        def sup_means():
            center = U.q / (1.0 - U.alpha)
            details = []
            ok = len(out["sup"]) == len(s["sup_ns"])
            for est, n in zip(out["sup"], s["sup_ns"]):
                target = n ** (1.0 - U.alpha) * (exact_means[n] / n - center)
                # mean_se is sqrt(sample variance / replicas); the statistic
                # spans n^(1-alpha) because S_n/n lies in [0, 1].
                R = s["sup_replicas"]
                radius = empirical_bernstein_radius(est.mean_se**2 * R, R, n ** (1.0 - U.alpha))
                ok &= est.n == n and abs(est.mean - target) <= radius
                details.append(f"n={est.n}: |{est.mean:.5g} - {target:.5g}| vs {radius:.3g}")
            return bool(ok), "; ".join(details)

        led.check("superdiffusive_limit mean vs exact_mean_recursion", sup_means)

        target = self._qsl_expectation(ctx, tr, led)

        def qsl_mean():
            values = out["qsl"]
            se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
            z = abs(float(np.mean(values)) - target) / se
            return z <= z_threshold(), f"|mean - {target:.6g}| = {z:.2f} SE > {z_threshold():.2f}"

        led.check("qsl_functional_batch mean vs moment_recursion", qsl_mean)

    def layers(self, ctx, out, pass_span, tr, led):
        s = ctx.size
        R_cov, n_cov = s["cov_replicas"], s["cov_n"]
        R_sup, n_sup = s["sup_replicas"], 2 * max(s["sup_ns"])
        R_qsl, n_qsl = s["qsl_replicas"], s["qsl_n"]
        cov_specs, qsl_specs = ctx.specs(R_cov), ctx.specs(R_qsl)
        sup_specs = ctx.specs(R_sup)

        width = min(16384, R_cov)
        t_setup, gens = time_stream_setup(tr, cov_specs, keep=width)
        fill_t = fill_floats = 0.0
        # (replicas in the call, block width, steps per replica) per engine call.
        shapes = [(R_cov, width, n_cov)] * 2 + [
            (R_sup, min(16384, R_sup), n_sup),
            (R_qsl, min(16384, R_qsl), n_qsl),
        ]
        for R, w, n in shapes:
            t, floats = time_fill(tr, gens[:w], n, engine_chunk(w, n - 1))
            fill_t += t * R / w
            fill_floats += floats * R / w
        del gens

        def engine(fn, args, R, n):
            """(replicas, replica-steps, seconds at THREADS, seconds at one thread)."""
            name = f"core_process.{fn.__name__}"
            t2 = timed(tr, led, name, fn, *args, threads=THREADS)
            with tr.span("baseline.threads=1"):
                t1 = timed(tr, led, name, fn, *args, threads=1)
            return R, R * n, t2, t1

        # Each harness is timed right before the engine call it wraps, on the
        # same inputs, so the difference sees one machine state.
        calls = []
        reduce_cov = 0.0
        for tag, params in (("D", D), ("C", C)):
            reduce_cov += timed(
                tr, led, "limit_harness.covariance_grid", covariance_grid,
                params, n_cov, None, R_cov, RngStreamSpec(ctx.seed), threads=THREADS,
            ) - timed(
                tr, led, "limit_harness.fclt_skeletons_batch", fclt_skeletons_batch,
                params, n_cov, None, cov_specs, threads=THREADS,
            )
            steps = skeleton_steps(n_cov, GRID[tag], classify_regime(params))
            calls.append(engine(walk_checkpoints_batch, (params, steps, cov_specs), R_cov, n_cov))
        t_sup = timed(
            tr, led, "limit_harness.superdiffusive_limit", superdiffusive_limit,
            U, list(s["sup_ns"]), R_sup, RngStreamSpec(ctx.seed), threads=THREADS,
        )
        sup_cps = sorted(set(s["sup_ns"]) | {2 * x for x in s["sup_ns"]})
        calls.append(engine(walk_checkpoints_batch, (U, sup_cps, sup_specs), R_sup, n_sup))
        t_qsl = timed(
            tr, led, "limit_harness.qsl_functional_batch", qsl_functional_batch,
            D, n_qsl, QSL_R, qsl_specs, threads=THREADS,
        )
        calls.append(engine(walk_positions_batch, (D, n_qsl, qsl_specs), R_qsl, n_qsl))

        metrics = {
            "core_process.stream_setup_us_per_replica": t_setup / R_cov * 1e6,
            "core_process.uniform_fill_ns_per_float": fill_t / fill_floats * 1e9,
            "limit_harness.covariance_reduce_s": reduce_cov,
            "limit_harness.superdiffusive_reduce_s": t_sup - calls[2][2],
            "limit_harness.qsl_reduce_ns_per_replica_step": (t_qsl - calls[3][2]) / (R_qsl * n_qsl) * 1e9,
            "urn_spectral.kernel_us_per_call": self._kernel_us_per_call(tr),
        }
        metrics.update(_batch_engine_metrics(calls, t_setup / R_cov, fill_t / fill_floats))
        return metrics

    def _kernel_us_per_call(self, tr, repeats: int = 200) -> float:
        cells = [
            (kernel, params, min(a, b), max(a, b))
            for kernel, params, grid in (
                (theoretical_covariance_diffusive, D, GRID["D"]),
                (theoretical_covariance_critical, C, GRID["C"]),
            )
            for a in grid
            for b in grid
        ]
        with tr.span("urn_spectral.theoretical_covariance") as sp:
            for _ in range(repeats):
                for kernel, params, lo, hi in cells:
                    kernel(params, lo, hi)
        return sp.duration / (repeats * len(cells)) * 1e6

    def counts(self, ctx, out):
        s = ctx.size
        calls = [  # (replicas, steps per replica, bytes stored per step)
            (s["cov_replicas"], s["cov_n"], 0),
            (s["cov_replicas"], s["cov_n"], 0),
            (s["sup_replicas"], 2 * max(s["sup_ns"]), 0),
            (s["qsl_replicas"], s["qsl_n"], STORE_INT32_BYTES),
        ]
        return {
            "streams_created": sum(R for R, _, _ in calls),
            "replica_steps": sum(R * n for R, n, _ in calls),
            "uniforms_drawn_float32": sum(R * n for R, n, _ in calls),
            "kernel_buffer_bytes_computed": sum(
                R * (n - 1) * (KERNEL_BYTES + b) for R, n, b in calls
            ),
        }


class SinglePath(Workload):
    name = "single_path"
    why = (
        "one stream per call at n = 150000: the per-step loop of walk_position_chunks "
        "and the scalar loops dominate; stream set-up and threads are bypassed"
    )
    ungated = _DRIFT

    def run_pass(self, ctx, tr, led):
        n = ctx.size["path_n"]
        spec = RngStreamSpec(ctx.seed, 0)
        out = {
            "asclt_D": led.call(
                tr, "limit_harness.asclt_measure_diffusive", asclt_measure_diffusive, D, n, spec
            ),
            "asclt_C": led.call(
                tr, "limit_harness.asclt_measure_critical", asclt_measure_critical, C, n, spec
            ),
            "qsl_C": led.call(tr, "limit_harness.qsl_functional", qsl_functional, C, n, 1, spec),
            "walk_D": led.call(tr, "core_process.simulate_walk", simulate_walk, D, n, spec),
            "urn_C": led.call(tr, "core_process.simulate_urn", simulate_urn, C, n, spec),
        }
        for tag in ("D", "C"):
            out[f"ks_{tag}"] = led.call(
                tr, "limit_harness.weighted_ks_to_normal", weighted_ks_to_normal, out[f"asclt_{tag}"]
            )
        return out

    def digest_parts(self, out):
        parts = {
            "qsl_C": np.float64(out["qsl_C"].value),
            "walk_D.steps": out["walk_D"].steps,
            "walk_D.positions": out["walk_D"].positions,
            "urn_C.red": out["urn_C"].red,
            "urn_C.blue": out["urn_C"].blue,
            "ks": np.array([out["ks_D"], out["ks_C"]]),
        }
        for tag in ("D", "C"):
            parts[f"asclt_{tag}.points"] = out[f"asclt_{tag}"].points
            parts[f"asclt_{tag}.weights"] = out[f"asclt_{tag}"].weights
        return parts

    def check(self, ctx, out, tr, led):
        n = ctx.size["path_n"]

        def validated(path):
            def run():
                path.validate()
                return path.n == n, f"path length {path.n} != {n}"
            return run

        led.check("WalkPath.validate", validated(out["walk_D"]))
        led.check("UrnPath.validate", validated(out["urn_C"]))
        if "asclt_masses" not in ctx.inputs:
            ctx.inputs["asclt_masses"] = {
                "D": (n, math.fsum(1.0 / k for k in range(1, n + 1))),
                "C": (n - 1, math.fsum(1.0 / (k * math.log(k)) for k in range(2, n + 1))),
            }
        masses = ctx.inputs["asclt_masses"]
        for tag, (points, mass) in masses.items():
            def weight_mass(tag=tag, points=points, mass=mass):
                sample = out[f"asclt_{tag}"]
                got = float(sample.weights.sum())
                ok = len(sample.weights) == points and rel_err(got, mass) <= 1e-12
                return ok, f"{len(sample.weights)} weights of mass {got!r}, expected {points} of {mass!r}"

            led.check(f"asclt[{tag}] weight mass", weight_mass)

        def ks_range():
            ks = [out["ks_D"], out["ks_C"]]
            return all(0.0 <= v <= 1.0 for v in ks), f"KS distances {ks}"

        def qsl_value():
            v = out["qsl_C"].value
            return math.isfinite(v) and v > 0, f"qsl_functional value {v}"

        led.check("weighted_ks_to_normal in [0, 1]", ks_range)
        led.check("qsl_functional finite and positive", qsl_value)

    def check_once(self, ctx, tr, led):
        """The single-path stream must be the batch engine's row, bit for bit."""
        spec = RngStreamSpec(ctx.seed, 0)
        row = led.call(tr, "core_process.walk_positions_batch", walk_positions_batch, C, PREFIX_N, [spec])

        def prefix():
            got = np.concatenate([v for _, v in walk_position_chunks(C, PREFIX_N, spec)])
            same = np.array_equal(got, row[0, 1:].astype(np.float64))
            return same, f"walk_position_chunks differs from walk_positions_batch in the first {PREFIX_N} steps"

        led.check("walk_position_chunks prefix == walk_positions_batch row", prefix)

    def layers(self, ctx, out, pass_span, tr, led):
        n = ctx.size["path_n"]
        spec = RngStreamSpec(ctx.seed, 0)
        # Each path functional is timed right before draining the chunk
        # engine on the same stream, so the difference sees one machine state.
        t_asclt_d = timed(
            tr, led, "limit_harness.asclt_measure_diffusive", asclt_measure_diffusive, D, n, spec
        )
        drain_d = timed(tr, led, "core_process.walk_position_chunks", _drain, D, n, spec)
        t_asclt_c = timed(
            tr, led, "limit_harness.asclt_measure_critical", asclt_measure_critical, C, n, spec
        )
        drain_c = timed(tr, led, "core_process.walk_position_chunks", _drain, C, n, spec)
        t_qsl = timed(tr, led, "limit_harness.qsl_functional", qsl_functional, C, n, 1, spec)
        t_setup, gens = time_stream_setup(tr, [spec] * 5, keep=1)
        t_fill, floats = time_fill(tr, gens, n, 16384)
        return {
            "core_process.stream_setup_us_per_replica": t_setup / 5 * 1e6,
            "core_process.uniform_fill_ns_per_float": t_fill / floats * 1e9,
            "core_process.chunk_engine_us_per_step": (drain_d + drain_c) / (2 * n) * 1e6,
            "core_process.scalar_walk_us_per_step": pass_span.total("core_process.simulate_walk") / n * 1e6,
            "core_process.scalar_urn_us_per_step": pass_span.total("core_process.simulate_urn") / n * 1e6,
            "limit_harness.asclt_reduce_us_per_step": (
                t_asclt_d - drain_d + t_asclt_c - drain_c
            ) / (2 * n) * 1e6,
            "limit_harness.qsl_path_reduce_us_per_step": (t_qsl - drain_c) / n * 1e6,
            "limit_harness.ks_s": pass_span.total("limit_harness.weighted_ks_to_normal"),
        }

    def counts(self, ctx, out):
        n = ctx.size["path_n"]
        return {
            "streams_created": 5,
            "replica_steps": 5 * n,
            "uniforms_drawn_float32": 3 * n,
            "uniforms_drawn_float64": n + (2 * n - 1),
            "kernel_buffer_bytes_computed": 3 * (n - 1) * (KERNEL_BYTES + STORE_FLOAT64_BYTES),
        }


def _log_grid(horizon: int, points: int) -> list[int]:
    """The `mrwlab sequences` checkpoint grid."""
    grid = np.unique(np.round(np.logspace(0.0, math.log10(horizon), num=points)).astype(np.int64))
    return [int(g) for g in grid if g >= 2]


def _reparses(cell: str) -> bool:
    """A CSV cell is the 17-digit text of the double (or the integer) it parses to."""
    try:
        if format(float(cell), ".17g") == cell:
            return True
        return str(int(cell)) == cell
    except ValueError:
        return False


def _parse_csv(text: str):
    """Split `mrwlab` CSV text into its '# result' values, header and rows."""
    results, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# result "):
            key, value = line[len("# result "):].split("=", 1)
            results[key] = value
        elif line.startswith("#"):
            continue
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return results, header, rows


def _dp_states(n: int) -> int:
    """(step, count) states the forward DP visits for the law of S_n."""
    return (n - 1) * (n + 2) // 2


class CliExact(Workload):
    name = "cli_exact"
    why = (
        "the exact oracles, the sequence stream and the 17-digit CSV/JSON writer, "
        "called through mrwlab.cli.main; draws almost no random numbers"
    )
    ungated = _DRIFT

    def _argv(self, ctx):
        s = ctx.size
        common = ["--seed", str(ctx.seed), "--threads", str(THREADS)]
        crit = ["--q", "0.25", "--p", "0.75"]
        return {
            "exact": ["exact", "--n", str(s["exact_n"]), *crit, *common],
            "urn-compare": ["urn-compare", "--n", str(s["urn_n"]), *crit, *common],
            "sequences": ["sequences", "--n", str(s["seq_n"]), "--points", str(SEQ_POINTS), *common],
            "asclt": ["asclt", "--n", str(s["asclt_n"]), "--out", "json", *common],
        }

    def _path(self, ctx, sub):
        return ctx.workdir / f"{sub}.out"

    def prepare(self, ctx):
        ctx.workdir.mkdir(parents=True, exist_ok=True)

    def _cli(self, ctx, tr, led, sub, argv):
        name = f"cli.main[{sub}]"
        with contextlib.redirect_stderr(io.StringIO()):
            code = led.call(tr, name, mrwlab.cli.main, [*argv, "--out-path", str(self._path(ctx, sub))])
        if code is not None:
            led.exit_code(name, code)

    def run_pass(self, ctx, tr, led):
        for sub, argv in self._argv(ctx).items():
            self._cli(ctx, tr, led, sub, argv)
        mom = led.call(
            tr, "exact_oracle.moment_recursion", moment_recursion, C, ctx.size["mom_n"], MOMENT_ORDER
        )
        return {"moments": mom}

    def collect(self, ctx, out):
        """Read the CLI's files back and remove them, so no pass sees stale output."""
        out["files"] = {}
        for sub in self._argv(ctx):
            path = self._path(ctx, sub)
            if path.exists():
                out["files"][sub] = path.read_bytes()
                path.unlink()

    def digest_parts(self, out):
        return {"moments": out["moments"], **{f"cli.{k}": v for k, v in out["files"].items()}}

    def check(self, ctx, out, tr, led):
        s = ctx.size
        files = out["files"]
        text = {k: v.decode("utf-8") for k, v in files.items()}
        csv = {sub: _parse_csv(text[sub]) for sub in ("exact", "urn-compare", "sequences") if sub in text}

        for sub in ("exact", "urn-compare", "sequences"):
            def reparse(sub=sub):
                results, _, rows = csv[sub]
                cells = [c for row in rows for c in row] + list(results.values())
                bad = [c for c in cells if not _reparses(c)]
                return not bad, f"{len(bad)} of {len(cells)} cells do not re-parse, e.g. {bad[:3]}"

            led.check(f"cli {sub} CSV floats re-parse bit-exactly", reparse)

        n = s["exact_n"]
        mom2 = ctx.oracle(tr, led, "exact_oracle.moment_recursion", moment_recursion, C, n, 2)

        def exact_law():
            results, header, rows = csv["exact"]
            variance = float(results["variance"])
            mean = float(results["mean"])
            target_var = float(mom2[2, n] - mom2[1, n] ** 2)
            mass = math.fsum(float(r[1]) for r in rows)
            ok = (
                header == ["j", "prob"]
                and len(rows) == n + 1
                and abs(mass - 1.0) <= 1e-12
                and rel_err(variance, target_var) <= 1e-10
                and rel_err(mean, float(mom2[1, n])) <= 1e-10
            )
            return ok, f"rows {len(rows)}, mass {mass!r}, variance {variance!r} vs {target_var!r}, mean {mean!r}"

        def urn_tv():
            tv = float(csv["urn-compare"][0]["tv_distance"])
            return tv <= 1e-12, f"urn-compare TV {tv!r} > 1e-12"

        def sequences():
            # At alpha = 0 every weight a_k is 1, so A_n = v_n = n exactly.
            _, header, rows = csv["sequences"]
            col = {name: i for i, name in enumerate(header)}
            ns = [int(r[col["n"]]) for r in rows]
            ok = ns == _log_grid(s["seq_n"], SEQ_POINTS) and all(
                float(r[col["a_n"]]) == 1.0
                and float(r[col["A_n"]]) == float(r[col["n"]])
                and float(r[col["v_n"]]) == float(r[col["n"]])
                for r in rows
            )
            return ok, "sequences at alpha = 0 must read a_n = 1 and A_n = v_n = n"

        if "asclt_mass" not in ctx.inputs:
            ctx.inputs["asclt_mass"] = math.fsum(1.0 / k for k in range(1, s["asclt_n"] + 1))
        mass_k = ctx.inputs["asclt_mass"]

        def asclt_json():
            doc = json.loads(text["asclt"])
            rows = doc["table"]["rows"]
            ks = doc["results"]["ks_distance"]
            mass = math.fsum(r[2] for r in rows)
            ok = (
                len(rows) == s["asclt_n"]
                and 0.0 <= ks <= 1.0
                and rel_err(mass, mass_k) <= 1e-12
            )
            return ok, f"{len(rows)} rows, ks {ks}, weight mass {mass!r} vs {mass_k!r}"

        exact_means = ctx.oracle(
            tr, led, "exact_oracle.exact_mean_recursion", exact_mean_recursion, C, s["mom_n"]
        )

        def moments():
            mom = out["moments"]
            err = float(np.max(np.abs(mom[1, 1:] - exact_means[1:]) / exact_means[1:]))
            ok = mom.shape == (MOMENT_ORDER + 1, s["mom_n"] + 1) and np.all(mom[0] == 1.0) and err <= 1e-10
            return bool(ok), f"moment_recursion mean off exact_mean_recursion by {err:.3g} relative"

        led.check("cli exact: DP law vs moment_recursion", exact_law)
        led.check("cli urn-compare TV", urn_tv)
        led.check("cli sequences closed form at alpha = 0", sequences)
        led.check("cli asclt JSON", asclt_json)
        led.check("moment_recursion mean vs exact_mean_recursion", moments)

    def layers(self, ctx, out, pass_span, tr, led):
        s = ctx.size
        spec = RngStreamSpec(ctx.seed, 0)

        def asclt_lib():
            sample = asclt_measure_diffusive(D, s["asclt_n"], spec)
            weighted_ks_to_normal(sample)
            weighted_mean_variance(sample)

        def urn_lib():
            walk = exact_distribution(C, s["urn_n"])
            urn = exact_urn_distribution(C, s["urn_n"])
            total_variation(walk.probs, urn.probs)

        library = {
            "exact": (exact_distribution, (C, s["exact_n"])),
            "urn-compare": (urn_lib, ()),
            "sequences": (sequence_checkpoints, (D, _log_grid(s["seq_n"], SEQ_POINTS))),
            "asclt": (asclt_lib, ()),
        }
        # Each subcommand is timed right before the library calls behind it,
        # so the difference sees one machine state.
        metrics = {}
        lib_t = {}
        argv = self._argv(ctx)
        for sub, (fn, args) in library.items():
            with tr.span(f"extra.cli.main[{sub}]") as sp:
                self._cli(ctx, tr, led, sub, argv[sub])
            self._path(ctx, sub).unlink(missing_ok=True)
            lib_t[sub] = timed(tr, led, f"library[{sub}]", fn, *args)
            metrics[f"cli.{sub}.render_s"] = sp.duration - lib_t[sub]
        out_bytes = sum(len(v) for v in out["files"].values())
        metrics.update({
            "exact_oracle.dp_states_per_s": _dp_states(s["exact_n"]) / lib_t["exact"],
            "exact_oracle.moment_recursion_s": pass_span.total("exact_oracle.moment_recursion"),
            "martingale_sequences.checkpoint_stream_ns_per_step": lib_t["sequences"] / s["seq_n"] * 1e9,
            "cli.output_bytes": out_bytes,
            "cli.render_ns_per_byte": sum(metrics[f"cli.{sub}.render_s"] for sub in library) / out_bytes * 1e9,
        })
        return metrics

    def counts(self, ctx, out):
        s = ctx.size
        n = s["asclt_n"]
        return {
            "streams_created": 1,
            "replica_steps": n,
            "uniforms_drawn_float32": n,
            "dp_states": _dp_states(s["exact_n"]) + 2 * _dp_states(s["urn_n"]),
            "cli_output_bytes": sum(len(v) for v in out["files"].values()),
            "kernel_buffer_bytes_computed": (n - 1) * (KERNEL_BYTES + STORE_FLOAT64_BYTES),
        }


WORKLOADS = {w.name: w for w in (ReplicaFanout(), ReplicaBatch(), SinglePath(), CliExact())}
