"""One workload in a process of its own, driven by a single thread.

Started by run.py.  It imports geoshoot, builds the inputs, writes the
line ``ready`` to stdout (run.py times set-up up to that line), times
the workload's calibration loop and writes ``calibration <seconds>
<reference seconds>``.  Then it runs one untimed warm-up round and whole
timed rounds for ``--seconds`` (at least MIN_ROUNDS of them), each
followed by a timed calibration, checks the outputs and writes one JSON
line with the result.  With ``--setup-only`` it stops after the
calibration line.

With ``--trace 1`` it instead runs a warm-up round, one timed untraced
round and one traced round, requires their outputs to be identical, and
reports per-layer figures from the spans of the traced round.  Set-up
is traced too, for the set-up share of the shapes and io layers.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from spans import LAYERS, Tracer

MIN_ROUNDS = 3


def _same(a, b) -> bool:
    """Exact equality of collected outputs (nested dicts, arrays, numbers)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same(a[k], b[k]) for k in a
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def _timed_round(body, inp):
    t0 = time.perf_counter()
    ops, raw = body(inp)
    return time.perf_counter() - t0, ops, raw


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _measure(workload, inp, seconds, calibrate):
    _, body, collect, check, (_, _, cal_ref) = workload
    # The warm-up round fills lazy caches and is checked, but not timed.
    # Every timed round runs between two calibrations.
    _, ops, raw = _timed_round(body, inp)
    walls, outs, cals = [], [collect(inp, raw)], [_timed(calibrate)]
    t_start = time.perf_counter()
    # A round starts only if it should end within --seconds, judged by
    # the round before it, so that a run lasts about --seconds.
    while len(walls) < MIN_ROUNDS or time.perf_counter() - t_start + walls[-1] <= seconds:
        wall, round_ops, raw = _timed_round(body, inp)
        cals.append(_timed(calibrate))
        walls.append(wall)
        ops += round_ops
        outs.append(collect(inp, raw))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check(inp, outs[0])
    if not all(_same(outs[0], out) for out in outs[1:]):
        problems.append("rounds on the same inputs gave different outputs")
    return {
        "walls": walls,
        "cals": cals,
        "cal_ref": cal_ref,
        "ops": ops,
        "peak_rss_mb": peak_mb,
        "problems": problems,
    }


def _layer_metrics(tracer, setup_tracer, wall_traced, wall_untraced) -> dict:
    calls, self_s = tracer.layer_sums()
    by_name = tracer.by_name()
    counts = tracer.counts

    def calls_of(callee, caller=None):
        return sum(n for k, (n, _, _) in by_name.items()
                   if k.split(":")[1] == callee and caller in (None, k.split(":")[0]))

    def total_of(callee):
        return sum(t for k, (_, t, _) in by_name.items() if k.split(":")[1] == callee)

    rhs_calls = calls_of("particles.rhs")
    steps = counts["integrator.steps"]
    iterations = counts["shooting.iterations"]
    outside = wall_traced - tracer.top_level_s()
    setup_self = setup_tracer.layer_sums()[1]
    m = {
        "kernels.calls": (calls["kernels"], "count"),
        "kernels.evals": (counts["kernels.evals"], "count"),
        "kernels.self_s": (self_s["kernels"], "s"),
        "particles.rhs_calls": (rhs_calls, "count"),
        "particles.pair_terms": (counts["particles.pair_terms"], "count"),
        "particles.self_s": (self_s["particles"], "s"),
        "particles.rhs_us": (1e6 * total_of("particles.rhs") / max(rhs_calls, 1), "us"),
        "integrator.evolve_calls": (calls_of("integrator.evolve"), "count"),
        "integrator.steps": (steps, "count"),
        "integrator.self_s": (self_s["integrator"], "s"),
        "integrator.step_us": (1e6 * total_of("integrator.evolve") / max(steps, 1), "us"),
        "shooting.solves": (counts["shooting.solves"], "count"),
        "shooting.iterations": (iterations, "count"),
        "shooting.shoots": (counts["shooting.shoots"], "count"),
        "shooting.shoots_per_iteration": (
            counts["shooting.shoots"] / iterations if iterations else 0.0, "shoots/iter"),
        "shooting.self_s": (self_s["shooting"], "s"),
        "analysis.cells": (calls_of("shooting.match", "analysis"), "count"),
        "analysis.self_s": (self_s["analysis"], "s"),
        "shapes.templates": (calls["shapes"], "count"),
        "shapes.self_s": (self_s["shapes"], "s"),
        "shapes.setup_self_s": (setup_self["shapes"], "s"),
        "io.bytes_written": (counts["io.bytes_written"], "bytes"),
        "io.self_s": (self_s["io"], "s"),
        "io.setup_self_s": (setup_self["io"], "s"),
        "svg.self_s": (self_s["svg"], "s"),
        "cli.commands": (calls_of("cli.main", "bench"), "count"),
        "cli.self_s": (self_s["cli"], "s"),
        "trace.wall_s": (wall_traced, "s"),
        "trace.outside_s": (outside, "s"),
        "trace.overhead_s": (wall_traced - wall_untraced, "s"),
        "trace.spans": (len(tracer.start), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _trace(workload, inp, setup_tracer, callers, spans_dir, name):
    _, body, collect, check, _ = workload
    _timed_round(body, inp)  # warm-up, as in an untraced run
    wall_u, ops, raw = _timed_round(body, inp)
    out_u = collect(inp, raw)
    tracer = Tracer(callers)
    tracer.install()
    try:
        wall_t, ops_t, raw = _timed_round(body, inp)
    finally:
        tracer.uninstall()
    out_t = collect(inp, raw)
    problems = check(inp, out_u)
    if not (_same(out_u, out_t) and ops == ops_t):
        problems.append("traced outputs differ from untraced ones")
    metrics = _layer_metrics(tracer, setup_tracer, wall_t, wall_u)
    gap = sum(tracer.layer_sums()[1].values()) + metrics["trace.outside_s"]["value"] - wall_t
    if abs(gap) > 1e-6 * wall_t:
        problems.append(f"layer self times + outside differ from traced wall by {gap:.3g} s")
    tracer.save(spans_dir / f"spans-{name}.npz")
    setup_tracer.save(spans_dir / f"spans-{name}-setup.npz")
    return {"walls": [wall_u], "ops": ops, "problems": problems, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads  # imports geoshoot: part of set-up

    workload = workloads.WORKLOADS[args.workload]
    setup_tracer = None
    if args.trace:
        callers = {layer: sys.modules[f"geoshoot.{layer}"] for layer in LAYERS}
        callers["bench"] = workloads
        setup_tracer = Tracer(callers)
        setup_tracer.install()
    try:
        inp = workload[0](args.workdir, args.seed)
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
    print("ready", flush=True)
    # The calibration right after set-up scales this worker's set-up time.
    cal_n, cal_steps, cal_ref = workload[4]
    calibrate = workloads.calibration(cal_n, cal_steps)
    calibrate()  # warm-up: first-call costs of numpy
    print(f"calibration {_timed(calibrate)!r} {cal_ref!r}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = _trace(workload, inp, setup_tracer, callers, args.workdir.parent,
                        args.workload)
    else:
        result = _measure(workload, inp, args.seconds, calibrate)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
