"""geoshoot benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload panel-n64 --seed 0 --seconds 20 --trace 0

Run from the root of a geoshoot checkout; the package is used from its
``src/`` tree.  Workloads: panel-n64, sweep-n16, newton-n6,
transport-n1024 (see perfbench/README.md).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics ``setup_s``, ``wall_s`` and ``peak_rss_mb``; with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Either way it also holds ``correct`` and the operations ``attempted``
and ``failed``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("panel-n64", "sweep-n16", "newton-n6", "transport-n1024")
# Processes that only set up, timed to the worker's "ready" line, run
# before and after the measuring process, which makes one more sample.
# setup_s is their median; spreading the samples over the run damps the
# host's short swings in speed.
SETUP_ONLY_RUNS = 2
TIMEOUT_S = 170.0

# Times are reported at the reference host's speed.  The host's speed
# drifts by up to 1.7x within minutes (perfbench/README.md, "Noise"), so
# every worker times a calibration loop, a fixed integration of the
# independent reference model that no change to geoshoot can move, next
# to what it measures.  A time t measured next to a calibration that
# took c seconds, against its reference time c_ref, is reported as
# t * c_ref / c.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class BenchError(Exception):
    pass


def _start(args, workdir: Path, setup_only: bool):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One BLAS thread: the client is a single thread, and a 2-core host
    # shared with other work gives steadier figures without BLAS threads.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)


def _worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Run one worker; return (setup seconds, host speed factor, result or None).

    The speed factor is c_ref / c for the calibration the worker times
    right after set-up.
    """
    t0 = time.perf_counter()
    proc = _start(args, workdir, setup_only)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "ready":
            raise BenchError(f"worker did not finish set-up (exit {proc.wait()})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        cal_line = rest.splitlines()[0].split() if rest else []
        if len(cal_line) != 3 or cal_line[0] != "calibration":
            raise BenchError(f"worker did not time its calibration (exit {proc.wait()})")
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    speed = float(cal_line[2]) / float(cal_line[1])
    if setup_only:
        return setup_s, speed, None
    return setup_s, speed, json.loads(rest.strip().splitlines()[-1])


def _scaled_rounds(walls, cals, cal_ref):
    """Round times at reference speed; round i ran between calibrations i and i + 1."""
    return [w * cal_ref / ((a + b) / 2) for w, a, b in zip(walls, cals, cals[1:])]


def run(args) -> dict:
    deadline = time.perf_counter() + TIMEOUT_S
    work_root = ROOT / ".perfbench-work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        extra = 0 if args.trace else SETUP_ONLY_RUNS
        samples = [_worker(args, workdir, True, deadline)[:2] for _ in range(extra)]
        setup_s, speed, result = _worker(args, workdir, False, deadline)
        samples.append((setup_s, speed))
        samples += [_worker(args, workdir, True, deadline)[:2] for _ in range(extra)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    failed = {name: detail for name, ok, detail in ops if not ok}
    walls = result["walls"]
    print(
        f"{args.workload} seed {args.seed}: {len(walls)} timed round(s), "
        f"measured round time median {statistics.median(walls):.3f} s "
        f"(min {min(walls):.3f}, max {max(walls):.3f}), measured set-up median "
        f"{statistics.median(s for s, _ in samples):.3f} s, "
        f"host speed factor median {statistics.median(f for _, f in samples):.3f}, "
        f"{len(ops)} operations, failed: {failed or 'none'}",
        file=sys.stderr,
    )
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if args.trace:
        metrics = result["metrics"]
    else:
        rounds = _scaled_rounds(walls, result["cals"], result["cal_ref"])
        metrics = {
            "setup_s": {"value": statistics.median(s * f for s, f in samples), "unit": "s"},
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": not result["problems"],
        "attempted": len(ops),
        "failed": sum(not ok for _, ok, _ in ops),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "geoshoot" / "__init__.py").is_file():
        print(f"error: no geoshoot source tree under {ROOT}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
