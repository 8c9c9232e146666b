"""SHA-256 digests of geoshoot's numerical outputs, for proving that a
change keeps every bit.

    python3 tools/digests.py                  # print {name: digest} as JSON
    python3 tools/digests.py --against TREE   # compare with TREE's src/

Run from anywhere; the package comes from the ``src/`` of this
checkout, or of TREE.  Each run is a fresh interpreter with
``OPENBLAS_NUM_THREADS=1``.  The digests cover:

* ``_kernel_terms`` (G and dG/dr) of every family, Bessel orders and
  both normalizations, at power-of-two and other widths, over a battery
  of radii from 0 and the subnormals to 1.7e308;
* a stacked ``_rhs`` (each stack's members differing in alpha and
  sigma2), ``gram_matrix``, ``velocity_field`` and
  ``momenta_from_velocity`` at N in {6, 16, 64, 200, 640, 1024}, where
  the ``_rhs`` passes of 640 (13 upper blocks) and 1024 (32) are split
  between the caller and a worker process on a host with two CPUs;
* the public ``pairwise_distances`` over passes of several blocks;
* the coincidence errors of ``gram_matrix``, ``LandmarkTemplate`` and
  ``rhs`` at those N, each naming the first of two planted pairs, which
  spans two row blocks where N has more than one, and which lies in a
  worker's block at N = 640;
* every ``MatchResult`` field of the six matches of the benchmark's
  panel (circle onto each target at N = 64, 10 RK4 steps) and of a
  Newton match, and the iteration counts of a 2 x 2
  ``convergence_sweep``;
* every file that three runs of ``cli.main`` write, from a temporary
  working directory with relative paths: a ``match`` at N = 64 with 10
  RK4 steps and ``--capture-every 2``, a 2 x 2 ``sweep`` at N = 16 and a
  ``distance``, each manifest without its ``wall_time_s``.

With ``--against`` it prints how many digests are equal and the names
whose digests differ or exist on one side only, and exits 1 if any do.
Digests of ``exp`` and BLAS output can differ between CPUs and library
builds, so compare two trees on one host; no golden file is kept.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

# geoshoot is imported inside the functions that use it: only the worker
# runs them, with the package of the tree under test on its path.
ROOT = Path(__file__).resolve().parents[1]
SIZES = (6, 16, 64, 200, 640, 1024)
WIDTHS = (2.0**-4, 0.5, 1.0, 2.0, 16.0, 0.7, math.sqrt(0.4))
RADII = np.concatenate(([0.0, 5e-324, 1e-320], np.geomspace(1e-8, 30.0, 4000), [1e308, 1.7e308]))


def _digest(arr) -> str:
    a = np.ascontiguousarray(arr)
    head = f"{a.dtype.str}{a.shape}".encode()
    return hashlib.sha256(head + a.tobytes()).hexdigest()


def _kernels(out: dict) -> None:
    from geoshoot import kernels
    from geoshoot.kernels import KernelSpec

    families = [("conical", 1.5), ("gaussian", 1.5)]
    families += [("bessel", nu) for nu in (1.25, 2.0, 2.5, 3.5)]
    for family, nu in families:
        for normalized in (True, False):
            for alpha in WIDTHS:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # bessel nu < 1.5
                    spec = KernelSpec(family=family, nu=nu, alpha=alpha, normalized=normalized)
                with np.errstate(all="ignore"):  # radii / alpha overflow
                    value, slope = kernels._kernel_terms(spec, RADII)
                name = f"terms/{family}-nu{nu}-{'norm' if normalized else 'raw'}-a{alpha!r}"
                out[f"{name}/G"] = _digest(value)
                out[f"{name}/dG"] = _digest(slope)


def _state(n: int, seed: int):
    from geoshoot.shapes import heart4

    rng = np.random.default_rng(seed)
    q = heart4(n).points + 0.01 * rng.normal(size=(n, 2))
    return q, rng.normal(size=(n, 2))


def _passes(out: dict) -> None:
    from geoshoot import particles
    from geoshoot.errors import DegenerateConfigurationError
    from geoshoot.kernels import KernelSpec, gram_matrix
    from geoshoot.particles import ParticleState, SystemSpec, velocity_field
    from geoshoot.shooting import momenta_from_velocity

    # Stacks of equal widths, of exact widths only, and of mixed ones.
    stacks = {"a1": (1.0,), "a0.5+1": (0.5, 1.0), "a1+sqrt0.4": (1.0, math.sqrt(0.4))}
    for n in SIZES:
        q, p = _state(n, n)
        for family in ("conical", "gaussian", "bessel"):
            if family == "bessel" and n > 200:
                continue  # kv over 1M radii per call; N <= 200 covers the blocks
            for label, widths in stacks.items():
                specs = [KernelSpec(family=family, nu=2.5, alpha=a) for a in widths]
                systems = [SystemSpec(s, sigma2=0.1 * b) for b, s in enumerate(specs)]
                b = len(specs)
                qs = q + 0.001 * np.arange(b)[:, None, None]
                ps = p * (1.0 + np.arange(b))[:, None, None]
                with np.errstate(over="ignore"):
                    d, _ = particles._rhs(
                        specs[0], particles._stack(qs, ps), particles._constants(systems)
                    )
                out[f"rhs/{family}-{label}-n{n}"] = _digest(d)
            for alpha in (1.0, 0.7):
                spec = KernelSpec(family=family, nu=2.5, alpha=alpha)
                tag = f"{family}-a{alpha}-n{n}"
                out[f"gram/{tag}"] = _digest(gram_matrix(spec, q))
                x = np.concatenate((q[::3] + 0.05, 3.0 * np.random.default_rng(n).normal(size=(n, 2))))
                state = ParticleState(q, p)
                out[f"velocity/{tag}"] = _digest(velocity_field(SystemSpec(spec), state, x))
                if family == "bessel" and n > 64:
                    continue
                # A Gram matrix that is not positive definite gives its
                # error, whose message names the failing leading minor.
                try:
                    momenta = momenta_from_velocity(spec, q, p)
                except DegenerateConfigurationError as exc:
                    momenta = _text(str(exc))
                out[f"momenta/{tag}"] = _digest(momenta)


def _text(message: str) -> np.ndarray:
    return np.frombuffer(message.encode(), dtype=np.uint8)


def _distances(out: dict) -> None:
    from geoshoot import pairwise_distances

    rng = np.random.default_rng(300)
    pts, oth = 10.0 * rng.normal(size=(300, 2)), rng.normal(size=(200, 2))
    out["distances/300x200"] = _digest(pairwise_distances(pts, oth))
    out["distances/300x300"] = _digest(pairwise_distances(pts))


def _coincidences(out: dict) -> None:
    from geoshoot.errors import DegenerateConfigurationError
    from geoshoot.kernels import KernelSpec, gram_matrix
    from geoshoot.particles import ParticleState, SystemSpec, rhs
    from geoshoot.shapes import LandmarkTemplate

    for n in SIZES:
        q, p = _state(n, n)
        # Pairs (n/2 - 1, n - 1) and (n/2, n - 2): at N = 200 (blocks of 163
        # rows) and 1024 (blocks of 32) the first spans two row blocks.
        q[n - 1], q[n - 2] = q[n // 2 - 1], q[n // 2]
        checks = {
            "gram": lambda: gram_matrix(KernelSpec(), q),
            "template": lambda: LandmarkTemplate(q, "clash"),
            "rhs": lambda: rhs(SystemSpec(), ParticleState(q, p)),
        }
        for name, check in checks.items():
            try:
                check()
                message = "no error"
            except DegenerateConfigurationError as exc:
                message = str(exc)
            out[f"coincident/{name}-n{n}"] = _digest(_text(message))


def _result_fields(out: dict, prefix: str, result) -> None:
    from geoshoot.shapes import LandmarkTemplate

    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, LandmarkTemplate):
            value = value.points
        if not isinstance(value, np.ndarray):
            value = _text(repr(value))
        out[f"{prefix}/{field.name}"] = _digest(value)


def _matches(out: dict) -> None:
    from geoshoot.analysis import SweepGrid, convergence_sweep
    from geoshoot.integrator import EvolveConfig
    from geoshoot.shapes import (
        circle,
        circle_ellipse_hybrid,
        ellipse_rot_shift,
        heart4,
        square,
        standard_rotated_ellipse,
    )
    from geoshoot.shooting import ResidualNorm, ShootingConfig, match, newton_match

    panel = {
        "": (heart4(64), 0.4),
        "-circle1": (circle(1.0, n=64), 0.3),
        "-circle3": (circle(3.0, n=64), 0.3),
        "-ellipse": (ellipse_rot_shift(1.0, 4.0, 0.0, (0.0, 0.0), 64), 0.3),
        "-hybrid": (circle_ellipse_hybrid(3.0, 3.0, 1.0, 64), 0.3),
        "-square": (square(4.0, 64), 0.3),
    }
    for name, (target, h) in panel.items():
        cfg = ShootingConfig(h=h, evolve=EvolveConfig(steps=10))
        _result_fields(out, f"match/panel-n64{name}", match(circle(2.0, n=64), target, cfg))
    ellipse = standard_rotated_ellipse(4.0, 1.0, -math.pi / 4, (1.0, 0.0), 6)
    cfg = ShootingConfig(h=1.0, norm=ResidualNorm.L2)
    _result_fields(out, "match/newton-n6", newton_match(circle(2.0, n=6), ellipse, cfg))
    grid = SweepGrid((0.4, 1.0), (0.6, 0.8), n_landmarks=16, max_iter=500)
    out["sweep/n16"] = _digest(convergence_sweep(circle(2.0, n=16), heart4(16), grid))


def _cli_files(out: dict) -> None:
    from geoshoot import cli

    runs = (
        ["shapes", "circle", "--n", "64", "--out", "circle.json"],
        ["shapes", "heart4", "--n", "64", "--out", "heart4.json"],
        ["match", "circle.json", "heart4.json", "--h", "0.4", "--steps", "10",
         "--capture-every", "2", "--out", "match"],
        ["sweep", "--n", "16", "--alpha2", "0.4", "1.0", "--h-values", "0.6", "0.8",
         "--out", "sweep"],
        ["distance", "circle.json", "heart4.json", "--steps", "10", "--out", "distance"],
    )
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                codes = [cli.main(argv) for argv in runs]
            for path in sorted(Path(".").rglob("*")):
                if path.parent == Path(".") or not path.is_file():
                    continue  # the input templates and their manifests
                data = path.read_bytes()
                if path.name == "manifest.json":
                    doc = json.loads(data)
                    del doc["wall_time_s"]
                    data = json.dumps(doc, sort_keys=True).encode()
                out[f"cli/{path.as_posix()}"] = _digest(np.frombuffer(data, dtype=np.uint8))
        finally:
            os.chdir(cwd)
    out["cli/exit-codes"] = _digest(np.array(codes))


def digests() -> dict:
    out = {}
    _kernels(out)
    _passes(out)
    _distances(out)
    _coincidences(out)
    _matches(out)
    _cli_files(out)
    return out


def _run(tree: Path) -> dict:
    """The digests of ``tree``'s package, from a fresh interpreter."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, __file__, "--worker"], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        sys.exit(f"digests of {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, help="another checkout to compare with")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(digests(), indent=1, sort_keys=True))
        return 0
    mine = _run(ROOT)
    if args.against is None:
        print(json.dumps(mine, indent=1, sort_keys=True))
        return 0
    theirs = _run(args.against.resolve())
    differ = sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))
    equal = sum(theirs.get(k) == v for k, v in mine.items())
    print(json.dumps({"equal": equal, "differ": differ}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
