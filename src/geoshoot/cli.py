"""Command-line front end.

Subcommands mirror the library: shape generation, matching, prediction,
distances, clustering, and convergence sweeps.  Every run writes one
manifest next to its outputs recording the command, every knob, input
digests, and the outcome, so any file this tool produced can be traced
back to an exact invocation.

Exit codes, the same for every subcommand: 0 success (the run
converged or completed), 1 a numeric failure (divergence,
non-convergence), 2 bad input, a bad configuration, or an ``--out``
path that cannot be created or written.
"""

from __future__ import annotations

import argparse
import functools
import math
import shlex
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .analysis import (
    DIVERGED,
    SweepGrid,
    cluster_test,
    convergence_sweep,
    predict,
    shape_distance,
)
from .errors import ConfigurationError, GeoshootError
from .integrator import EvolveConfig, evolve
from .io import (
    RunManifest,
    config_echo,
    load_template,
    save_cluster_verdict,
    save_distance,
    save_match_result,
    save_template,
    sha256_digest,
    write_manifest,
    write_residual_csv,
    write_sweep_csv,
    write_trajectory_csv,
)
from .kernels import KernelFamily, KernelSpec
from .particles import ParticleState, SystemSpec
from .shapes import (
    circle,
    circle_ellipse_hybrid,
    ellipse_rot_shift,
    heart4,
    square,
    standard_rotated_ellipse,
)
from .shooting import ResidualNorm, ShootingConfig, UpdateSpace, match
from .svg import frames_svg, heatmap_svg, save_svg

__all__ = ["main", "build_parser"]


def _one_of(default) -> dict:
    """Keywords of a flag taking one value of the enum of member ``default``."""
    return {"choices": [m.value for m in type(default)], "default": default.value}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("shooting configuration")
    g.add_argument("--kernel", **_one_of(KernelFamily.CONICAL))
    g.add_argument("--nu", type=float, default=1.5,
                   help="Bessel kernel order (bessel family only)")
    g.add_argument("--alpha", type=float, default=1.0, help="kernel width")
    g.add_argument("--normalized", action=argparse.BooleanOptionalAction,
                   default=True, help="scale the kernel to peak value 1")
    g.add_argument("--h", type=float, default=0.3, help="feedback search length")
    g.add_argument("--eps", type=float, default=1e-3, help="stopping tolerance")
    g.add_argument("--max-iter", type=int, default=500)
    g.add_argument("--steps", type=int, default=100, help="RK4 steps over [0, t-final]")
    g.add_argument("--t-final", type=float, default=1.0)
    g.add_argument("--sigma2", type=float, default=0.0,
                   help="inexactness weight; > 0 switches the system and its stopping rule")
    g.add_argument("--update", **_one_of(UpdateSpace.VELOCITY))
    g.add_argument("--norm", **_one_of(ResidualNorm.MAX))


def _config_from(args: argparse.Namespace) -> ShootingConfig:
    kernel = KernelSpec(
        family=args.kernel, nu=args.nu, alpha=args.alpha, normalized=args.normalized
    )
    return ShootingConfig(
        h=args.h,
        epsilon=args.eps,
        max_iter=args.max_iter,
        update_space=args.update,
        norm=args.norm,
        # Only ``match`` has --capture-every; its replay keeps the frames.
        evolve=EvolveConfig(args.t_final, args.steps, getattr(args, "capture_every", 0)),
        system=SystemSpec(kernel=kernel, sigma2=args.sigma2),
    )


def _check_out(out) -> None:
    """Reject an ``--out`` path under a regular file before the run,
    which could otherwise end as a numeric failure before it writes."""
    for parent in Path(out or ".").parents:
        if parent.is_file():
            raise ConfigurationError(f"--out {out}: {parent} is a file, not a directory")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out) if args.out else Path(f"geoshoot-{args.command}")
    out.mkdir(parents=True, exist_ok=True)
    return out


class _Run(NamedTuple):
    """What a subcommand reports to :func:`main`.

    ``outcome`` goes to the manifest at ``manifest`` and, unless
    ``shown`` replaces it, to stdout; ``ok`` picks exit code 0 or 1.
    ``inputs`` maps each input path to its digest from :func:`_load`.
    """

    outcome: str
    manifest: Path
    config: ShootingConfig | None = None
    inputs: dict | None = None
    ok: bool = True
    extras: dict | None = None
    shown: str | None = None


# name -> (builder, parameter names pulled from the CLI namespace)
_SHAPES = {
    "circle": (
        lambda a: circle(a.radius, (a.shift_x, a.shift_y), a.n, a.label),
        ("radius", "shift_x", "shift_y", "n"),
    ),
    "ellipse": (
        lambda a: ellipse_rot_shift(
            a.a, a.b, a.angle, (a.shift_x, a.shift_y), a.n, a.label
        ),
        ("a", "b", "angle", "shift_x", "shift_y", "n"),
    ),
    "rotated-ellipse": (
        lambda a: standard_rotated_ellipse(
            a.a, a.b, a.angle, (a.shift_x, a.shift_y), a.n, a.label
        ),
        ("a", "b", "angle", "shift_x", "shift_y", "n"),
    ),
    "heart4": (lambda a: heart4(a.n, a.label), ("n",)),
    "square": (lambda a: square(a.side, a.n, a.label), ("side", "n")),
    "hybrid": (
        lambda a: circle_ellipse_hybrid(a.r, a.a, a.b, a.n, a.label),
        ("r", "a", "b", "n"),
    ),
}


def _load(*paths) -> tuple[list, dict]:
    """The templates at ``paths`` and their files' SHA-256 digests, taken
    as they are loaded: an output may replace an input later in the run."""
    templates = [load_template(p) for p in paths]
    return templates, {str(p): sha256_digest(p) for p in paths}


def _cmd_shapes(args: argparse.Namespace) -> _Run:
    builder, param_names = _SHAPES[args.name]
    template = builder(args)
    out = Path(args.out) if args.out else Path(f"{template.label}.json".replace("/", "_"))
    save_template(template, out)
    params = {name: getattr(args, name) for name in param_names}
    return _Run(
        f"wrote {template.n} landmarks to {out}",
        out.with_suffix(".manifest.json"),
        extras={"generator": args.name, "params": params, "label": template.label},
        shown=str(out),
    )


def _cmd_match(args: argparse.Namespace) -> _Run:
    cfg = _config_from(args)
    (reference, target), inputs = _load(args.reference, args.target)

    result = match(reference, target, cfg)
    out = _out_dir(args)
    save_match_result(result, out / "result.json", cfg)
    write_residual_csv(result.residual_history, out / "residuals.csv")
    if cfg.evolve.capture_every > 0:
        run = evolve(cfg.system, ParticleState(reference.points, result.p0), cfg.evolve)
        write_trajectory_csv(run.frames, out / "trajectory.csv")
        save_svg(frames_svg(run.frames), out / "frames.svg")

    if result.converged:
        outcome = (
            f"converged in {result.iterations} iterations; "
            f"H = {result.hamiltonian:.6g}"
        )
    else:
        outcome = f"failed after {result.iterations} iterations: " + (
            result.diagnosis or "no diagnosis"
        )
        print(f"details in {out / 'result.json'}", file=sys.stderr)
    return _Run(outcome, out / "manifest.json", cfg, inputs, ok=result.converged)


def _cmd_predict(args: argparse.Namespace) -> _Run:
    cfg = _config_from(args)
    (reference, partial), inputs = _load(args.reference, args.target_partial)
    predicted = predict(reference, partial, args.t_match, args.t_predict, cfg)
    out = _out_dir(args)
    save_template(predicted, out / "predicted.json")
    return _Run(
        f"predicted {predicted.n} landmarks at t = {args.t_predict:g}",
        out / "manifest.json", cfg, inputs,
        extras={"t_match": args.t_match, "t_predict": args.t_predict},
    )


def _cmd_distance(args: argparse.Namespace) -> _Run:
    cfg = _config_from(args)
    (reference, target), inputs = _load(args.reference, args.target)
    record = shape_distance(reference, target, cfg)
    out = _out_dir(args)
    save_distance(record, out / "distance.json")
    outcome = (
        f"H = {record.H:.6g} in {record.iterations} iterations"
        if record.converged
        else f"did not converge within {cfg.max_iter} iterations"
    )
    return _Run(outcome, out / "manifest.json", cfg, inputs, ok=record.converged)


def _cmd_cluster(args: argparse.Namespace) -> _Run:
    cfg = _config_from(args)
    (a, b, *refs), inputs = _load(args.a, args.b, *args.refs)
    verdict = cluster_test(
        a, b, refs,
        {"pair": args.pair_threshold, "ref_diff": args.ref_diff_threshold},
        cfg, preprocess=args.preprocess,
    )
    out = _out_dir(args)
    save_cluster_verdict(verdict, out / "verdict.json")
    if verdict.same_cluster is None:
        outcome = "inconclusive: a match did not converge"
    else:
        outcome = f"same_cluster = {verdict.same_cluster}"
    return _Run(
        outcome, out / "manifest.json", cfg, inputs,
        ok=verdict.same_cluster is not None,
        extras={
            "pair_threshold": args.pair_threshold,
            "ref_diff_threshold": args.ref_diff_threshold,
            "preprocess": args.preprocess,
        },
    )


def _cmd_sweep(args: argparse.Namespace) -> _Run:
    inputs = None
    if args.reference and args.target:
        (reference, target), inputs = _load(args.reference, args.target)
    elif args.reference or args.target:
        raise ConfigurationError("--reference and --target must be given together")
    else:
        # The built-in study pair: circle onto the rotated shifted ellipse.
        reference = circle(2.0, (0.0, 0.0), args.n)
        target = standard_rotated_ellipse(
            4.0, 1.0, -math.pi / 4, (1.0, 0.0), args.n
        )
    grid = SweepGrid(
        alpha2_values=args.alpha2,
        h_values=args.h_values,
        n_landmarks=reference.n,
        kernel_family=args.kernel,
        tolerance=args.tol,
        max_iter=args.max_iter,
    )
    matrix = convergence_sweep(reference, target, grid)
    out = _out_dir(args)
    write_sweep_csv(grid, matrix, out / "sweep.csv")
    save_svg(heatmap_svg(grid, matrix), out / "sweep.svg")
    diverged = int((matrix == DIVERGED).sum())
    outcome = (
        f"{matrix.size - diverged}/{matrix.size} cells converged"
        + (f", {diverged} diverged" if diverged else "")
    )
    return _Run(
        outcome, out / "manifest.json", inputs=inputs,
        extras={"grid": grid, "pair": [reference.label, target.label]},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoshoot",
        description="Landmark template matching by geodesic shooting.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shapes", help="generate a landmark template JSON")
    p.add_argument("name", choices=sorted(_SHAPES))
    p.add_argument("--radius", type=float, default=2.0, help="circle radius")
    p.add_argument("--r", type=float, default=1.0, help="hybrid circle radius")
    p.add_argument("--a", type=float, default=4.0, help="ellipse semi-axis a")
    p.add_argument("--b", type=float, default=1.0, help="ellipse semi-axis b")
    p.add_argument("--angle", type=float, default=0.0, help="rotation angle, radians")
    p.add_argument("--shift-x", type=float, default=0.0)
    p.add_argument("--shift-y", type=float, default=0.0)
    p.add_argument("--side", type=float, default=4.0, help="square side length")
    p.add_argument("--n", type=int, default=64, help="landmark count")
    p.add_argument("--label", default=None)
    p.add_argument("--out", default=None, help="output JSON path")
    p.set_defaults(run=_cmd_shapes)

    p = sub.add_parser("match", help="match a reference template onto a target")
    p.add_argument("reference")
    p.add_argument("target")
    _add_config_flags(p)
    p.add_argument("--capture-every", type=int, default=0,
                   help="also write trajectory CSV/SVG, keeping every k-th frame")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_match)

    p = sub.add_parser("predict", help="extrapolate a partially observed deformation")
    p.add_argument("reference")
    p.add_argument("target_partial")
    p.add_argument("--t-match", type=float, required=True)
    p.add_argument("--t-predict", type=float, required=True)
    _add_config_flags(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_predict)

    p = sub.add_parser("distance", help="Hamiltonian shape distance between templates")
    p.add_argument("reference")
    p.add_argument("target")
    _add_config_flags(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_distance)

    p = sub.add_parser("cluster", help="same-cluster test against reference shapes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--refs", nargs="+", required=True,
                   help="two or more reference template JSONs")
    p.add_argument("--pair-threshold", type=float, required=True)
    p.add_argument("--ref-diff-threshold", type=float, required=True)
    p.add_argument("--preprocess", action="store_true",
                   help="centroid-align and RMS-scale all inputs first")
    _add_config_flags(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_cluster)

    p = sub.add_parser("sweep", help="convergence sweep over the alpha^2 x h plane")
    p.add_argument("--kernel", **_one_of(KernelFamily.CONICAL))
    p.add_argument("--n", type=int, default=16,
                   help="landmark count of the built-in pair; template files "
                   "set their own")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--alpha2", type=float, nargs="+",
                   default=(0.2, 0.4, 0.6, 0.8, 1.0))
    p.add_argument("--h-values", type=float, nargs="+",
                   default=(0.2, 0.4, 0.6, 0.8, 1.0))
    p.add_argument("--reference", default=None,
                   help="template JSON (default: built-in circle)")
    p.add_argument("--target", default=None,
                   help="template JSON (default: built-in rotated ellipse)")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(run=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses: argparse keeps no state
    between parses, and each parse gets a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _check_out(args.out)
        run = args.run(args)
        manifest = RunManifest(
            command=shlex.join(["geoshoot", *argv]),
            version=__version__,
            config=config_echo(run.config) if run.config is not None else {},
            inputs=run.inputs or {},
            wall_time_s=time.perf_counter() - t0,
            outcome=run.outcome,
            extras=run.extras or {},
        )
        write_manifest(manifest, run.manifest)
    except (ConfigurationError, OSError, MemoryError) as exc:
        # Bad input, bad configuration, an output path that cannot be
        # created or written, or a size too large to allocate.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except GeoshootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(run.shown or run.outcome)
    return 0 if run.ok else 1


if __name__ == "__main__":
    sys.exit(main())
