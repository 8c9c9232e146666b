"""Command-line interface: exit codes, output files, manifests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geoshoot import circle, cli, ellipse_rot_shift, heart4, load_template, save_template
from geoshoot.cli import main
from geoshoot.io import MANIFEST_SCHEMA

QUICK = ["--h", "0.5", "--eps", "1e-4", "--steps", "40"]


@pytest.fixture()
def pair(tmp_path):
    ref = tmp_path / "ref.json"
    tgt = tmp_path / "tgt.json"
    save_template(circle(1.0, n=8, label="c"), ref)
    save_template(ellipse_rot_shift(1.3, 0.9, 0.0, (0.1, 0.0), n=8, label="e"), tgt)
    return ref, tgt


def test_shapes_writes_template_and_manifest(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = main(["shapes", "circle", "--radius", "2", "--n", "16", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(out)
    template = load_template(out)
    assert template.n == 16
    assert template.label == "circle(r=2)"
    manifest = json.loads((tmp_path / "c.manifest.json").read_text())
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["command"].startswith("geoshoot shapes circle")
    assert manifest["extras"]["generator"] == "circle"
    assert manifest["extras"]["params"]["radius"] == 2.0
    assert manifest["extras"]["params"]["n"] == 16


def test_shapes_rejects_unknown_generator():
    with pytest.raises(SystemExit) as exc:
        main(["shapes", "pentagon"])
    assert exc.value.code == 2


def test_match_end_to_end(tmp_path, pair, capsys):
    ref, tgt = pair
    out = tmp_path / "run"
    code = main(["match", str(ref), str(tgt), *QUICK, "--out", str(out)])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is True
    assert result["final_label"] == "c>e"
    lines = (out / "residuals.csv").read_text().splitlines()
    assert len(lines) == result["iterations"] + 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"].startswith("converged")
    assert len(manifest["inputs"]) == 2
    assert manifest["config"]["h"] == 0.5


def test_match_capture_writes_trajectory(tmp_path, pair):
    ref, tgt = pair
    out = tmp_path / "run"
    code = main(
        ["match", str(ref), str(tgt), *QUICK, "--capture-every", "10", "--out", str(out)]
    )
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "frames.svg").read_text().startswith("<svg")
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,i,qx,qy,px,py"


def test_match_nonconvergence_exits_1(tmp_path, pair, capsys):
    ref, tgt = pair
    out = tmp_path / "run"
    code = main(
        ["match", str(ref), str(tgt), *QUICK, "--max-iter", "2", "--out", str(out)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "failed" in captured.out
    assert "result.json" in captured.err
    result = json.loads((out / "result.json").read_text())
    assert result["converged"] is False


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["match", str(tmp_path / "no.json"), str(tmp_path / "no2.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["nan", "coincident"])
def test_bad_template_points_exit_2(tmp_path, pair, capsys, name):
    ref, _ = pair
    points = circle(1.0, n=8).points.tolist()
    if name == "nan":
        points[2][0] = float("nan")
    else:
        points[3] = points[2]
    bad = tmp_path / f"bad-{name}.json"
    bad.write_text(json.dumps({"points": points}))
    code = main(["match", str(ref), str(bad), *QUICK, "--out", str(tmp_path / "x")])
    assert code == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["circle", "--radius", "nan"],
        ["circle", "--shift-x", "nan"],
        ["ellipse", "--a", "inf"],
        ["rotated-ellipse", "--angle", "nan"],
        ["hybrid", "--r", "nan"],
        ["square", "--side", "inf"],
    ],
)
def test_nonfinite_shape_parameters_exit_2(tmp_path, capsys, argv):
    code = main(["shapes", *argv, "--n", "8", "--out", str(tmp_path / "s.json")])
    assert code == 2
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--sigma2", "nan"],
        ["--sigma2", "inf"],
        ["--capture-every", "-1"],
        ["--alpha", "1e-300"],
        ["--alpha", "1e200"],
        ["--kernel", "bessel", "--nu", "1e308"],
    ],
)
def test_bad_match_options_exit_2(tmp_path, pair, capsys, flags):
    ref, tgt = pair
    out = tmp_path / "x"
    code = main(["match", str(ref), str(tgt), *QUICK, *flags, "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_singular_gram_exits_1(tmp_path, capsys):
    # A wide gaussian kernel over 32 landmarks has no Gram factor: a
    # numeric failure, reported on one line.
    ref, tgt = tmp_path / "c32.json", tmp_path / "h32.json"
    save_template(circle(2.0, n=32), ref)
    save_template(heart4(32), tgt)
    out = tmp_path / "x"
    code = main(
        ["match", str(ref), str(tgt), "--kernel", "gaussian", "--alpha", "5", "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: kernel Gram matrix is not positive definite")
    assert len(err.splitlines()) == 1
    assert not (out / "result.json").exists()


def test_diverged_match_prints_no_numpy_warning(tmp_path, pair):
    # A gain of 1e300 overflows the first shoot and the Hamiltonian of
    # its momenta; both overflows are expected and must stay silent.
    ref, _ = pair
    large = tmp_path / "large.json"
    save_template(circle(2.5, n=8), large)
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "geoshoot.cli", "match", str(ref), str(large),
         "--h", "1e300", "--out", str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "step too large" in done.stdout
    assert "RuntimeWarning" not in done.stderr


def test_invalid_gain_exits_2(tmp_path, pair, capsys):
    ref, tgt = pair
    code = main(["match", str(ref), str(tgt), "--h", "-1", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_inexact_match_exits_0(tmp_path, pair):
    ref, tgt = pair
    code = main(
        ["match", str(ref), str(tgt), "--sigma2", "0.1", "--out", str(tmp_path / "x")]
    )
    assert code == 0


def test_predict_cli(tmp_path, pair):
    ref, tgt = pair
    out = tmp_path / "pred"
    code = main(
        [
            "predict", str(ref), str(tgt),
            "--t-match", "0.5", "--t-predict", "1.0",
            *QUICK, "--out", str(out),
        ]
    )
    assert code == 0
    predicted = load_template(out / "predicted.json")
    assert predicted.n == 8
    assert predicted.label.endswith("@t=1")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extras"]["t_predict"] == 1.0


def test_distance_cli(tmp_path, pair, capsys):
    ref, tgt = pair
    out = tmp_path / "dist"
    code = main(["distance", str(ref), str(tgt), *QUICK, "--out", str(out)])
    assert code == 0
    assert "H = " in capsys.readouterr().out
    doc = json.loads((out / "distance.json").read_text())
    assert doc["converged"] is True
    assert doc["H"] > 0
    assert doc["reference"] == "c"


def test_cluster_cli_verdict_and_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    save_template(circle(1.0, n=8, label="a"), a)
    save_template(circle(1.0, n=8, label="b"), b)
    save_template(circle(3.0, n=8, label="big"), r1)
    save_template(heart4(n=8, label="h"), r2)
    out = tmp_path / "cl"
    code = main(
        [
            "cluster", str(a), str(b), "--refs", str(r1), str(r2),
            "--pair-threshold", "0.05", "--ref-diff-threshold", "1.5",
            *QUICK, "--out", str(out),
        ]
    )
    assert code == 0
    assert "same_cluster = True" in capsys.readouterr().out
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["same_cluster"] is True
    assert len(verdict["evidence"]) == 5

    starved = main(
        [
            "cluster", str(a), str(b), "--refs", str(r1), str(r2),
            "--pair-threshold", "0.05", "--ref-diff-threshold", "1.5",
            "--h", "0.5", "--eps", "1e-12", "--max-iter", "1", "--steps", "40",
            "--out", str(tmp_path / "cl2"),
        ]
    )
    assert starved == 1


# The templates set N; --n only sizes the built-in pair.
@pytest.mark.parametrize("n_flag", [["--n", "8"], []], ids=["n8", "no-n"])
def test_sweep_cli(tmp_path, pair, capsys, n_flag):
    ref, tgt = pair
    out = tmp_path / "sw"
    code = main(
        [
            "sweep", "--reference", str(ref), "--target", str(tgt),
            *n_flag, "--alpha2", "0.5", "1.0", "--h-values", "0.4", "0.8",
            "--tol", "1e-3", "--max-iter", "200", "--out", str(out),
        ]
    )
    assert code == 0
    assert "cells converged" in capsys.readouterr().out
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "alpha2,h,iterations,converged"
    assert len(rows) == 5
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg")
    assert "N=8" in svg
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extras"]["grid"]["alpha2_values"] == [0.5, 1.0]
    assert manifest["extras"]["grid"]["n_landmarks"] == 8
    assert manifest["extras"]["pair"] == ["c", "e"]


def test_sweep_needs_both_templates_or_neither(tmp_path, pair, capsys):
    ref, _ = pair
    code = main(["sweep", "--reference", str(ref), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "together" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "match"])
def test_sweep_with_unequal_landmark_counts_exits_2(tmp_path, capsys, command):
    ref = save_template(circle(2.0, n=16), tmp_path / "c16.json")
    tgt = save_template(circle(2.0, n=12), tmp_path / "c12.json")
    out = tmp_path / "out"
    if command == "sweep":
        argv = ["sweep", "--reference", str(ref), "--target", str(tgt),
                "--alpha2", "1.0", "--h-values", "0.5"]
    else:
        argv = ["match", str(ref), str(tgt)]
    code = main([*argv, "--out", str(out)])
    assert code == 2
    assert "equal landmark counts" in capsys.readouterr().err
    # The library rejects the pair before any output directory is made.
    assert not out.exists()


@pytest.mark.parametrize("command", ["shapes", "match"])
def test_unusable_output_path_exits_2(tmp_path, pair, capsys, command):
    ref, tgt = pair
    if command == "shapes":
        missing = tmp_path / "missing" / "dir" / "c.json"
        argv = ["shapes", "circle", "--out", str(missing)]
    else:
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        argv = ["match", str(ref), str(tgt), *QUICK, "--out", str(taken)]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))
