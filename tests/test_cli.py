"""Command-line interface: exit codes, output files, manifests."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _fresh_cli(argv, **kwargs) -> subprocess.CompletedProcess:
    """The CLI run by a fresh interpreter that finds this geoshoot."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "geoshoot.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120, **kwargs)


@pytest.fixture(scope="module")
def shapes8(tmp_path_factory):
    """Template paths written by ``geoshoot shapes`` at N = 8: c8 and
    c8-large, circles of radius 2 and 2.5, and s8 and h8, the square and
    heart4."""
    root = tmp_path_factory.mktemp("shapes8")
    argvs = {"c8": ["circle"], "c8-large": ["circle", "--radius", "2.5"],
             "s8": ["square"], "h8": ["heart4"]}
    paths = {name: str(root / f"{name}.json") for name in argvs}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in argvs.items():
            assert main(["shapes", *argv, "--n", "8", "--out", paths[name]]) == 0
    return paths


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


def test_bessel_match_exits_0(tmp_path, shapes8):
    # A bessel kernel loads scipy.special on first use.
    code = main(["match", shapes8["c8"], shapes8["c8-large"], "--kernel", "bessel",
                 "--nu", "2.5", "--out", str(tmp_path / "run")])
    assert code == 0


def test_result_json_carries_the_conditioning_warning(tmp_path):
    ref, tgt, out = tmp_path / "c16.json", tmp_path / "h16.json", tmp_path / "run"
    save_template(circle(2.0, n=16), ref)
    save_template(heart4(16), tgt)
    code = main(["match", str(ref), str(tgt), "--kernel", "gaussian", "--alpha", "5",
                 "--max-iter", "3", "--out", str(out)])
    assert code == 1
    warnings = json.loads((out / "result.json").read_text())["warnings"]
    assert warnings[0].startswith("Gram matrix condition number 1.208e+13")


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


def test_match_capture_is_echoed_by_result_and_manifest(tmp_path, shapes8):
    # The replay keeps every 2nd of 10 steps: 6 frames of 8 landmarks.
    out = tmp_path / "run"
    code = main(["match", shapes8["c8"], shapes8["h8"], "--steps", "10",
                 "--capture-every", "2", "--out", str(out)])
    assert code == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 6 * 8
    for name in ("result.json", "manifest.json"):
        evolve = json.loads((out / name).read_text())["config"]["evolve"]
        assert evolve == {"t_final": 1.0, "steps": 10, "capture_every": 2}, name


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


def test_coincident_landmarks_in_a_second_row_block_exit_2(tmp_path, capsys):
    # Landmarks 170 and 190 of heart4(200) both lie in its second upper
    # row block (rows 163:200).
    ref, tgt = tmp_path / "c200.json", tmp_path / "h200.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["shapes", "circle", "--n", "200", "--out", str(ref)]) == 0
        assert main(["shapes", "heart4", "--n", "200", "--out", str(tgt)]) == 0
    doc = json.loads(tgt.read_text())
    doc["points"][190] = doc["points"][170]
    tgt.write_text(json.dumps(doc))
    code = main(["match", str(ref), str(tgt), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "landmarks 170 and 190" in err


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
    # A gain of 1e300 overflows the first shoot, an expected overflow
    # that must stay silent.
    ref, _ = pair
    large = tmp_path / "large.json"
    save_template(circle(2.5, n=8), large)
    done = _fresh_cli(["match", ref, large, "--h", "1e300", "--out", tmp_path / "run"])
    assert done.returncode == 1, done.stderr
    assert "step too large" in done.stdout
    assert "RuntimeWarning" not in done.stderr


def test_overflowing_gain_diverges_without_traceback(tmp_path, pair):
    # A gain of 1e308 overflows the update itself: the match ends as
    # diverged before its shoot, and a sweep with such a cell completes.
    ref, _ = pair
    large = tmp_path / "large.json"
    save_template(circle(10.0, n=8), large)
    runs = [
        ["match", str(ref), str(large), "--h", "1e308", "--out", str(tmp_path / "run")],
        ["sweep", "--reference", str(ref), "--target", str(large), "--alpha2", "1",
         "--h-values", "0.5", "1e308", "--max-iter", "100", "--out", str(tmp_path / "sw")],
    ]
    codes = []
    for argv in runs:
        done = _fresh_cli(argv)
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr, done.stderr
        codes.append((done.returncode, done.stdout))
    assert codes[0][0] == 1 and "step too large (non-finite update)" in codes[0][1]
    assert codes[1][0] == 0 and "1 diverged" in codes[1][1]
    rows = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert rows[2].endswith(",,false")


def test_diverged_shoot_replays_the_last_clean_iterate(tmp_path, capsys):
    # A gain of 1e100 sends the first shoot non-finite.  The match keeps
    # its start p = 0, so the captured replay of p0 runs cleanly and the
    # run writes every output, its manifest and the trajectory included.
    ref, tgt, out = tmp_path / "c8.json", tmp_path / "c8x.json", tmp_path / "run"
    save_template(circle(2.0, n=8), ref)
    save_template(circle(10.0, n=8), tgt)
    code = main(["match", str(ref), str(tgt), "--h", "1e100", "--capture-every", "1",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "failed after 0 iterations: step too large (non-finite state" in captured.out
    assert "error:" not in captured.err
    for name in ("result.json", "residuals.csv", "manifest.json", "trajectory.csv", "frames.svg"):
        assert (out / name).exists(), name
    result = json.loads((out / "result.json").read_text())
    assert result["p0"] == [[0.0, 0.0]] * 8 and result["H"] == 0.0


@pytest.mark.parametrize(
    "argv, names",
    [
        (["square", "--side", "1e-320"], "square(side=1e-320"),
        (["circle", "--radius", "1e308", "--shift-x", "1e308"], "circle(radius=1e+308"),
    ],
)
def test_shape_parameters_giving_bad_landmarks_exit_2(tmp_path, capsys, argv, names):
    out = tmp_path / "s.json"
    code = main(["shapes", *argv, "--n", "8", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {names}") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["square", "--side", "1e308"], 2, "error: square(side=1e+308, n=64): invalid template"),
        (["circle", "--radius", "1e308", "--n", "8"], 0, None),
        (["circle", "--radius", "1e308", "--n", "64"], 0, None),
    ],
    ids=["square", "circle", "circle-n64"],
)
def test_shapes_near_the_float_limit_print_no_numpy_warning(tmp_path, argv, code, error):
    """A square of side 1e308 overflows in its generator and is bad input;
    a circle of radius 1e308 is a valid template whose distances overflow,
    in a broadcast subtraction at n = 8 and in the BLAS product at n = 64.
    None prints a numpy warning, in a fresh interpreter."""
    done = _fresh_cli(["shapes", *argv, "--out", tmp_path / "s.json"])
    assert done.returncode == code, done.stderr
    if error is None:
        assert done.stderr == ""
    else:
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(error), done.stderr


def test_non_utf8_template_exits_2(tmp_path, pair, capsys):
    ref, _ = pair
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00bad")
    code = main(["match", str(ref), str(binary), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read template {binary}") and len(err.splitlines()) == 1


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    # A landmark count too large to allocate; simulated, never allocated.
    def too_large(*args):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "circle", too_large)
    code = main(["shapes", "circle", "--n", "100000000000", "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert capsys.readouterr().err == "error: Unable to allocate 745. GiB\n"


def test_output_under_a_regular_file_exits_2_before_the_run(tmp_path, pair, capsys, monkeypatch):
    # The prediction match would fail (exit 1) after its work; the bad
    # output path is reported first.
    ref, tgt = pair
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    monkeypatch.setattr(cli, "predict", lambda *a: pytest.fail("the run started"))
    code = main(["predict", str(ref), str(tgt), "--t-match", "0.5", "--t-predict", "1",
                 "--out", str(taken / "sub")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: --out {taken / 'sub'}")


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


@pytest.mark.parametrize("command, overwritten, flags", [
    ("predict", "predicted.json", ["--t-match", "0.5", "--t-predict", "1.0"]),
    ("match", "result.json", []),
])
def test_manifest_digests_an_input_as_it_was_before_the_run(
    tmp_path, pair, monkeypatch, command, overwritten, flags
):
    """An input that one of the run's outputs replaces is recorded with
    the digest of its own bytes, not the output's."""
    ref, tgt = pair
    monkeypatch.chdir(tmp_path)
    ref.rename(overwritten)
    before = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
              for name in (overwritten, str(tgt))}
    assert main([command, overwritten, str(tgt), *flags, *QUICK, "--out", "."]) == 0
    assert hashlib.sha256(Path(overwritten).read_bytes()).hexdigest() != before[overwritten]
    assert json.loads(Path("manifest.json").read_text())["inputs"] == before


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


def test_cluster_runs_its_five_matches_in_lockstep(tmp_path, shapes8):
    out = tmp_path / "cluster"
    code = main(["cluster", shapes8["c8"], shapes8["c8-large"], "--refs", shapes8["s8"],
                 shapes8["h8"], "--pair-threshold", "100", "--ref-diff-threshold", "100",
                 "--out", str(out)])
    assert code == 0
    evidence = json.loads((out / "verdict.json").read_text())["evidence"]
    assert [e["iterations"] for e in evidence] == [18, 19, 18, 22, 21]


def test_cluster_preprocess_rejects_a_template_of_zero_extent(tmp_path, capsys):
    # One landmark each: centred, every template has zero RMS radius.
    paths = []
    for label in ("a", "b", "r1", "r2"):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"label": label, "points": [[0.0, 0.0]]}))
        paths.append(str(path))
    code = main(["cluster", *paths[:2], "--refs", *paths[2:], "--pair-threshold", "1",
                 "--ref-diff-threshold", "1", "--preprocess", "--out", str(tmp_path / "cl")])
    assert code == 2
    assert capsys.readouterr().err == "error: template 'a' has zero extent\n"


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


def test_sweep_pins_the_conical_grid(tmp_path):
    # The h = 0.4 cells converge; the h = 2.5 cells diverge, left blank.
    out = tmp_path / "sweep"
    code = main(["sweep", "--n", "8", "--alpha2", "0.5", "1", "--h-values", "0.4", "2.5",
                 "--tol", "1e-3", "--out", str(out)])
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        cells = {(row["alpha2"], row["h"]): row["iterations"] for row in csv.DictReader(fh)}
    assert cells == {("0.5", "0.4"): "31", ("1", "0.4"): "27", ("0.5", "2.5"): "",
                     ("1", "2.5"): ""}


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


def _run_files(out: Path) -> dict:
    """A run's output files by name; manifests without their wall time."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            doc = json.loads(path.read_text())
            del doc["wall_time_s"]
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


def test_consecutive_main_calls_write_what_lone_runs_write(tmp_path, monkeypatch):
    """``main`` parses with one parser per process: each call of a
    sequence writes the files the same call writes alone in a fresh
    interpreter, so no flag or default of one call reaches the next."""
    small = ["--n", "8", "--h-values", "0.8", "--tol", "1e-3", "--max-iter", "60"]
    runs = {
        "sweep-alpha2": ["sweep", *small, "--alpha2", "0.5", "1.5"],
        "sweep-default": ["sweep", *small],
        "match-no-normalized": ["match", "ref.json", "tgt.json", *QUICK, "--no-normalized"],
        "match-default": ["match", "ref.json", "tgt.json", *QUICK],
    }
    together, alone = tmp_path / "together", tmp_path / "alone"
    for cwd in (together, alone):
        cwd.mkdir()
        save_template(circle(1.0, n=8, label="c"), cwd / "ref.json")
        save_template(ellipse_rot_shift(1.3, 0.9, 0.0, (0.1, 0.0), n=8, label="e"),
                      cwd / "tgt.json")

    for name, argv in runs.items():
        done = _fresh_cli([*argv, "--out", name], cwd=alone)
        assert done.returncode == 0, done.stderr

    monkeypatch.chdir(together)
    parser = cli._parser()
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in runs.items():
            assert main([*argv, "--out", name]) == 0
    assert cli._parser() is parser
    assert cli.build_parser() is not cli.build_parser()
    for name in runs:
        assert _run_files(together / name) == _run_files(alone / name), name
    # Each flag changes its run's files, so a leaked flag would show above.
    for first, second in (("sweep-alpha2", "sweep-default"),
                          ("match-no-normalized", "match-default")):
        assert _run_files(together / first) != _run_files(together / second)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))


# The property test over the CLI draws every flag's value from one of
# three pools: good values, edge values whose exit code depends on the
# run (1e308 and 1e-320 where they are in range), and bad values, which
# must exit 2 whatever else is drawn.  Sizes stay small: N <= 16,
# --max-iter <= 5 and --steps <= 20.
_POSITIVE = {"good": ["0.5", "1"], "edge": ["1e308", "1e-320"],
             "bad": ["nan", "inf", "-inf", "0", "-1"]}
_FINITE = {"good": ["0", "0.5"], "edge": ["1e308", "1e-320"], "bad": ["nan", "inf"]}
_SHOOTING_FLAGS = {
    "--kernel": {"good": ["conical", "gaussian", "bessel"], "bad": ["cubic"]},
    "--nu": {"good": ["2.5", "3"], "edge": ["1", "1e308"], "bad": ["nan", "inf", "0", "-1"]},
    "--alpha": {"good": ["0.8", "1"], "bad": ["nan", "inf", "0", "-1", "1e308", "1e-320"]},
    "--h": _POSITIVE,
    "--eps": _POSITIVE,
    "--max-iter": {"good": ["1", "5"], "bad": ["0", "-1", "2.5", "x"]},
    "--steps": {"good": ["5", "20"], "bad": ["0", "-2", "2.5"]},
    "--t-final": _POSITIVE,
    "--sigma2": {"good": ["0", "0.1"], "edge": ["1e308", "1e-320"],
                 "bad": ["nan", "inf", "-1"]},
    "--update": {"good": ["velocity", "momentum"], "bad": ["both"]},
    "--norm": {"good": ["max", "l2"], "bad": ["linf"]},
}
_COUNT = {"good": ["8", "16"], "edge": ["5", "6"], "bad": ["2", "0", "-3", "8.5", "x"]}
_SHAPE_PARAMS = {"radius": _POSITIVE, "r": _POSITIVE, "a": _POSITIVE, "b": _POSITIVE,
                 "side": _POSITIVE, "angle": _FINITE, "shift_x": _FINITE, "shift_y": _FINITE}
_TEMPLATES = {"good": ["c8.json", "e8.json"],
              "bad": ["missing.json", "truncated.json", "binary.json", "list.json",
                      "coincident.json", "huge-int.json"]}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A directory holding the property test's template files, good and
    bad, and ``file``, a regular file that no path can pass through."""
    root = tmp_path_factory.mktemp("cli-inputs")
    save_template(circle(1.0, n=8, label="c"), root / "c8.json")
    save_template(ellipse_rot_shift(1.3, 0.9, 0.0, (0.1, 0.0), n=8, label="e"),
                  root / "e8.json")
    text = (root / "c8.json").read_text()
    (root / "truncated.json").write_text(text[: len(text) // 2])
    (root / "binary.json").write_bytes(b"\xff\xfe\x00bad")
    (root / "list.json").write_text("[[0, 0], [1, 0]]")
    points = circle(1.0, n=8).points.tolist()
    points[5] = points[1]
    (root / "coincident.json").write_text(json.dumps({"points": points}))
    (root / "huge-int.json").write_text('{"points": [[1' + "0" * 400 + ", 0], [0, 1]]}")
    (root / "file").write_text("a regular file\n")
    return root


@st.composite
def _cli_draw(draw, root):
    """argv for one subcommand, and the set of value kinds it holds."""
    kinds = set()

    def pick(pool):
        kind = draw(st.sampled_from(["good"] * 6 + [k for k in ("edge", "bad") if k in pool]))
        kinds.add(kind)
        return draw(st.sampled_from(pool[kind]))

    def template():
        return str(root / pick(_TEMPLATES))

    def options(flags):
        if not flags:
            return []
        chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=4, unique=True))
        return [f"{flag}={pick(flags[flag])}" for flag in chosen]

    command = draw(st.sampled_from(["shapes", "match", "predict", "distance",
                                    "cluster", "sweep"]))
    bad_out = draw(st.sampled_from([False] * 6 + [True]))
    kinds.add("bad" if bad_out else "good")
    out = root / "file" / "out" if bad_out else root / f"out-{command}"
    if command == "shapes":
        name = pick({"good": ["circle", "ellipse", "rotated-ellipse", "heart4", "square",
                              "hybrid"], "bad": ["triangle"]})
        # Only the generator's own parameters; it ignores the others.
        params = cli._SHAPES[name][1] if name in cli._SHAPES else ()
        flags = {"--" + p.replace("_", "-"): _SHAPE_PARAMS[p] for p in params if p != "n"}
        argv = ["shapes", name, *options(flags), "--n=" + pick(_COUNT), f"--out={out}.json"]
        return argv, kinds

    def shooting():
        return ["--max-iter=" + pick(_SHOOTING_FLAGS["--max-iter"]),
                "--steps=" + pick(_SHOOTING_FLAGS["--steps"]),
                *options({k: v for k, v in _SHOOTING_FLAGS.items()
                          if k not in ("--max-iter", "--steps")})]

    if command in ("match", "distance"):
        argv = [command, template(), template(), *shooting()]
        if command == "match":
            argv.append("--capture-every=" + pick({"good": ["0", "2"], "bad": ["-1"]}))
    elif command == "predict":
        argv = ["predict", template(), template(), *shooting(),
                "--t-match=" + pick({"good": ["0.5"], "bad": ["0", "1", "nan", "-1"]}),
                "--t-predict=" + pick({"good": ["0.5", "1"],
                                       "bad": ["nan", "inf", "0.25", "1e308"]})]
    elif command == "cluster":
        argv = ["cluster", template(), template(), "--refs", template(), template(),
                "--pair-threshold=" + pick(_POSITIVE),
                "--ref-diff-threshold=" + pick(_POSITIVE), *shooting()]
    else:
        argv = ["sweep", "--max-iter=" + pick(_SHOOTING_FLAGS["--max-iter"]),
                "--alpha2", pick(_POSITIVE), "--h-values", pick(_POSITIVE),
                *options({"--kernel": _SHOOTING_FLAGS["--kernel"], "--tol": _POSITIVE})]
        # --n sizes only the built-in pair.
        if draw(st.booleans()):
            argv += ["--reference", template(), "--target", template()]
        else:
            argv.append("--n=" + pick(_COUNT))
    return [*argv, f"--out={out}"], kinds


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_cli_exits_cleanly_on_any_input(cli_inputs, data):
    """Whatever the argv, main returns or exits with 0, 1 or 2 and prints
    no traceback; any bad value exits 2."""
    argv, kinds = data.draw(_cli_draw(cli_inputs), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if "bad" in kinds:
        assert code == 2, err.getvalue()
    elif "edge" in kinds:
        assert code in (0, 1, 2), err.getvalue()
    else:
        assert code in (0, 1), err.getvalue()
