"""Serialization round trips and file format pins."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geoshoot
from geoshoot import (
    ConfigurationError,
    EvolveConfig,
    KernelFamily,
    ParticleState,
    RunManifest,
    ShootingConfig,
    SweepGrid,
    circle,
    heart4,
    load_template,
    match,
    match_result_to_dict,
    save_match_result,
    save_template,
    write_manifest,
    write_sweep_csv,
    write_trajectory_csv,
)
from geoshoot.analysis import DIVERGED
from geoshoot.io import (
    MANIFEST_SCHEMA,
    RESULT_SCHEMA,
    TEMPLATE_SCHEMA,
    config_echo,
    sha256_digest,
    template_from_dict,
    write_residual_csv,
)


def test_template_round_trip(tmp_path):
    original = heart4(n=16, label="h16")
    path = save_template(original, tmp_path / "h.json")
    loaded = load_template(path)
    assert loaded.label == "h16"
    np.testing.assert_array_equal(loaded.points, original.points)
    doc = json.loads(path.read_text())
    assert doc["schema"] == TEMPLATE_SCHEMA


def test_loader_rejects_unknown_schema(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"schema": "geoshoot.template/99", "points": [[0, 0]]}))
    with pytest.raises(ConfigurationError, match="unknown schema"):
        load_template(path)


def test_loader_accepts_untagged_documents():
    t = template_from_dict({"points": [[0.0, 0.0], [1.0, 0.0]], "label": "bare"})
    assert t.label == "bare"
    assert t.n == 2


def test_loader_reports_missing_points(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"schema": TEMPLATE_SCHEMA, "label": "no-points"}))
    with pytest.raises(ConfigurationError, match="points"):
        load_template(path)


@pytest.mark.parametrize(
    "points", [[[0, "a"], [1, 1]], [[0, {"x": 1}], [1, 1]], [[0, 0, 0]]]
)
def test_loader_reports_bad_points(tmp_path, points):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"points": points}))
    with pytest.raises(ConfigurationError, match="invalid template points"):
        load_template(path)


def test_loader_reports_bad_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_template(bad)
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_template(tmp_path / "absent.json")
    top_level_list = tmp_path / "list.json"
    top_level_list.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="must be an object"):
        load_template(top_level_list)


def test_loader_reports_undecodable_and_unparsable_files(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(ConfigurationError, match="cannot read template"):
        load_template(binary)
    # An integer past Python's digit limit, and nesting past its
    # recursion limit, are malformed JSON too.
    for name, text in (("digits.json", '{"points": ' + "1" * 5000 + "}"),
                       ("deep.json", "[" * 100_000)):
        (tmp_path / name).write_text(text)
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_template(tmp_path / name)
    huge = tmp_path / "huge.json"
    huge.write_text('{"points": [[1' + "0" * 400 + ", 0], [0, 1]]}")
    with pytest.raises(ConfigurationError, match="invalid template points"):
        load_template(huge)


def _small_result():
    ref = circle(1.0, n=6)
    tgt = circle(1.2, n=6)
    cfg = ShootingConfig(h=0.5, epsilon=1e-5, evolve=EvolveConfig(steps=30))
    return match(ref, tgt, cfg), cfg


def test_match_result_document_keys(tmp_path):
    result, cfg = _small_result()
    path = save_match_result(result, tmp_path / "r.json", cfg)
    doc = json.loads(path.read_text())
    assert doc["schema"] == RESULT_SCHEMA
    assert doc["converged"] is True
    assert doc["iterations"] == result.iterations
    assert len(doc["residual_history"]) == result.iterations
    assert np.asarray(doc["p0"]).shape == (6, 2)
    assert doc["H"] == result.hamiltonian
    assert doc["final_label"] == "circle(r=1)>circle(r=1.2)"
    assert "diagnosis" not in doc
    assert doc["config"]["h"] == 0.5
    assert doc["config"]["system"]["kernel"]["family"] == "conical"


def test_failed_result_document_carries_diagnosis():
    result, cfg = _small_result()
    capped = match(
        circle(1.0, n=6), heart4(n=6),
        ShootingConfig(h=0.1, epsilon=1e-9, max_iter=2, evolve=EvolveConfig(steps=30)),
    )
    doc = match_result_to_dict(capped)
    assert doc["converged"] is False
    assert "cap" in doc["diagnosis"]
    assert "config" not in doc


def test_residual_csv_layout(tmp_path):
    path = write_residual_csv([0.5, 0.25, 0.125], tmp_path / "r.csv")
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["iteration", "stopping_norm"]
    assert rows[1] == ["1", "0.5"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]


def test_trajectory_csv_layout(tmp_path):
    state = ParticleState(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
    frames = [(0.0, state), (0.5, state)]
    path = write_trajectory_csv(frames, tmp_path / "t.csv")
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["t", "i", "qx", "qy", "px", "py"]
    assert rows[1] == ["0", "0", "1", "2", "3", "4"]
    assert rows[2][0] == "0.5"
    assert len(rows) == 3


def test_sweep_csv_blanks_diverged_cells(tmp_path):
    grid = SweepGrid(
        alpha2_values=(0.5, 1.0, 0.1234567), h_values=(0.4, 1.5), n_landmarks=8
    )
    matrix = np.array([[12, DIVERGED], [9, 4], [7, 5]])
    path = write_sweep_csv(grid, matrix, tmp_path / "s.csv")
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["alpha2", "h", "iterations", "converged"]
    assert rows[1] == ["0.5", "0.4", "12", "true"]
    assert rows[2] == ["0.5", "1.5", "", "false"]
    assert rows[4] == ["1", "1.5", "4", "true"]
    # Every grid value reads back exactly, not rounded to 6 digits.
    assert rows[5] == ["0.1234567", "0.4", "7", "true"]


def test_config_echo_is_json_ready():
    cfg = ShootingConfig(h=0.3, evolve=EvolveConfig(steps=50))
    echo = config_echo(cfg)
    json.dumps(echo)
    assert echo["norm"] == "max"
    assert echo["evolve"]["steps"] == 50
    assert echo["system"]["sigma2"] == 0.0


def test_manifest_document(tmp_path):
    data = tmp_path / "input.json"
    data.write_text("{}")
    manifest = RunManifest(
        command="geoshoot match --h 0.3",
        version="0.1.0",
        config={"h": 0.3, "family": KernelFamily.CONICAL},
        inputs={str(data): sha256_digest(data)},
        wall_time_s=1.25,
        outcome="converged",
        extras={"note": np.float64(2.0)},
    )
    path = write_manifest(manifest, tmp_path / "m.json")
    doc = json.loads(path.read_text())
    assert doc["schema"] == MANIFEST_SCHEMA
    assert doc["command"].startswith("geoshoot match")
    assert doc["config"]["family"] == "conical"
    assert doc["extras"]["note"] == 2.0
    assert list(doc["inputs"].values()) == [sha256_digest(data)]


def test_sha256_digest_matches_known_value(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"abc")
    assert sha256_digest(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


_DIGEST_INPUTS = {
    "empty": b"",
    "one-byte": b"\x00",
    "one-chunk": bytes(range(256)) * 256,
    "one-chunk-and-a-byte": bytes(range(256)) * 256 + b"\x01",
    "not-utf8": b"\xff\xfe\x00bad\x80",
}


@pytest.mark.parametrize("name", _DIGEST_INPUTS)
def test_sha256_digest_equals_hashlib(tmp_path, name):
    """The built-in hash gives hashlib's digest, at the reader's 65,536-byte
    chunk boundary too."""
    data = _DIGEST_INPUTS[name]
    path = tmp_path / name
    path.write_bytes(data)
    assert sha256_digest(path) == hashlib.sha256(data).hexdigest()


def test_sha256_digest_falls_back_to_hashlib(tmp_path):
    """An interpreter without CPython's built-in SHA-256 modules digests
    through hashlib, to the same values."""
    for name, data in _DIGEST_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    src = str(Path(geoshoot.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None",
        "from geoshoot.io import sha256_digest",
        "for path in sys.argv[1:]:",
        "    print(sha256_digest(path))",
        "assert '_hashlib' in sys.modules",
    ])
    paths = [str(tmp_path / name) for name in _DIGEST_INPUTS]
    done = subprocess.run(
        [sys.executable, "-c", code, *paths],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [hashlib.sha256(d).hexdigest() for d in _DIGEST_INPUTS.values()]
