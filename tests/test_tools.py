"""The equality harness and the mutation check in ``tools/`` stay runnable
as the package's private names move."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_source_occurs_once_in_its_file():
    """Each mutant still names a file and test files that exist, and a
    source string found exactly once; no mutant is run."""
    mutants = _tool("mutants").MUTANTS
    assert len(mutants) >= 8
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.source) == 1, m.name
        assert m.replacement != m.source, m.name
        assert m.tests and all((ROOT / t).is_file() for t in m.tests), m.name


def test_digests_of_this_tree_equal_its_own():
    """``tools/digests.py --against`` this checkout computes every digest
    in two fresh interpreters and finds them equal."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digests.py"), "--against", str(ROOT)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert '"differ": []' in done.stdout
