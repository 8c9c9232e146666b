"""Mutation check: does the test suite catch a deliberately broken
pairwise pass, integrator or driver?

    python3 tools/mutants.py                # run every mutant
    python3 tools/mutants.py NAME [NAME..]  # run the named mutants
    python3 tools/mutants.py --list         # list the mutants

Each mutant is a file of this checkout, an exact source string that
occurs there once, its replacement, and the test files that must catch
it.  For each mutant the tool copies the checkout into a temporary
directory, applies the mutant to the copy and runs ``pytest -x -q`` on
the named test files there, with ``OPENBLAS_NUM_THREADS=1`` and the
copy's ``src/`` on the path.  It reports each mutant as killed, with
the id of the first failing test, or survived, and exits 1 unless
every mutant was killed.  The checkout itself is never edited.

A test added to pin an invariant comes with the mutant it kills.  A
mutant that survives stays in the list: it marks a gap in the tests.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    source: str  # occurs exactly once in ``path``
    replacement: str
    tests: tuple  # test files, relative to the checkout


KERNELS, PARTICLES = "src/geoshoot/kernels.py", "src/geoshoot/particles.py"
TEST_KERNELS, TEST_PARTICLES = "tests/test_kernels.py", "tests/test_particles.py"
TEST_SPLIT = "tests/test_split.py"

MUTANTS = (
    Mutant(
        "self-pass-later-blocks-take-every-column", KERNELS,
        "lo = 0 if others is not None else s", "lo = 0",
        (TEST_KERNELS, TEST_PARTICLES),
    ),
    Mutant(
        "product-rule-strict", KERNELS,
        "pts.size // 2 * n >= _PRODUCT_ENTRIES", "pts.size // 2 * n > _PRODUCT_ENTRIES",
        (TEST_KERNELS,),
    ),
    Mutant(
        "product-rule-counts-one-member", KERNELS,
        "rows.size // 2 * cols.shape[-2] < _PRODUCT_ENTRIES",
        "rows.shape[-2] * cols.shape[-2] < _PRODUCT_ENTRIES",
        (TEST_KERNELS,),
    ),
    Mutant(
        "product-block-ignores-its-row-offset", KERNELS,
        "ops[0][..., s:e, :] @ ops[1][..., lo:]", "ops[0][..., : e - s, :] @ ops[1][..., lo:]",
        (TEST_KERNELS,),
    ),
    Mutant(
        "coincident-keeps-the-diagonal", KERNELS,
        "dist.reshape(-1, size)[:, ::step] = 1.0", "pass",
        (TEST_KERNELS, TEST_PARTICLES),
    ),
    Mutant(
        "coincidence-error-names-a-local-index", KERNELS,
        'f"{noun} {s + i} and {s + j} coincide{suffix}"', 'f"{noun} {i} and {s + j} coincide{suffix}"',
        (TEST_PARTICLES,),
    ),
    Mutant(
        "every-spec-exact", KERNELS,
        "exact = all(math.frexp(d)[0] == 0.5 for d in k[:2])",
        "exact = True or all(math.frexp(d)[0] == 0.5 for d in k[:2])",
        (TEST_KERNELS, TEST_PARTICLES),
    ),
    Mutant(
        "gram-builds-the-slope", KERNELS,
        "values = _kernel_terms(spec, dist, slope=False)[0]",
        "values = _kernel_terms(spec, dist)[0]",
        (TEST_KERNELS,),
    ),
    Mutant(
        "rhs-dp-sign-flipped", PARTICLES,
        "np.subtract(a @ qs, row_sums * qe, out=rp)",
        "np.subtract(row_sums * qe, a @ qs, out=rp)",
        (TEST_PARTICLES,),
    ),
    Mutant(
        "worker-blocks-added-out-of-block-order", PARTICLES,
        """            for s, _ in spans[cut:]:
                pairs = pickle.load(self.replies)
                if pairs is None:
                    return None
                tq, tp = self.floats[at : at + 4 * b * (n - s)].reshape(2, b, n - s, 2)
                at += tq.size + tp.size
                dqc[:, s:] += tq
                dpc[:, s:] += tp
                found += pairs
""",
        """            terms = []
            for s, _ in spans[cut:]:
                pairs = pickle.load(self.replies)
                if pairs is None:
                    return None
                tq, tp = self.floats[at : at + 4 * b * (n - s)].reshape(2, b, n - s, 2)
                at += tq.size + tp.size
                terms.append((s, tq, tp))
                found += pairs
            for s, tq, tp in reversed(terms):
                dqc[:, s:] += tq
                dpc[:, s:] += tp
""",
        (TEST_SPLIT,),
    ),
    Mutant(
        "worker-blocks-drop-their-transposed-part", PARTICLES,
        """                dqc[:, s:] += tq
                dpc[:, s:] += tp
""",
        """                w = next(e for start, e in spans if start == s) - s
                dqc[:, s : s + w] += tq[:, :w]
                dpc[:, s : s + w] += tp[:, :w]
""",
        (TEST_SPLIT,),
    ),
    Mutant(
        "worker-clash-names-a-local-row", PARTICLES,
        "found += pairs", "found += [(m, i - s, j) for m, i, j in pairs]",
        (TEST_SPLIT,),
    ),
    Mutant(
        "caller-clashes-merged-after-the-worker", PARTICLES,
        """            found, at = _serial_pass(kernel, qc, pc, kc, spans[:cut], dqc, dpc), y.size
            for s, _ in spans[cut:]:
                pairs = pickle.load(self.replies)
                if pairs is None:
                    return None
                tq, tp = self.floats[at : at + 4 * b * (n - s)].reshape(2, b, n - s, 2)
                at += tq.size + tp.size
                dqc[:, s:] += tq
                dpc[:, s:] += tp
                found += pairs
            return found
""",
        """            head, at = _serial_pass(kernel, qc, pc, kc, spans[:cut], dqc, dpc), y.size
            found = []
            for s, _ in spans[cut:]:
                pairs = pickle.load(self.replies)
                if pairs is None:
                    return None
                tq, tp = self.floats[at : at + 4 * b * (n - s)].reshape(2, b, n - s, 2)
                at += tq.size + tp.size
                dqc[:, s:] += tq
                dpc[:, s:] += tp
                found += pairs
            return found + head
""",
        (TEST_SPLIT,),
    ),
    Mutant(
        "serial-pass-writes-later-blocks", PARTICLES,
        """        found += _block_terms(kernel, qc, pc, kc, s, e, dist, tq, tp)
        dqc[:, s:] += tq
""",
        """        found += _block_terms(kernel, qc, pc, kc, s, e, dist, tq, tp)
        dqc[:, s:] = tq
""",
        (TEST_PARTICLES,),
    ),
    Mutant(
        "later-blocks-report-inert-pairs", PARTICLES,
        "np.argwhere(coincident & (pdot != 0.0))",
        "np.argwhere(coincident & ((pdot != 0.0) | (s > 0)))",
        (TEST_SPLIT,),
    ),
    Mutant(
        "evolve-stack-merges-clashes-last-stage-first", "src/geoshoot/integrator.py",
        "{**c4, **c3, **c2, **c1}", "{**c1, **c2, **c3, **c4}",
        ("tests/test_integrator.py",),
    ),
    Mutant(
        "drive-shoots-mixed-problems", "src/geoshoot/shooting.py",
        "if len(shared) > 1:", "if False:",
        ("tests/test_shooting.py",),
    ),
    Mutant(
        "stopping-norm-without-h", "src/geoshoot/shooting.py",
        "return norm if self.exact else self.cfg.h * norm", "return norm",
        ("tests/test_shooting.py",),
    ),
)


def _first_failure(output: str) -> str:
    """The id of the first failing test in pytest's short summary."""
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag):].split(" - ")[0]
    return "(no test id in the output)"


def run(mutant: Mutant, workdir: Path) -> tuple[str, str]:
    """(verdict, detail) of one mutant, tested in a copy under ``workdir``."""
    tree = workdir / mutant.name
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-work"))
    target = tree / mutant.path
    text = target.read_text()
    if text.count(mutant.source) != 1:
        return "stale", f"source occurs {text.count(mutant.source)} times in {mutant.path}"
    target.write_text(text.replace(mutant.source, mutant.replacement))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode == 0:
        return "survived", ""
    return "killed", _first_failure(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}: {m.path}")
        return 0
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    verdicts = {}
    with tempfile.TemporaryDirectory(prefix="geoshoot-mutants-") as workdir:
        for mutant in chosen:
            verdict, detail = run(mutant, Path(workdir))
            verdicts[mutant.name] = verdict
            print(f"{verdict:8} {mutant.name}" + (f": {detail}" if detail else ""), flush=True)
    counts = {v: list(verdicts.values()).count(v) for v in ("killed", "survived", "stale")}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 0 if counts["killed"] == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
