"""The split pairwise pass: where a large ``_rhs`` pass has upper blocks
to share, a forked worker computes the last ones while the caller
computes the first, and the caller adds every block in block order.
Every bit, and every coincidence error, is the serial loop's."""

import contextlib
import io
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from geoshoot import EvolveConfig, KernelFamily, KernelSpec, ParticleState, SystemSpec, evolve
from geoshoot import cli, heart4, integrator, kernels, particles

SRC = str(Path(particles.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def split(monkeypatch):
    """A fresh worker, started by the first pass that splits (also on a
    host with one usable CPU), and the list of what its split calls
    returned: None is a call that fell back to the serial loop."""
    particles._stop_worker()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls = []
    split_chunk = particles._Worker.split

    def spied(self, *args):
        calls.append(split_chunk(self, *args))
        return calls[-1]

    monkeypatch.setattr(particles._Worker, "split", spied)
    yield calls
    particles._stop_worker()


def _serial(monkeypatch, run):
    """``run()`` with every pass on the serial loop."""
    with monkeypatch.context() as m:
        m.setattr(particles, "_SPLIT_SHARE", math.inf)
        return run()


def _bits(*arrays) -> list:
    return [np.asarray(a).tobytes() for a in arrays]


# N = 300 has 3 upper blocks and the worker takes the last 2; N = 512 has
# 8 and the worker takes the last 6.
@pytest.mark.parametrize("n, blocks, cut", [(300, 3, 1), (512, 8, 2)])
@pytest.mark.parametrize("family", list(KernelFamily))
def test_split_rhs_equals_the_serial_loop(n, blocks, cut, family, split, monkeypatch):
    """Stacks of two members, of equal and of mixed widths, sigma2 0 and
    0.3.  Member 0 has two interacting coincident pairs in two worker
    blocks, member 1 an inert one (zero momentum product) in the first:
    the clash names member 0's first pair, as the serial loop does, and
    every bit of (dq, dp) is the serial loop's."""
    spans = kernels._plan(n, n)[0]
    assert len(spans) == blocks
    assert particles._split_at(spans, n, particles._SPLIT_SHARE)[0] == cut
    first, last = spans[cut][0], spans[-1][0]
    rng = np.random.default_rng(n)
    q = heart4(n).points + 0.001 * rng.normal(size=(2, n, 2))
    p = rng.normal(size=(2, n, 2))
    q[0, n - 3], q[0, n - 1] = q[0, first + 5], q[0, last + 1]
    q[1, n - 5] = q[1, first + 7]
    p[1, first + 7, 1] = p[1, n - 5, 0] = 0.0  # (x, 0) . (0, y) is exactly 0
    message = f"particles {first + 5} and {n - 3} coincide with interacting momenta"
    for widths in ((1.0, 1.0), (1.0, math.sqrt(0.4))):
        specs = [KernelSpec(family=family, nu=2.5, alpha=a) for a in widths]
        for sigma2 in (0.0, 0.3):
            systems = [SystemSpec(s, sigma2) for s in specs]

            def run():
                with np.errstate(all="ignore"):
                    d, clashes = particles._rhs(
                        specs[0], particles._stack(q, p), particles._constants(systems)
                    )
                return _bits(d), {b: str(exc) for b, exc in clashes.items()}

            got, want = run(), _serial(monkeypatch, run)
            assert got == want, (widths, sigma2)
            assert list(got[1]) == [0] and got[1][0].startswith(message)
    assert len(split) == 2 * 2 * 2 and all(found is not None for found in split)
    assert particles._worker.pid is not None


def test_rhs_below_the_split_share_stays_serial(split):
    """N = 200 has two blocks, of 163 and 37 rows: no worker starts."""
    n = 200
    assert len(kernels._plan(n, n)[0]) == 2
    state = ParticleState(heart4(n).points, np.ones((n, 2)))
    particles.rhs(SystemSpec(), state)
    assert particles._worker is None and split == []


def _transport(n):
    rng = np.random.default_rng(7)
    return SystemSpec(), ParticleState(heart4(n).points, 0.3 * rng.normal(size=(n, 2)))


def test_a_worker_killed_between_calls_leaves_the_serial_bits(split, monkeypatch):
    """The worker dies before the third rhs call of an evolve: that call
    and every later one run serially, and the trajectory keeps its bits."""
    spec, state = _transport(300)
    cfg = EvolveConfig(t_final=0.1, steps=2, capture_every=1)
    want = _serial(monkeypatch, lambda: evolve(spec, state, cfg))
    calls, rhs = [], integrator._rhs

    def killing(*args):
        calls.append(None)
        if len(calls) == 3:
            os.kill(particles._worker.pid, signal.SIGKILL)
        return rhs(*args)

    monkeypatch.setattr(integrator, "_rhs", killing)
    got = evolve(spec, state, cfg)
    assert _bits(*(s.q for _, s in got.frames), *(s.p for _, s in got.frames)) == _bits(
        *(s.q for _, s in want.frames), *(s.p for _, s in want.frames)
    )
    assert split[:2] != [None, None] and split[2:] == [None]
    assert particles._worker.pid is None  # stopped and reaped


def test_a_worker_killed_during_a_pass_leaves_the_serial_bits(split, monkeypatch):
    """The worker dies while the caller computes its first block: the
    call recomputes its chunk serially."""
    spec, state = _transport(512)
    want = _serial(monkeypatch, lambda: particles.rhs(spec, state))
    particles.rhs(spec, state)  # starts the worker
    block_terms, armed = particles._block_terms, [True]

    def killing(*args):
        if armed[0]:
            armed[0] = False
            os.kill(particles._worker.pid, signal.SIGKILL)
            time.sleep(0.05)
        return block_terms(*args)

    monkeypatch.setattr(particles, "_block_terms", killing)
    assert _bits(*particles.rhs(spec, state)) == _bits(*want)
    assert split[0] is not None and split[1:] == [None] and not armed[0]


def test_worker_holds_only_its_pipes_and_exits_at_their_end(split):
    """stdin, stdout and stderr are os.devnull, its only other
    descriptors are its two pipes, and it exits once its request pipe
    ends, as it does when the caller dies."""
    spec, state = _transport(300)
    particles.rhs(spec, state)
    worker = particles._worker
    fd_dir = f"/proc/{worker.pid}/fd"
    fds = {int(fd): os.readlink(f"{fd_dir}/{fd}") for fd in os.listdir(fd_dir)}
    assert [fds.pop(fd) for fd in (0, 1, 2)] == [os.devnull] * 3
    assert len(fds) == 2 and all(target.startswith("pipe:") for target in fds.values())
    worker.requests.close()
    assert os.waitpid(worker.pid, 0)[1] == 0
    worker.pid = None


def test_a_cli_match_leaves_no_process_in_its_group(tmp_path):
    """``python -m geoshoot.cli match`` at N = 300, in a session of its
    own: its worker starts (a spy on os.fork names it on stderr), and
    once the run has exited nothing is left in its process group."""
    (tmp_path / "sitecustomize.py").write_text(
        "import os, sys\n"
        "fork = os.fork\n"
        "def spied():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        print('forked', pid, file=sys.stderr, flush=True)\n"
        "    return pid\n"
        "os.fork = spied\n"
    )
    env = {**ENV, "PYTHONPATH": os.pathsep.join([str(tmp_path), ENV["PYTHONPATH"]])}
    paths = [str(tmp_path / f"{shape}.json") for shape in ("circle", "heart4")]
    with contextlib.redirect_stdout(io.StringIO()):
        for shape, path in zip(("circle", "heart4"), paths):
            assert cli.main(["shapes", shape, "--n", "300", "--out", path]) == 0
    argv = ["match", *paths, "--steps", "4", "--max-iter", "2", "--out", str(tmp_path / "run")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "geoshoot.cli", *argv], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and "iteration cap reached" in out, out + err
    assert len(re.findall(r"^forked \d+$", err, re.M)) == 1, err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_one_usable_cpu_starts_no_worker():
    """Under a one-CPU affinity, set on a subprocess of its own, a pass
    that would split runs serially and forks nothing."""
    code = (
        "import os\n"
        "import numpy as np\n"
        "from geoshoot import ParticleState, SystemSpec, heart4, particles, rhs\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "rhs(SystemSpec(), ParticleState(heart4(1024).points, np.ones((1024, 2))))\n"
        "assert particles._worker is False, particles._worker\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child')\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == "no child\n", done.stderr
