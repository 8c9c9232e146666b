"""Span tracing of geoshoot's layers, installed from outside the package.

Every module-level name through which one module calls a function of
another geoshoot module (``geoshoot.integrator.rhs``,
``geoshoot.shooting.evolve``, ``geoshoot.cli.save_match_result``, ...)
is replaced by a wrapper that records a span: callee, start, end and the
enclosing span.  ``ParticleState`` and ``LandmarkTemplate`` construction
validates its input, which is real work of the particles and shapes
layers, so those two class bindings are wrapped too; the other classes
(configs, enums, exceptions) are used as types and are left alone.  The
benchmark's own bindings in ``workloads`` are wrapped the same way, with
caller ``bench``.

A span belongs to the layer of its callee.  Self time is a span's
duration minus the time covered by its child spans.  Spans are kept in
flat arrays and written out once, by ``save``.
"""

from __future__ import annotations

import array
import functools
import time
import types
from pathlib import Path

import numpy as np

LAYERS = ("kernels", "particles", "integrator", "shooting", "analysis", "shapes",
          "io", "svg", "cli")
CONSTRUCTORS = ("ParticleState", "LandmarkTemplate")


def _layer(obj) -> str | None:
    parts = getattr(obj, "__module__", "").split(".")
    if len(parts) == 2 and parts[0] == "geoshoot" and parts[1] in LAYERS:
        return parts[1]
    return None


def _steps(args) -> int:
    cfg = args[2] if len(args) > 2 else None
    return 100 if cfg is None else cfg.steps  # EvolveConfig's default grid


def _account(counts: dict, callee: str, caller: str, args, result) -> None:
    """Operation counts taken at the layer boundary from arguments and results."""
    if callee == "particles.rhs":
        counts["particles.pair_terms"] += args[1].q.shape[0] ** 2
    elif callee in ("kernels.kernel_value", "kernels.kernel_derivative"):
        counts["kernels.evals"] += np.size(args[1])
    elif callee == "kernels.gram_matrix":
        counts["kernels.evals"] += len(args[1]) ** 2
    elif callee == "integrator.evolve":
        counts["integrator.steps"] += _steps(args)
        if caller == "shooting":
            counts["shooting.shoots"] += 1
    elif callee in ("shooting.match", "shooting.newton_match"):
        counts["shooting.solves"] += 1
        counts["shooting.iterations"] += result.iterations
    elif callee.startswith("io.") and isinstance(result, Path):
        counts["io.bytes_written"] += result.stat().st_size


class Tracer:
    """Wraps the bindings of the given caller modules while installed."""

    def __init__(self, callers: dict):
        self.callers = callers  # caller name -> module
        self.bindings = []  # (caller, attribute, callee)
        self.name_ids = {}
        self.calls = []
        self.total = []
        self.self_time = []
        self.counts = dict.fromkeys((
            "particles.pair_terms", "kernels.evals", "integrator.steps",
            "shooting.shoots", "shooting.solves", "shooting.iterations",
            "io.bytes_written"), 0)
        self.span_name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []  # open span indices
        self._inner = []  # child time covered so far, per open span
        self._saved = []

    def install(self) -> None:
        for caller, module in self.callers.items():
            for attr, obj in list(vars(module).items()):
                layer = _layer(obj)
                if layer is None or module.__name__ == obj.__module__:
                    continue
                constructor = isinstance(obj, type) and obj.__name__ in CONSTRUCTORS
                if not (isinstance(obj, types.FunctionType) or constructor):
                    continue
                callee = f"{layer}.{obj.__name__}"
                self.bindings.append((caller, attr, callee))
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, caller, callee))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def _wrap(self, func, caller: str, callee: str):
        key = f"{caller}:{callee}"
        if key not in self.name_ids:
            self.name_ids[key] = len(self.calls)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        name_id = self.name_ids[key]
        clock = time.perf_counter
        stack, inner = self._stack, self._inner

        @functools.wraps(func, updated=())
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            inner.append(0.0)
            self.start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                self.end[idx] = t1
                duration = t1 - self.start[idx]
                stack.pop()
                covered = inner.pop()
                if inner:
                    inner[-1] += duration
                self.calls[name_id] += 1
                self.total[name_id] += duration
                self.self_time[name_id] += duration - covered
            _account(self.counts, callee, caller, args, result)
            return result

        return traced

    def by_name(self) -> dict:
        """name -> (calls, total_s, self_s) for every wrapped binding, called or not."""
        return {k: (self.calls[i], self.total[i], self.self_time[i])
                for k, i in self.name_ids.items()}

    def layer_sums(self) -> tuple:
        """Per-layer calls and self seconds, with every layer present."""
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for key, (n, _, s) in self.by_name().items():
            layer = key.split(":")[1].split(".")[0]
            calls[layer] += n
            self_s[layer] += s
        return calls, self_s

    def top_level_s(self) -> float:
        """Time covered by spans with no parent, computed from the span arrays."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        top = np.frombuffer(self.parent, dtype=np.int32) < 0
        return float(np.sum(end[top] - start[top]))

    def save(self, path: Path) -> None:
        names = sorted(self.name_ids, key=self.name_ids.get)
        np.savez_compressed(
            path,
            names=np.array(names),
            bindings=np.array([f"{c}.{a} -> {e}" for c, a, e in self.bindings]),
            calls=np.array(self.calls),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
