"""Minimal hand-rolled SVG output for sweeps and trajectory frames.

Self-contained text, no plotting dependency: the figures these mirror
are static, and diffable markup beats a binary image for regression
checks.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .analysis import DIVERGED, SweepGrid

__all__ = ["heatmap_svg", "frames_svg", "save_svg"]

_CELL = 56  # px, side of one heatmap cell
_FRAME = 480  # px, side of the square frames figure


def _esc(text: str) -> str:
    return (
        str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def heatmap_svg(grid: SweepGrid, matrix: np.ndarray) -> str:
    """Gray-level map of a convergence sweep.

    Gray level is proportional to the iteration count (fast cells dark,
    slow cells light, capped short of white so the slowest converged
    cell never reads as divergent); diverged cells are white and marked
    with a cross, mirroring the usual tabulation.
    """
    rows, cols = matrix.shape
    left, top = 70, 34
    width = left + cols * _CELL + 16
    height = top + rows * _CELL + 46
    converged = matrix[matrix != DIVERGED]
    vmax = int(converged.max()) if converged.size else 1

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="18">iterations to convergence '
        f"({_esc(grid.kernel_family.value)} kernel, N={grid.n_landmarks}, "
        f"tol={grid.tolerance:g})</text>",
    ]
    for j, h in enumerate(grid.h_values):
        parts.append(
            f'<text x="{left + j * _CELL + _CELL / 2:.0f}" y="{top - 6}" '
            f'text-anchor="middle">h={h:g}</text>'
        )
    for i, alpha2 in enumerate(grid.alpha2_values):
        parts.append(
            f'<text x="{left - 8}" y="{top + i * _CELL + _CELL / 2 + 4:.0f}" '
            f'text-anchor="end">a2={alpha2:g}</text>'
        )
        for j in range(cols):
            x, y = left + j * _CELL, top + i * _CELL
            value = int(matrix[i, j])
            if value == DIVERGED:
                fill, label, text_fill = "white", "x", "#444444"
            else:
                level = int(round(208 * value / vmax)) if vmax else 0
                fill = f"rgb({level},{level},{level})"
                label = str(value)
                text_fill = "white" if level < 112 else "black"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{fill}" stroke="#888888"/>'
            )
            parts.append(
                f'<text x="{x + _CELL / 2:.0f}" y="{y + _CELL / 2 + 4:.0f}" '
                f'text-anchor="middle" fill="{text_fill}">{label}</text>'
            )
    parts.append(
        f'<text x="{left}" y="{height - 14}">gray level proportional to '
        "iterations; white cross = diverged</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def frames_svg(frames) -> str:
    """Trajectory frames as one contour each, fading in with time."""
    pad = 28
    pts = np.vstack([state.q for _, state in frames])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    scale = (_FRAME - 2 * pad) / float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_FRAME}" height="{_FRAME}" '
        f'viewBox="0 0 {_FRAME} {_FRAME}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_FRAME}" height="{_FRAME}" fill="white"/>',
    ]
    n = len(frames)
    for k, (t, state) in enumerate(frames):
        opacity = 0.25 + 0.75 * (k / (n - 1)) if n > 1 else 1.0
        # SVG y grows downward; flip so the plot keeps math orientation.
        x = pad + (state.q[:, 0] - lo[0]) * scale
        y = _FRAME - pad - (state.q[:, 1] - lo[1]) * scale
        coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polygon points="{coords}" fill="none" stroke="#1f6f8b" '
            f'stroke-opacity="{opacity:.3f}"/>'
        )
        parts.extend(
            f'<circle cx="{a:.2f}" cy="{b:.2f}" r="1.5" '
            f'fill="#1f6f8b" fill-opacity="{opacity:.3f}"/>'
            for a, b in zip(x, y)
        )
        parts.append(
            f'<text x="{pad}" y="{16 + 14 * k}" fill="#1f6f8b" '
            f'fill-opacity="{opacity:.3f}">t={t:g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(markup: str, path) -> Path:
    path = Path(path)
    path.write_text(markup + "\n")
    return path
