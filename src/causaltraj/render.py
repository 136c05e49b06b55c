"""SVG rendering of scenes: context, ground truth, and sampled futures."""

from __future__ import annotations

import numpy as np

from .data import COURT_X, COURT_Y, atomic_write
from .errors import ShapeError

AGENT_COLORS = ("#e8962d", "#2d66c8", "#c83a2d")  # ball, team_a, team_b
SCALE = 8.0
MARGIN = 12.0


def _pt(x: float, y: float) -> str:
    px = MARGIN + x * SCALE
    py = MARGIN + (COURT_Y - y) * SCALE
    return f"{px:.1f},{py:.1f}"


def _polyline(points: np.ndarray, color: str, width: float, opacity: float, dash: str = "") -> str:
    coords = " ".join(_pt(float(p[0]), float(p[1])) for p in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}" stroke-opacity="{opacity}"{dash_attr}/>'
    )


def render_scene(
    context: np.ndarray,
    categories: np.ndarray,
    future: np.ndarray | None = None,
    samples: list[np.ndarray] | None = None,
) -> str:
    """One scene as an SVG string.

    context [P, N, 2] and optional future [F, N, 2] are drawn per agent in
    team colors (future dashed); each sampled future [F, N, 2] is drawn as a
    thin translucent line continuing from the last context frame.
    """
    context = np.asarray(context, dtype=np.float64)
    if context.ndim != 3 or context.shape[-1] != 2:
        raise ShapeError(f"context must be [P, N, 2], got {context.shape}")
    N = context.shape[1]
    cats = np.asarray(categories, dtype=np.int64)
    if cats.shape != (N,):
        raise ShapeError(f"categories {cats.shape} do not match {N} agents")

    w = 2 * MARGIN + COURT_X * SCALE
    h = 2 * MARGIN + COURT_Y * SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="#fbf8f2"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{COURT_X * SCALE:.0f}" '
        f'height="{COURT_Y * SCALE:.0f}" fill="#f5ead8" stroke="#8a7b60"/>',
        f'<line x1="{MARGIN + COURT_X * SCALE / 2:.1f}" y1="{MARGIN}" '
        f'x2="{MARGIN + COURT_X * SCALE / 2:.1f}" y2="{MARGIN + COURT_Y * SCALE:.1f}" '
        f'stroke="#8a7b60"/>',
    ]
    anchor = context[-1]
    for n in range(N):
        color = AGENT_COLORS[cats[n]]
        if samples:
            for s in samples:
                path = np.concatenate([anchor[n][None], np.asarray(s)[:, n]], axis=0)
                parts.append(_polyline(path, color, 1.0, 0.25))
        parts.append(_polyline(context[:, n], color, 2.0, 0.9))
        if future is not None:
            path = np.concatenate([anchor[n][None], np.asarray(future)[:, n]], axis=0)
            parts.append(_polyline(path, color, 2.0, 0.9, dash="5,4"))
        cx, cy = _pt(float(anchor[n, 0]), float(anchor[n, 1])).split(",")
        r = 5.0 if cats[n] == 0 else 4.0
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def save_scene(path, *args, **kwargs) -> None:
    """Write :func:`render_scene`'s SVG to ``path``; a failed write keeps the old file."""
    with atomic_write(path, "w") as f:
        f.write(render_scene(*args, **kwargs))
        f.write("\n")
