"""Render an unfolded net as a standalone SVG document.

Faces are filled polygons, hinges are drawn as interior fold lines, and each
vertex connection gets a circled marker at its coincident point.  Output is
deterministic: fixed decimal formatting, elements in canonical order, no
timestamps.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ValidationError, writing
from .geometry import NetLayout

_FACE_FILL = "#d9e8f5"
_FACE_STROKE = "#27415c"
_HINGE_STROKE = "#a33f3f"
_MARKER_STROKE = "#1f7a33"


def _fmt(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def export_svg(
    layout: NetLayout,
    path: Optional[Union[str, Path]] = None,
    scale: float = 100.0,
) -> bytes:
    """SVG bytes for a net, optionally written to a file.

    `scale` is drawing units per model unit, a finite positive number; the
    default maps edge length 1 to 100 units.  The y axis is flipped so the
    net appears as laid out.
    """
    real = isinstance(scale, (int, float, np.integer, np.floating)) and not isinstance(scale, bool)
    if not (real and math.isfinite(scale) and scale > 0):
        raise ValidationError(f"scale must be a finite positive number, got {scale!r}")
    if not layout.polygons:
        raise ValidationError("empty layout: nothing to draw")
    pts = np.vstack(layout.polygons)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    margin = 0.05 * float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))

    def place(p) -> tuple[float, float]:
        return (
            (float(p[0]) - float(lo[0]) + margin) * scale,
            (float(hi[1]) - float(p[1]) + margin) * scale,
        )

    width = (float(hi[0] - lo[0]) + 2 * margin) * scale
    height = (float(hi[1] - lo[1]) + 2 * margin) * scale
    stroke = 0.012 * scale
    radius = 0.08 * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<g fill="{_FACE_FILL}" stroke="{_FACE_STROKE}" stroke-width="{_fmt(stroke)}" '
        'stroke-linejoin="round">',
    ]
    for face_id, poly in enumerate(layout.polygons):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (place(p) for p in poly))
        lines.append(f'<polygon data-face="{face_id}" points="{coords}"/>')
    lines.append("</g>")

    lines.append(
        f'<g stroke="{_HINGE_STROKE}" stroke-width="{_fmt(stroke)}" '
        f'stroke-dasharray="{_fmt(0.06 * scale)} {_fmt(0.04 * scale)}">'
    )
    for parent, child, (u, v) in layout.hinges:
        poly = layout.polygons[parent]
        face = layout.spec.faces[parent]
        x1, y1 = place(poly[face.index(u)])
        x2, y2 = place(poly[face.index(v)])
        lines.append(
            f'<line data-hinge="{parent}:{child}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>'
        )
    lines.append("</g>")

    lines.append(
        f'<g fill="none" stroke="{_MARKER_STROKE}" stroke-width="{_fmt(stroke * 1.5)}">'
    )
    for marker in layout.markers:
        cx, cy = place(marker.point)
        lines.append(
            f'<circle data-vertex="{marker.vertex}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'r="{_fmt(radius)}"/>'
        )
    lines.append("</g>")
    lines.append("</svg>")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if path is not None:
        with writing(path):
            Path(path).write_bytes(data)
    return data
