"""Static SVG rendering of sparsity patterns.

One filled cell per entry above the magnitude threshold, with block
boundary gridlines when a schedule is supplied.  Output is a plain string,
deterministic for identical inputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .schedules import BlockIndex
from .verify import DEFAULT_THRESHOLD

CELL = 12
FILL = "#2c5d8f"
GRID = "#d8d8d8"
BOUNDARY = "#b03030"


def render_svg(M, schedule=None, threshold: float = DEFAULT_THRESHOLD) -> str:
    M = np.asarray(M)
    rows, cols = M.shape
    width, height = cols * CELL, rows * CELL
    mags = np.abs(M)
    top = float(mags.max()) if mags.size else 0.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(rows):
        for j in range(cols):
            mag = mags[i, j]
            if mag > threshold:
                opacity = 0.35 + 0.65 * (mag / top) if top > 0 else 1.0
                parts.append(
                    f'<rect x="{j * CELL}" y="{i * CELL}" width="{CELL}" '
                    f'height="{CELL}" fill="{FILL}" '
                    f'fill-opacity="{opacity:.4f}"/>'
                )
    for k in range(rows + 1):
        y = k * CELL
        parts.append(
            f'<line x1="0" y1="{y}" x2="{width}" y2="{y}" '
            f'stroke="{GRID}" stroke-width="0.5"/>'
        )
    for k in range(cols + 1):
        x = k * CELL
        parts.append(
            f'<line x1="{x}" y1="0" x2="{x}" y2="{height}" '
            f'stroke="{GRID}" stroke-width="0.5"/>'
        )
    if schedule is not None:
        stops = BlockIndex(schedule, rows).stops
        for s in stops[stops < rows].tolist():
            pos = s * CELL
            parts.append(
                f'<line x1="0" y1="{pos}" x2="{width}" y2="{pos}" '
                f'stroke="{BOUNDARY}" stroke-width="1.5"/>'
            )
            parts.append(
                f'<line x1="{pos}" y1="0" x2="{pos}" y2="{height}" '
                f'stroke="{BOUNDARY}" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
