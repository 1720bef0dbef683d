"""Static SVG rendering of sparsity patterns.

One filled cell per entry whose magnitude is not at most the threshold, a
NaN among them, as ``check_pattern`` and ``pattern_text`` read entries; with
block boundary gridlines when a schedule is supplied; the schedule must span
the matrix.  Output is a plain string, deterministic for identical inputs.

The cells come from one ``np.nonzero`` of the thresholded magnitudes, with
their opacities computed as one array expression relative to the largest
magnitude that is not NaN (from the halved entries when a magnitude
overflows to infinity); a NaN cell is drawn at full opacity.  Every group
of elements is written by filling one printf-style template per element in
a single formatting call.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .schedules import covering_index
from .verify import DEFAULT_THRESHOLD, require_finite

CELL = 12
FILL = "#2c5d8f"
GRID = "#d8d8d8"
BOUNDARY = "#b03030"


def _lines(template: str, *columns: list) -> str:
    """``template`` filled from each row of ``columns``, one line per row."""
    return (template + "\n") * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


def render_svg(M, schedule=None, threshold: float = DEFAULT_THRESHOLD) -> str:
    require_finite(threshold)
    M = np.asarray(M)
    rows, cols = M.shape
    width, height = cols * CELL, rows * CELL
    mags = np.abs(M)
    # fmax skips NaN, which has no size to scale the others by
    top = float(np.fmax.reduce(mags, axis=None, initial=0.0))

    i, j = np.nonzero(~(mags <= threshold))
    shown = mags[i, j]
    if np.isinf(top):
        # |z| overflows only within a factor sqrt(2) of the float limit, so
        # the ratios of the halved entries' magnitudes are all finite.
        halved = np.abs(M / 2)
        shown, top = halved[i, j], float(np.fmax.reduce(halved, axis=None, initial=0.0))
    opacity = 0.35 + 0.65 * (shown / top) if top > 0 else np.ones(shown.shape)
    opacity[np.isnan(shown)] = 1.0
    cells = _lines(
        f'<rect x="%d" y="%d" width="{CELL}" height="{CELL}" fill="{FILL}" '
        'fill-opacity="%.4f"/>',
        (j * CELL).tolist(), (i * CELL).tolist(), opacity.tolist(),
    )
    ys = list(range(0, height + 1, CELL))
    xs = list(range(0, width + 1, CELL))
    grid = _lines(
        f'<line x1="0" y1="%d" x2="{width}" y2="%d" stroke="{GRID}" stroke-width="0.5"/>',
        ys, ys,
    ) + _lines(
        f'<line x1="%d" y1="0" x2="%d" y2="{height}" stroke="{GRID}" stroke-width="0.5"/>',
        xs, xs,
    )
    boundaries = ""
    if schedule is not None:
        stops = covering_index(schedule, rows).stops
        pos = (stops[stops < rows] * CELL).tolist()
        boundaries = _lines(
            f'<line x1="0" y1="%d" x2="{width}" y2="%d" '
            f'stroke="{BOUNDARY}" stroke-width="1.5"/>\n'
            f'<line x1="%d" y1="0" x2="%d" y2="{height}" '
            f'stroke="{BOUNDARY}" stroke-width="1.5"/>',
            pos, pos, pos, pos,
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{cells}{grid}{boundaries}</svg>\n"
    )
