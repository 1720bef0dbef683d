"""Per-entry reference implementations of matrix file I/O and SVG rendering.

These are the loop-per-entry versions that ``blocktrid.matio`` and
``blocktrid.render`` replaced with whole-array code.  The differential tests
in ``test_io_reference.py`` require the package to give the same strings,
the same values and the same parse errors as these functions.  They are
kept as they were, including two defects the package has since fixed:
non-finite entries are accepted, and non-integer sizes and indices are
truncated.
"""

from __future__ import annotations

import json
from typing import List

import numpy as np

from blocktrid.matio import MatrixParseError
from blocktrid.schedules import BlockIndex
from blocktrid.verify import DEFAULT_THRESHOLD

CELL = 12
FILL = "#2c5d8f"
GRID = "#d8d8d8"
BOUNDARY = "#b03030"


def _require_square(M: np.ndarray) -> np.ndarray:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MatrixParseError(f"matrix is {M.shape[0]}x{M.shape[1]}, not square")
    return M


def _parse_float(token: str, line: int, what: str = "number") -> float:
    try:
        return float(token)
    except ValueError:
        raise MatrixParseError(f"malformed {what} token {token!r}", line)


def _parse_complex_token(token: str, line: int) -> complex:
    text = token.strip().replace(" ", "")
    if not text:
        raise MatrixParseError("empty entry", line)
    if text[-1] in "iI":
        body = text[:-1]
        split = None
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                split = pos
                break
        if split is None:
            re_s, im_s = "0", body
        else:
            re_s, im_s = body[:split], body[split:]
        if im_s in ("", "+", "-"):
            im_s += "1"
        return complex(
            _parse_float(re_s, line, "real part"),
            _parse_float(im_s, line, "imaginary part"),
        )
    return complex(_parse_float(text, line), 0.0)


def _parse_mm(lines: List[str]) -> np.ndarray:
    if not lines:
        raise MatrixParseError("empty file", 1)
    header = lines[0].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise MatrixParseError(f"unsupported header {lines[0]!r}", 1)
    _, obj, layout, field, symmetry = (part.lower() for part in header)
    if obj != "matrix" or field != "complex" or symmetry != "general":
        raise MatrixParseError(f"unsupported header {lines[0]!r}", 1)
    if layout not in ("array", "coordinate"):
        raise MatrixParseError(f"unsupported layout {layout!r}", 1)

    body = [
        (idx + 1, line)
        for idx, line in enumerate(lines)
        if idx > 0 and line.strip() and not line.lstrip().startswith("%")
    ]
    if not body:
        raise MatrixParseError("missing size line", len(lines))
    size_line_no, size_line = body[0]
    size = size_line.split()

    if layout == "array":
        if len(size) != 2:
            raise MatrixParseError(f"expected 'rows cols', got {size_line!r}",
                                   size_line_no)
        rows = int(_parse_float(size[0], size_line_no, "row count"))
        cols = int(_parse_float(size[1], size_line_no, "column count"))
        entries = body[1:]
        if len(entries) != rows * cols:
            raise MatrixParseError(
                f"expected {rows * cols} entries, found {len(entries)}",
                size_line_no,
            )
        M = np.zeros((rows, cols), dtype=np.complex128)
        pos = 0
        for j in range(cols):          # array layout is column-major
            for i in range(rows):
                line_no, line = entries[pos]
                parts = line.split()
                if len(parts) != 2:
                    raise MatrixParseError(
                        f"expected 're im', got {line!r}", line_no
                    )
                M[i, j] = complex(
                    _parse_float(parts[0], line_no, "real part"),
                    _parse_float(parts[1], line_no, "imaginary part"),
                )
                pos += 1
        return _require_square(M)

    if len(size) != 3:
        raise MatrixParseError(f"expected 'rows cols nnz', got {size_line!r}",
                               size_line_no)
    rows, cols, nnz = (int(_parse_float(s, size_line_no, "size")) for s in size)
    entries = body[1:]
    if len(entries) != nnz:
        raise MatrixParseError(
            f"expected {nnz} entries, found {len(entries)}", size_line_no
        )
    M = np.zeros((rows, cols), dtype=np.complex128)
    seen = set()
    for line_no, line in entries:
        parts = line.split()
        if len(parts) != 4:
            raise MatrixParseError(f"expected 'i j re im', got {line!r}", line_no)
        i = int(_parse_float(parts[0], line_no, "row index"))
        j = int(_parse_float(parts[1], line_no, "column index"))
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixParseError(f"index ({i},{j}) out of range", line_no)
        if (i, j) in seen:
            raise MatrixParseError(f"duplicate entry ({i},{j})", line_no)
        seen.add((i, j))
        M[i - 1, j - 1] = complex(
            _parse_float(parts[2], line_no, "real part"),
            _parse_float(parts[3], line_no, "imaginary part"),
        )
    return _require_square(M)


def _parse_csv(lines: List[str]) -> np.ndarray:
    rows = []
    width = None
    for idx, line in enumerate(lines):
        if not line.strip():
            continue
        tokens = line.split(",")
        values = [_parse_complex_token(tok, idx + 1) for tok in tokens]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise MatrixParseError(
                f"row has {len(values)} entries, expected {width}", idx + 1
            )
        rows.append(values)
    if not rows:
        raise MatrixParseError("empty file", 1)
    return _require_square(np.array(rows, dtype=np.complex128))


def _parse_json(lines: List[str]) -> np.ndarray:
    text = "\n".join(lines)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON: {exc.msg}", exc.lineno)
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise MatrixParseError(f"missing key {key!r}", 1)
    rows, cols, data = payload["rows"], payload["cols"], payload["data"]
    if len(data) != rows:
        raise MatrixParseError(f"expected {rows} rows, found {len(data)}", 1)
    M = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if len(row) != cols:
            raise MatrixParseError(
                f"row {i + 1} has {len(row)} entries, expected {cols}", 1
            )
        for j, pair in enumerate(row):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise MatrixParseError(
                    f"entry ({i + 1},{j + 1}) is not a [re, im] pair", 1
                )
            M[i, j] = complex(float(pair[0]), float(pair[1]))
    return _require_square(M)


_PARSERS = {"mm": _parse_mm, "csv": _parse_csv, "json": _parse_json}


def parse_text(text: str, fmt: str) -> np.ndarray:
    """The reference ``parse_matrix`` on the text of a file."""
    return _PARSERS[fmt](text.splitlines())


def _g17(x: float) -> str:
    return "%.17g" % x


def _csv_token(value: complex) -> str:
    imag = _g17(value.imag)
    if not imag.startswith("-"):
        imag = "+" + imag
    return f"{_g17(value.real)}{imag}i"


def emit_matrix_text(M, fmt: str) -> str:
    M = np.asarray(M, dtype=np.complex128)
    rows, cols = M.shape
    if fmt == "mm":
        lines = ["%%MatrixMarket matrix array complex general", f"{rows} {cols}"]
        for j in range(cols):
            for i in range(rows):
                lines.append(f"{_g17(M[i, j].real)} {_g17(M[i, j].imag)}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        lines = [
            ", ".join(_csv_token(M[i, j]) for j in range(cols))
            for i in range(rows)
        ]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "rows": rows,
            "cols": cols,
            "data": [[[M[i, j].real, M[i, j].imag] for j in range(cols)]
                     for i in range(rows)],
        }
        return json.dumps(payload, sort_keys=True)
    raise ValueError(f"unknown format {fmt!r}")


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
