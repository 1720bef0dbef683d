"""Matrix file formats: Matrix Market, CSV with complex tokens, JSON.

All emitters print floats with 17 significant digits, which round-trips
IEEE doubles exactly; parse -> emit -> parse is value-identical.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, TextIO, Union

import numpy as np

#: Every format with the extension its files are written under.
FORMAT_EXTENSIONS = {"mm": ".mtx", "csv": ".csv", "json": ".json"}
FORMATS = tuple(FORMAT_EXTENSIONS)

_EXTENSIONS = {
    ".mtx": "mm",
    ".mm": "mm",
    ".csv": "csv",
    ".json": "json",
}


class MatrixParseError(ValueError):
    """Malformed matrix file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def format_for_path(path: str) -> str:
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in _EXTENSIONS:
        raise MatrixParseError(
            f"cannot infer format from extension {ext!r}; pass one of {FORMATS}"
        )
    return _EXTENSIONS[ext]


def _read_lines(source: Union[str, TextIO]) -> List[str]:
    if hasattr(source, "read"):
        return source.read().splitlines()
    with open(source, "r") as handle:
        return handle.read().splitlines()


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


def parse_matrix(source: Union[str, TextIO], fmt: Optional[str] = None) -> np.ndarray:
    """Read a complex square matrix from a path or stream.

    ``fmt`` is one of 'mm', 'csv', 'json'; when omitted it is inferred from
    the path extension (.mtx/.mm, .csv, .json).
    """
    if fmt is None:
        if hasattr(source, "read"):
            raise MatrixParseError("format required when reading from a stream")
        fmt = format_for_path(source)
    if fmt not in FORMATS:
        raise MatrixParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    lines = _read_lines(source)
    if fmt == "mm":
        return _parse_mm(lines)
    if fmt == "csv":
        return _parse_csv(lines)
    return _parse_json(lines)


def _g17(x: float) -> str:
    return "%.17g" % x


def _csv_token(value: complex) -> str:
    imag = _g17(value.imag)
    if not imag.startswith("-"):
        imag = "+" + imag
    return f"{_g17(value.real)}{imag}i"


def emit_matrix_text(M, fmt: str) -> str:
    """Serialize a matrix to one of the supported formats."""
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
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def emit_matrix(M, path: str, fmt: Optional[str] = None) -> str:
    if fmt is None:
        fmt = format_for_path(path)
    text = emit_matrix_text(M, fmt)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def emit_form(form, out_dir: str, fmt: str = "mm", prefix: Optional[str] = None,
              svg: bool = False) -> List[str]:
    """Write a sparsified form to disk: matrix, unitary, report, optional SVG.

    The matrix and the basis change go out in ``fmt``; the verification
    report is JSON.  The SVG uses the report's threshold.  Returns the
    written paths.
    """
    from .render import render_svg

    if fmt not in FORMAT_EXTENSIONS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    os.makedirs(out_dir, exist_ok=True)
    prefix = prefix or form.form_kind
    ext = FORMAT_EXTENSIONS[fmt]
    paths = [
        emit_matrix(form.matrix, os.path.join(out_dir, f"{prefix}_M{ext}"), fmt),
        emit_matrix(form.basis_change, os.path.join(out_dir, f"{prefix}_U{ext}"), fmt),
    ]
    report_path = os.path.join(out_dir, f"{prefix}_report.json")
    with open(report_path, "w") as handle:
        handle.write(form.report.to_json() + "\n")
    paths.append(report_path)
    if svg:
        svg_path = os.path.join(out_dir, f"{prefix}_pattern.svg")
        with open(svg_path, "w") as handle:
            handle.write(render_svg(form.matrix, form.schedule, form.report.threshold))
        paths.append(svg_path)
    return paths
