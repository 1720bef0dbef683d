"""Matrix file formats: Matrix Market, CSV with complex tokens, JSON.

The Matrix Market and CSV emitters print floats with 17 significant
digits and the JSON emitter prints each float's ``repr``; both round-trip
IEEE doubles exactly, so parse -> emit -> parse is value-identical.

Each format is read and written on one whole-array path.  A parser splits
the text with C-level string methods, converts every number in one pass
of Python's ``float`` or ``complex`` (so the accepted number syntax is
exactly ``float()``'s) and checks token counts, row widths, indices and
finiteness as array operations.

CSV has two routes.  The whole file goes through ``complex()``, one call
per entry, after ``i``/``I`` become ``j``/``J``; ``complex()`` converts
each part as ``float()`` does.  A file that route cannot take (a ``j``,
``J`` or parenthesis in its text, rows of unequal width, a token
``complex()`` refuses or a non-finite value) is read entry by entry, which
returns the matrix or raises the ``MatrixParseError`` of the first bad
line.  For Matrix Market and JSON, a per-line pass runs only when the
whole-array pass finds an entry malformed, to raise the error of the first
offending line.  An emitter fills one printf-style template with the
flattened real and imaginary parts.  Files are read and written as UTF-8.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain, compress, repeat
from typing import Iterable, List, Optional, TextIO, Union

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

_MM_HEADER = "%%MatrixMarket matrix array complex general"

#: A bare or signed ``i`` has unit imaginary part.
_UNIT = {"": "1", "+": "+1", "-": "-1"}


class MatrixParseError(ValueError):
    """Malformed matrix file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class _Malformed(Exception):
    """The whole-array pass rejected an entry; a per-line pass names it."""


def format_for_path(path: str) -> str:
    ext = os.path.splitext(str(path))[1].lower()
    if ext not in _EXTENSIONS:
        raise MatrixParseError(
            f"cannot infer format from extension {ext!r}; pass one of {FORMATS}"
        )
    return _EXTENSIONS[ext]


def _read_text(source: Union[str, TextIO]) -> str:
    if hasattr(source, "read"):
        return source.read()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read()


def _require_square(M: np.ndarray) -> np.ndarray:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise MatrixParseError(f"matrix is {M.shape[0]}x{M.shape[1]}, not square")
    return M


def _parse_float(token: str, line: int, what: str = "number") -> float:
    try:
        value = float(token)
    except ValueError:
        raise MatrixParseError(f"malformed {what} token {token!r}", line)
    if not math.isfinite(value):
        raise MatrixParseError(f"non-finite {what} {token!r}", line)
    return value


def _parse_int(token: str, line: int, what: str) -> int:
    value = _parse_float(token, line, what)
    if not value.is_integer():
        raise MatrixParseError(f"non-integer {what} {token!r}", line)
    return int(value)


def _floats(tokens: Iterable[str], count: int) -> np.ndarray:
    """``count`` tokens through ``float`` into one array, all finite."""
    try:
        values = np.fromiter(map(float, tokens), np.float64, count)
    except ValueError:
        raise _Malformed
    if not np.isfinite(values).all():
        raise _Malformed
    return values


def _no_error_found():
    raise AssertionError("the whole-array pass rejected entries the per-line pass accepts")


def _mm_layout(lines: List[str]) -> str:
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
    return layout


def _mm_sizes(line: str, line_no: int, names, form: str) -> List[int]:
    size = line.split()
    if len(size) != len(names):
        raise MatrixParseError(f"expected '{form}', got {line!r}", line_no)
    sizes = [_parse_int(token, line_no, what) for token, what in zip(size, names)]
    if min(sizes) < 0:
        raise MatrixParseError(f"negative size in {line!r}", line_no)
    return sizes


def _mm_entry_error(layout: str, lines: List[str], entries, rows: int, cols: int):
    """Raise the error of the first malformed entry line."""
    seen = set()
    for idx in entries.tolist():
        line_no, line = idx + 1, lines[idx]
        parts = line.split()
        if layout == "array":
            if len(parts) != 2:
                raise MatrixParseError(f"expected 're im', got {line!r}", line_no)
        else:
            if len(parts) != 4:
                raise MatrixParseError(f"expected 'i j re im', got {line!r}", line_no)
            i = _parse_int(parts[0], line_no, "row index")
            j = _parse_int(parts[1], line_no, "column index")
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise MatrixParseError(f"index ({i},{j}) out of range", line_no)
            if (i, j) in seen:
                raise MatrixParseError(f"duplicate entry ({i},{j})", line_no)
            seen.add((i, j))
            parts = parts[2:]
        _parse_float(parts[0], line_no, "real part")
        _parse_float(parts[1], line_no, "imaginary part")
    _no_error_found()


def _parse_mm(text: str) -> np.ndarray:
    lines = text.splitlines()
    layout = _mm_layout(lines)
    n_tokens = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
    comment = np.fromiter(map(str.startswith, map(str.lstrip, lines), repeat("%")),
                          bool, len(lines))
    keep = (n_tokens > 0) & ~comment
    keep[0] = False
    body = np.flatnonzero(keep)            # the size line, then the entry lines
    if not body.size:
        raise MatrixParseError("missing size line", len(lines))
    size_no, entries = int(body[0]) + 1, body[1:]
    keep[size_no - 1] = False              # now the entry lines alone
    if layout == "array":
        rows, cols = _mm_sizes(lines[size_no - 1], size_no,
                               ("row count", "column count"), "rows cols")
        count, width = rows * cols, 2
    else:
        rows, cols, count = _mm_sizes(lines[size_no - 1], size_no,
                                      ("size",) * 3, "rows cols nnz")
        width = 4
    if len(entries) != count:
        raise MatrixParseError(f"expected {count} entries, found {len(entries)}",
                               size_no)
    M = np.zeros((rows, cols), dtype=np.complex128)
    try:
        if (n_tokens[entries] != width).any():
            raise _Malformed
        tokens = chain.from_iterable(map(str.split, compress(lines, keep.tolist())))
        _fill_mm(M, _floats(tokens, width * count).reshape(count, width))
    except _Malformed:
        _mm_entry_error(layout, lines, entries, rows, cols)
    return _require_square(M)


def _fill_mm(M: np.ndarray, values: np.ndarray):
    """Write parsed entry lines into ``M``: ``(re, im)`` pairs in column-major
    order, or ``(i, j, re, im)`` quadruples at distinct in-range indices."""
    rows, cols = M.shape
    if values.shape[1] == 2:
        M[:] = values.view(np.complex128).reshape(cols, rows).T
        return
    ij = values[:, :2]
    if ((ij != np.floor(ij)).any() or (ij < 1).any()
            or (ij[:, 0] > rows).any() or (ij[:, 1] > cols).any()):
        raise _Malformed
    i, j = ij.T.astype(np.intp) - 1
    if np.unique(i * cols + j).size != len(values):
        raise _Malformed
    M.real[i, j] = values[:, 2]
    M.imag[i, j] = values[:, 3]


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
        return complex(
            _parse_float(re_s, line, "real part"),
            _parse_float(_UNIT.get(im_s, im_s), line, "imaginary part"),
        )
    return complex(_parse_float(text, line), 0.0)


def _read_csv_entries(lines: List[str]) -> np.ndarray:
    """Read CSV rows entry by entry; raise the error of the first bad row."""
    rows, width = [], None
    for idx, line in enumerate(lines):
        if not line.strip():
            continue
        values = [_parse_complex_token(tok, idx + 1) for tok in line.split(",")]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise MatrixParseError(
                f"row has {len(values)} entries, expected {width}", idx + 1
            )
        rows.append(values)
    return np.array(rows, dtype=np.complex128)


def _parse_csv(text: str) -> np.ndarray:
    # Spaces go everywhere, and complex() strips other whitespace around
    # each token, as ``token.strip().replace(" ", "")`` does; neither splits
    # lines or tokens.
    lines = text.replace(" ", "").splitlines()
    rows = list(compress(lines, map(str.strip, lines)))
    if not rows:
        raise MatrixParseError("empty file", 1)
    commas = set(map(str.count, rows, repeat(",")))
    body = ",".join(rows)
    try:
        # complex() would accept "j" and parentheses, which the grammar does not
        if len(commas) != 1 or any(map(body.__contains__, "jJ()")):
            raise _Malformed
        tokens = body.replace("i", "j").replace("I", "J").split(",")
        values = np.fromiter(map(complex, tokens), np.complex128, len(tokens))
        if not np.isfinite(values).all():
            raise _Malformed
    except (ValueError, _Malformed):
        values = _read_csv_entries(text.splitlines())
    return _require_square(values.reshape(len(rows), -1))


def _json_entry_error(data: list, cols: int):
    """Raise the error of the first malformed row or entry."""
    for i, row in enumerate(data, start=1):
        if not isinstance(row, (list, dict, str)):
            raise MatrixParseError(f"row {i} is not a list of entries", 1)
        if len(row) != cols:
            raise MatrixParseError(f"row {i} has {len(row)} entries, expected {cols}", 1)
        for j, pair in enumerate(row, start=1):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise MatrixParseError(f"entry ({i},{j}) is not a [re, im] pair", 1)
            for part, what in zip(pair, ("real part", "imaginary part")):
                try:
                    value = float(part)
                except (TypeError, ValueError, OverflowError):
                    raise MatrixParseError(
                        f"entry ({i},{j}) has a malformed {what} {part!r}", 1)
                if not math.isfinite(value):
                    raise MatrixParseError(
                        f"entry ({i},{j}) has a non-finite {what} {part!r}", 1)
    _no_error_found()


def _parse_json(text: str) -> np.ndarray:
    # Every line break reads as "\n", so JSON line numbers match the other formats'.
    try:
        payload = json.loads("\n".join(text.splitlines()))
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON: {exc.msg}", exc.lineno)
    if not isinstance(payload, dict):
        raise MatrixParseError("expected an object with keys rows, cols, data", 1)
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise MatrixParseError(f"missing key {key!r}", 1)
    rows, cols, data = payload["rows"], payload["cols"], payload["data"]
    for key, size in (("rows", rows), ("cols", cols)):
        if type(size) is not int or size < 0:
            raise MatrixParseError(f"{key!r} is not a non-negative integer", 1)
    if not isinstance(data, list):
        raise MatrixParseError("'data' is not a list of rows", 1)
    if len(data) != rows:
        raise MatrixParseError(f"expected {rows} rows, found {len(data)}", 1)
    # numpy stops at the first empty level: [] has shape (0,), [[], []] (2, 0)
    shape = (rows, cols, 2) if rows and cols else (rows, cols)[:1 + (rows > 0)]
    try:
        values = np.array(data, dtype=np.float64)
        if values.shape != shape or not np.isfinite(values).all():
            raise _Malformed
    except (TypeError, ValueError, OverflowError, _Malformed):
        _json_entry_error(data, cols)
    return _require_square(values.view(np.complex128).reshape(rows, cols))


_PARSERS = {"mm": _parse_mm, "csv": _parse_csv, "json": _parse_json}


def parse_matrix(source: Union[str, TextIO], fmt: Optional[str] = None) -> np.ndarray:
    """Read a complex square matrix from a path or stream.

    ``fmt`` is one of 'mm', 'csv', 'json'; when omitted it is inferred from
    the path extension (.mtx/.mm, .csv, .json).  Non-finite entries are
    rejected, as are sizes and indices that are not integers.
    """
    if fmt is None:
        if hasattr(source, "read"):
            raise MatrixParseError("format required when reading from a stream")
        fmt = format_for_path(source)
    if fmt not in FORMATS:
        raise MatrixParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return _PARSERS[fmt](_read_text(source))


def emit_matrix_text(M, fmt: str) -> str:
    """Serialize a matrix to one of the supported formats."""
    M = np.asarray(M, dtype=np.complex128)
    rows, cols = M.shape
    if fmt == "mm":
        pairs = np.ascontiguousarray(M.T).view(np.float64)   # column-major
        body = "%.17g %.17g\n" * (rows * cols) % tuple(pairs.ravel().tolist())
        return f"{_MM_HEADER}\n{rows} {cols}\n{body}"
    if fmt == "csv":
        pairs = np.ascontiguousarray(M).view(np.float64)
        # %+ prints the imaginary part's sign, "-0" included
        row = ", ".join(["%.17g%+.17gi"] * cols)
        return ("\n".join([row] * rows) + "\n") % tuple(pairs.ravel().tolist())
    if fmt == "json":
        pairs = np.ascontiguousarray(M).view(np.float64)
        # %r is the repr json.dumps prints for a finite float
        row = "[" + ", ".join(["[%r, %r]"] * cols) + "]"
        data = ("[" + ", ".join([row] * rows) + "]") % tuple(pairs.ravel().tolist())
        if not np.isfinite(pairs).all():
            data = data.replace("nan", "NaN").replace("inf", "Infinity")
        return f'{{"cols": {cols}, "data": {data}, "rows": {rows}}}'
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def emit_matrix(M, path: str, fmt: Optional[str] = None) -> str:
    if fmt is None:
        fmt = format_for_path(path)
    text = emit_matrix_text(M, fmt)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def emit_form(form, report_text: str, out_dir: str, fmt: str = "mm",
              prefix: Optional[str] = None, svg: bool = False) -> List[str]:
    """Write ``<prefix>_M`` and ``<prefix>_U`` (the form's matrix and basis
    change, in ``fmt``), ``<prefix>_report.json`` (``report_text``, the form's
    ``report.to_json()`` as already encoded) and, under ``svg``,
    ``<prefix>_pattern.svg`` at the report's threshold in ``out_dir``; the
    prefix defaults to the form kind.  Returns the written paths."""
    from .render import render_svg

    if fmt not in FORMAT_EXTENSIONS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    prefix = prefix or form.form_kind
    os.makedirs(out_dir, exist_ok=True)
    ext = FORMAT_EXTENSIONS[fmt]
    paths = [emit_matrix(mat, os.path.join(out_dir, f"{prefix}_{name}{ext}"), fmt)
             for name, mat in (("M", form.matrix), ("U", form.basis_change))]
    paths.append(os.path.join(out_dir, f"{prefix}_report.json"))
    with open(paths[-1], "w", encoding="utf-8") as handle:
        handle.write(report_text + "\n")
    if svg:
        paths.append(os.path.join(out_dir, f"{prefix}_pattern.svg"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            handle.write(render_svg(form.matrix, form.schedule, form.report.threshold))
    return paths
