import io
import json

import numpy as np
import pytest

from blocktrid import (
    BlockSchedule,
    GENERAL,
    MatrixParseError,
    emit_form,
    emit_matrix,
    emit_matrix_text,
    parse_matrix,
    render_svg,
    staircase,
)

MM_IDENTITY = """%%MatrixMarket matrix array complex general
2 2
1 0
0 0
0 0
1 0
"""

JSON_IDENTITY = '{"rows":2,"cols":2,"data":[[[1,0],[0,0]],[[0,0],[1,0]]]}'

CSV_IDENTITY = "1+0i, 0+0i\n0+0i, 1+0i\n"


def test_parse_matrix_market_identity():
    M = parse_matrix(io.StringIO(MM_IDENTITY), "mm")
    np.testing.assert_array_equal(M, np.eye(2))


def test_parse_json_identity():
    M = parse_matrix(io.StringIO(JSON_IDENTITY), "json")
    np.testing.assert_array_equal(M, np.eye(2))


def test_parse_csv_identity():
    M = parse_matrix(io.StringIO(CSV_IDENTITY), "csv")
    np.testing.assert_array_equal(M, np.eye(2))


def test_parse_matrix_market_column_major():
    text = "%%MatrixMarket matrix array complex general\n2 2\n1 0\n3 0\n2 0\n4 0\n"
    M = parse_matrix(io.StringIO(text), "mm")
    np.testing.assert_array_equal(M, np.array([[1, 2], [3, 4]]))


def test_parse_matrix_market_coordinate():
    text = (
        "%%MatrixMarket matrix coordinate complex general\n"
        "% a sparse 3x3 example\n"
        "3 3 2\n"
        "1 2 5 -1\n"
        "3 3 2 0\n"
    )
    M = parse_matrix(io.StringIO(text), "mm")
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 5 - 1j
    expected[2, 2] = 2
    np.testing.assert_array_equal(M, expected)


def test_parse_csv_token_grammar():
    text = "1-2i, 2i, -3\n1.5e-3+2e4i, 0, 1+i\n4, 5, 6\n"
    M = parse_matrix(io.StringIO(text), "csv")
    assert M[0, 0] == 1 - 2j
    assert M[0, 1] == 2j
    assert M[0, 2] == -3
    assert M[1, 0] == complex(1.5e-3, 2e4)
    assert M[1, 2] == 1 + 1j


def test_parse_errors_carry_line_numbers():
    bad_csv = "1+0i, 0+0i\n0+0i, zebra\n"
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_matrix(io.StringIO(bad_csv), "csv")
    ragged = "1, 2\n3\n"
    with pytest.raises(MatrixParseError, match="line 2"):
        parse_matrix(io.StringIO(ragged), "csv")
    bad_mm = "%%MatrixMarket matrix array complex general\n2 2\n1 0\nx 0\n0 0\n1 0\n"
    with pytest.raises(MatrixParseError, match="line 4"):
        parse_matrix(io.StringIO(bad_mm), "mm")


def test_parse_rejects_unsupported_headers():
    with pytest.raises(MatrixParseError, match="unsupported header"):
        parse_matrix(io.StringIO("%%MatrixMarket matrix array real general\n1 1\n1\n"), "mm")
    with pytest.raises(MatrixParseError, match="unsupported header"):
        parse_matrix(io.StringIO("hello\n"), "mm")


def test_parse_rejects_nonsquare():
    text = "1+0i, 2+0i, 3+0i\n4+0i, 5+0i, 6+0i\n"
    with pytest.raises(MatrixParseError, match="not square"):
        parse_matrix(io.StringIO(text), "csv")


def test_parse_rejects_bad_json():
    with pytest.raises(MatrixParseError, match="missing key"):
        parse_matrix(io.StringIO('{"rows":1,"data":[[[1,0]]]}'), "json")
    with pytest.raises(MatrixParseError, match="pair"):
        parse_matrix(io.StringIO('{"rows":1,"cols":1,"data":[[[1,0,0]]]}'), "json")
    with pytest.raises(MatrixParseError, match="invalid JSON"):
        parse_matrix(io.StringIO("{nope"), "json")


def test_parse_coordinate_rejects_duplicates():
    text = (
        "%%MatrixMarket matrix coordinate complex general\n"
        "2 2 2\n1 1 1 0\n1 1 2 0\n"
    )
    with pytest.raises(MatrixParseError, match="duplicate"):
        parse_matrix(io.StringIO(text), "mm")


def test_stream_requires_explicit_format():
    with pytest.raises(MatrixParseError, match="format required"):
        parse_matrix(io.StringIO(CSV_IDENTITY))


def test_round_trip_exact_all_formats(tmp_path):
    rng = np.random.default_rng(40)
    for trial in range(12):
        d = int(rng.integers(1, 21))
        M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for fmt, ext in (("mm", ".mtx"), ("csv", ".csv"), ("json", ".json")):
            path = tmp_path / f"m{trial}{ext}"
            emit_matrix(M, str(path), fmt)
            back = parse_matrix(str(path))
            assert np.array_equal(back, M), fmt


def test_emit_inferred_from_extension(tmp_path):
    M = np.array([[1 + 2j]])
    path = tmp_path / "one.json"
    emit_matrix(M, str(path))
    assert np.array_equal(parse_matrix(str(path)), M)
    with pytest.raises(MatrixParseError, match="extension"):
        parse_matrix(str(tmp_path / "nope.txt"))


def test_emit_matrix_market_is_column_major():
    text = emit_matrix_text(np.array([[1, 2], [3, 4]], dtype=complex), "mm")
    lines = text.splitlines()
    assert lines[1] == "2 2"
    assert [line.split()[0] for line in lines[2:]] == ["1", "3", "2", "4"]


def test_emit_form_writes_matrix_unitary_report(tmp_path):
    rng = np.random.default_rng(41)
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    form = staircase(T)
    out = tmp_path / "out"
    paths = emit_form(form, form.report.to_json(), str(out), "json", svg=True)
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == [
        "staircase_M.json",
        "staircase_U.json",
        "staircase_pattern.svg",
        "staircase_report.json",
    ]
    M_back = parse_matrix(str(out / "staircase_M.json"))
    assert np.array_equal(M_back, form.matrix)
    U_back = parse_matrix(str(out / "staircase_U.json"))
    assert np.array_equal(U_back, form.basis_change)
    payload = json.loads((out / "staircase_report.json").read_text())
    assert payload["passing"] is True
    svg = (out / "staircase_pattern.svg").read_text()
    assert svg.startswith("<svg")


def test_render_svg_cell_counts():
    Z = np.zeros((3, 3))
    svg = render_svg(Z)
    # only the background rect, no filled cells
    assert svg.count("<rect") == 1
    I3 = np.eye(3)
    svg = render_svg(I3)
    assert svg.count("fill-opacity") == 3
    sched = BlockSchedule((1, 2), GENERAL)
    svg = render_svg(I3, sched)
    # one interior block boundary, drawn once per axis
    assert svg.count('stroke="#b03030"') == 2


def test_render_svg_threshold():
    M = np.array([[1.0, 1e-12], [0.5, 0.0]])
    svg = render_svg(M, threshold=1e-10)
    assert svg.count("fill-opacity") == 2
    svg_tight = render_svg(M, threshold=0.6)
    assert svg_tight.count("fill-opacity") == 1


def test_render_svg_draws_a_nan_entry():
    # a NaN is not at most the threshold, so it gets a cell, as it is a
    # violation in check_pattern and a '*' in pattern_text; it is drawn at
    # full opacity and does not scale the others
    M = np.zeros((3, 3))
    M[0, 0], M[2, 0] = 1.0, np.nan
    assert render_svg(M).count("<rect") == 3  # the background and two cells
    M[1, 1] = 0.5
    svg = render_svg(M)
    assert svg.count('fill-opacity="1.0000"') == 2
    assert svg.count('fill-opacity="0.6750"') == 1  # 0.35 + 0.65 * 0.5
    M[2, 0] = 1.0
    assert svg.replace('fill-opacity="1.0000"', "") == render_svg(M).replace(
        'fill-opacity="1.0000"', "")
    assert render_svg(np.full((2, 2), np.nan)).count('fill-opacity="1.0000"') == 4


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_render_svg_rejects_non_finite_threshold(threshold):
    with pytest.raises(ValueError, match="finite"):
        render_svg(np.eye(3), threshold=threshold)


MM_ARRAY = "%%MatrixMarket matrix array complex general\n"
MM_COORD = "%%MatrixMarket matrix coordinate complex general\n"

#: Inputs that parsed before (non-finite entries, truncated non-integer
#: sizes and indices) or failed with an exception other than
#: ``MatrixParseError``.
REJECTED = [
    ("mm", MM_ARRAY + "1 1\nnan 0\n", "line 3: non-finite real part 'nan'"),
    ("mm", MM_COORD + "3 3 1\n3 1 -inf 0\n", "line 3: non-finite real part '-inf'"),
    ("mm", MM_COORD + "3 3 1\n1.5 1 1 0\n", "line 3: non-integer row index '1.5'"),
    ("mm", MM_COORD + "3 3 1\n1 nan 1 0\n", "line 3: non-finite column index 'nan'"),
    ("mm", MM_COORD + "3 3 1\n1 1e400 1 0\n", "line 3: non-finite column index '1e400'"),
    ("mm", MM_ARRAY + "2.9 2\n" + "1 0\n" * 4, "line 2: non-integer row count '2.9'"),
    ("mm", MM_COORD + "2 2 inf\n", "line 2: non-finite size 'inf'"),
    ("mm", MM_ARRAY + "-1 -1\n1 0\n", "line 2: negative size in '-1 -1'"),
    ("csv", "1, nan\n2, 3\n", "line 1: non-finite number 'nan'"),
    ("csv", "1, 2\n2, 1+infi\n", "line 2: non-finite imaginary part '+inf'"),
    ("csv", "1, 2\n2, 1e999\n", "line 2: non-finite number '1e999'"),
    ("json", '{"rows":1,"cols":1,"data":[[[NaN,0]]]}',
     "line 1: entry (1,1) has a non-finite real part nan"),
    ("json", "5", "line 1: expected an object with keys rows, cols, data"),
    ("json", '["rows", "cols", "data"]', "line 1: expected an object with keys rows, cols, data"),
    ("json", '{"rows":1,"cols":1,"data":[[[null,0]]]}',
     "line 1: entry (1,1) has a malformed real part None"),
    ("json", '{"rows":1,"cols":1,"data":[[["x",0]]]}',
     "line 1: entry (1,1) has a malformed real part 'x'"),
    ("json", '{"rows":1,"cols":1,"data":[[[0,1e400]]]}',
     "line 1: entry (1,1) has a non-finite imaginary part inf"),
    ("json", '{"rows":1,"cols":1,"data":[[[0,"nan"]]]}',
     "line 1: entry (1,1) has a non-finite imaginary part 'nan'"),
    ("json", '{"rows":1,"cols":1,"data":[[[1e999999999999999999999, 0]]]}',
     "line 1: entry (1,1) has a non-finite real part inf"),
    ("json", '{"rows":1,"cols":1,"data":[[[10' + "0" * 400 + ', 0]]]}',
     "line 1: entry (1,1) has a malformed real part 1" + "0" * 401),
    ("json", '{"rows":2.0,"cols":2,"data":[]}', "line 1: 'rows' is not a non-negative integer"),
    ("json", '{"rows":1,"cols":-1,"data":[[]]}', "line 1: 'cols' is not a non-negative integer"),
    ("json", '{"rows":1,"cols":1,"data":5}', "line 1: 'data' is not a list of rows"),
    ("json", '{"rows":1,"cols":1,"data":[7]}', "line 1: row 1 is not a list of entries"),
    ("json", '{"rows":1,"cols":2,"data":[[[1,0],[[1],[0]]]]}',
     "line 1: entry (1,2) has a malformed real part [1]"),
]


@pytest.mark.parametrize("fmt,text,message", REJECTED)
def test_malformed_fields_raise_parse_errors(fmt, text, message):
    with pytest.raises(MatrixParseError) as got:
        parse_matrix(io.StringIO(text), fmt)
    assert str(got.value) == message
