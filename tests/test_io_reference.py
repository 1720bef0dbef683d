"""Differential tests: whole-array file I/O and rendering against the
per-entry reference implementations in ``reference_io.py``."""

import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_io as ref
from blocktrid import matio
from blocktrid import (
    BlockSchedule,
    GENERAL,
    MatrixParseError,
    emit_matrix_text,
    parse_matrix,
    render_svg,
    schedule_for_dim,
)

FORMATS = ("mm", "csv", "json")
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                     1e300, -1e300, 1e-300, -1e-300, 1.0, -1.0])
SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def matrices(draw):
    """Random complex matrices up to d=300: mixed magnitudes from 1e-300 to
    1e300, with signed zeros, subnormals and extremes in both parts."""
    d = draw(st.one_of(st.integers(1, 24), st.integers(25, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parts = rng.standard_normal((d, d, 2)) * 10.0 ** rng.integers(-300, 301, (d, d, 2))
    special = rng.random((d, d, 2)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    parts[special] = rng.choice(SPECIALS, int(special.sum()))
    return parts[..., 0] + 1j * parts[..., 1]


#: Small matrices with entries straight from Hypothesis' float strategy.
small_matrices = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=d * d, max_size=d * d,
).map(lambda pairs: np.array([complex(*p) for p in pairs]).reshape(d, d)))


def _same_bits(A, B):
    return A.shape == B.shape and A.tobytes() == B.tobytes()


@SLOW
@given(st.one_of(matrices(), small_matrices))
def test_emit_and_parse_match_reference(M):
    for fmt in FORMATS:
        text = emit_matrix_text(M, fmt)
        assert text == ref.emit_matrix_text(M, fmt), fmt
        parsed = parse_matrix(io.StringIO(text), fmt)
        assert _same_bits(parsed, ref.parse_text(text, fmt)), fmt
        assert _same_bits(parsed, M), fmt


@SLOW
@given(st.one_of(matrices(), small_matrices))
@example(np.array([[1.27116101e+308 + 1.27116101e+308j]]))
def test_render_matches_reference(M):
    d = M.shape[0]
    top = float(np.abs(M).max())
    # Where |z| overflows, the reference writes "nan" opacities; the
    # opacities now come from the halved entries.  The half-maximum
    # threshold then comes from them too, since top / 2 is infinite and
    # render_svg rejects non-finite thresholds.
    scale = 2.0 if np.isinf(top) else 1.0
    half = float(np.abs(M / 2).max()) if np.isinf(top) else top / 2
    for schedule in (None, schedule_for_dim(d)):
        for threshold in (1e-10, half):
            if threshold == 0.0:
                # a zero matrix (or one whose largest entry halves to zero)
                # has no positive half-maximum, and render_svg rejects a
                # threshold that is not positive
                with pytest.raises(ValueError, match="positive"):
                    render_svg(M, schedule, threshold)
                continue
            assert render_svg(M, schedule, threshold) == ref.render_svg(
                M / scale, schedule, threshold / scale)


def test_render_opacities_stay_finite_when_magnitudes_overflow():
    M = np.array([[1.3e308 + 1.3e308j, 1.3e308], [0, 1e-300]])
    svg = render_svg(M)
    assert "nan" not in svg
    assert svg.count('fill-opacity="1.0000"') == 1
    assert svg.count('fill-opacity="0.8096"') == 1  # 0.35 + 0.65 / sqrt(2)


def test_render_matches_reference_on_real_int_and_empty_inputs():
    cases = [np.zeros((3, 3)), np.eye(4, dtype=int), np.arange(9.0).reshape(3, 3) - 4,
             np.array([[-0.0, 5e-324], [1e300, -1e-300]])]
    for M in cases:
        for threshold in (1e-10, 0.5):
            assert render_svg(M, None, threshold) == ref.render_svg(M, None, threshold)
        with pytest.raises(ValueError, match="positive"):
            render_svg(M, None, -1.0)
    sched = BlockSchedule((1, 2, 6), GENERAL)
    assert render_svg(np.eye(9), sched) == ref.render_svg(np.eye(9), sched)


#: SHA-256 of the parent implementation's output on ``_frozen_matrix()``.
FROZEN = {
    "mm": "09a892dfde0d949446463d8227258a15d45d560e2ffe4d129d97266992b0aa8b",
    "csv": "8e17b2f7dfdd027d026400dac24e4388f102624fc8b715c334296ce8a0b1fd62",
    "json": "1a1ca76853e04aa2778090e7522b03c2035523828ce77e3850c41792d08b1020",
    "svg": "980438c9951ff2a71d128a8ef6480bf2dcee57240126b3309fc692523c9b44a1",
}


def _frozen_matrix():
    rng = np.random.default_rng(20)
    M = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    M[3, 4] = complex(-0.0, 0.0)
    M[5, 6] = complex(5e-324, -0.0)
    M[7, 1] = complex(1e300, -1e-300)
    M[np.abs(M) < 0.3] = 0
    return M


def test_frozen_digests():
    M = _frozen_matrix()
    texts = {fmt: emit_matrix_text(M, fmt) for fmt in FORMATS}
    texts["svg"] = render_svg(M, schedule_for_dim(20))
    digests = {key: hashlib.sha256(text.encode()).hexdigest() for key, text in texts.items()}
    assert digests == FROZEN


CSV_VALID = [
    "1+2i", "1-2i", "2i", "-2i", "i", "I", "+i", "-i", "1+i", "1-I", "-3",
    "1.5e-3+2e4i", "1E+5-2E-5i", "1e+5i", "-1e-5-1e-5i", "+2-3i", "1_0+2_0i",
    ".5-.5i", "5.+5.i", " 1 + 2 i ", "1\t+2i", "1+2\ti", "\t-0-0i\t", "-0",
    "0x", "١+٢i",
]


@pytest.mark.parametrize("token", CSV_VALID)
def test_csv_token_variants_match_reference(token):
    text = f"{token}, 1\n2, {token}\n"
    try:
        expected = ref.parse_text(text, "csv")
    except MatrixParseError as exc:
        with pytest.raises(MatrixParseError) as got:
            parse_matrix(io.StringIO(text), "csv")
        assert str(got.value) == str(exc)
        return
    assert _same_bits(parse_matrix(io.StringIO(text), "csv"), expected)


def _per_entry_reads(monkeypatch):
    """Record each call of the per-entry CSV reader in the returned list."""
    calls = []
    read = matio._read_csv_entries
    monkeypatch.setattr(matio, "_read_csv_entries",
                        lambda lines: calls.append(lines) or read(lines))
    return calls


@pytest.mark.parametrize("token", ["1\t+2i", "0.5\t-1e-3i"])
def test_csv_tokens_complex_refuses_are_read_entry_by_entry(monkeypatch, token):
    calls = _per_entry_reads(monkeypatch)
    text = f"{token}, 1\n2, {token}\n"
    assert _same_bits(parse_matrix(io.StringIO(text), "csv"), ref.parse_text(text, "csv"))
    assert calls


@pytest.mark.parametrize("token,message", [
    ("1+2j", None),
    ("(1+2i)", None),
    ("nani", "line 2: non-finite imaginary part 'nan'"),
    ("infi", "line 2: non-finite imaginary part 'inf'"),
    ("Infinity", "line 2: non-finite number 'Infinity'"),
])
def test_csv_tokens_the_grammar_rejects_raise_from_the_per_entry_reader(
        monkeypatch, token, message):
    """``complex()`` accepts the first two and reads ``nani`` as a NaN; the
    reference rejects the first two and reads the other three as non-finite
    values, which the package rejects."""
    calls = _per_entry_reads(monkeypatch)
    text = f"1, 2\n3, {token}\n"
    if message is None:
        with pytest.raises(MatrixParseError) as expected:
            ref.parse_text(text, "csv")
        message = str(expected.value)
    with pytest.raises(MatrixParseError) as got:
        parse_matrix(io.StringIO(text), "csv")
    assert calls
    assert str(got.value) == message
    assert got.value.line == 2


@pytest.mark.parametrize("token", ["1_0+2_0i", "\u0663i", "-i", "1-I", "-0-0i", "1e+5-2i",
                                   " 1 + 2 i "])
def test_csv_tokens_both_routes_read_go_through_complex(monkeypatch, token):
    calls = _per_entry_reads(monkeypatch)
    text = f"{token}, 1\n2, {token}\n"
    assert _same_bits(parse_matrix(io.StringIO(text), "csv"), ref.parse_text(text, "csv"))
    assert not calls


def test_one_tab_token_sends_a_d20_file_entry_by_entry(monkeypatch):
    calls = _per_entry_reads(monkeypatch)
    M = _frozen_matrix()
    lines = emit_matrix_text(M, "csv").splitlines()
    tokens = lines[7].split(", ")
    tokens[3] = "%.17g\t%+.17gi" % (M[7, 3].real, M[7, 3].imag)
    lines[7] = ", ".join(tokens)
    text = "\n".join(lines) + "\n"
    parsed = parse_matrix(io.StringIO(text), "csv")
    assert calls
    assert _same_bits(parsed, ref.parse_text(text, "csv"))
    assert _same_bits(parsed, M)


def test_emitted_csv_never_reaches_the_per_entry_reader(monkeypatch):
    def refuse(lines):
        raise AssertionError("an emitted CSV went entry by entry")

    monkeypatch.setattr(matio, "_read_csv_entries", refuse)
    specials = np.add.outer(SPECIALS, 1j * SPECIALS)
    for M in (_frozen_matrix(), specials, specials.T):
        assert _same_bits(parse_matrix(io.StringIO(emit_matrix_text(M, "csv")), "csv"), M)


@pytest.mark.parametrize("M", [
    np.zeros((0, 0)),
    np.zeros((2, 0)),
    np.array([[complex(np.nan, np.inf), complex(-np.inf, -0.0)],
              [complex(5e-324, np.nan), complex(-0.0, -np.inf)]]),
    np.array([[complex(np.inf, 1.5)]]),
], ids=["0x0", "2x0", "non-finite", "inf"])
def test_json_emit_spells_every_entry_as_json_dumps(M):
    assert emit_matrix_text(M, "json") == ref.emit_matrix_text(M, "json")


#: Messages of the errors that used to be silent, or not ``MatrixParseError``.
NEW_ERRORS = ("non-finite", "non-integer", "negative size", "has a malformed",
              "expected an object", "is not a non-negative integer", "is not a list")


def _agrees_with_reference(text, fmt):
    """Same values, or the same error; except that a newly rejected field
    may fail first, and inputs the reference failed on with another
    exception, or accepted with non-finite values, now fail to parse."""
    try:
        expected = ref.parse_text(text, fmt)
    except MatrixParseError as exc:
        with pytest.raises(MatrixParseError) as got:
            parse_matrix(io.StringIO(text), fmt)
        if str(got.value) != str(exc):
            assert any(key in str(got.value) for key in NEW_ERRORS)
            assert exc.line is None or got.value.line <= exc.line
        return
    except (TypeError, ValueError, OverflowError):
        with pytest.raises(MatrixParseError):
            parse_matrix(io.StringIO(text), fmt)
        return
    if not np.isfinite(expected).all():
        with pytest.raises(MatrixParseError, match="non-finite"):
            parse_matrix(io.StringIO(text), fmt)
        return
    try:
        parsed = parse_matrix(io.StringIO(text), fmt)
    except MatrixParseError as exc:  # a truncated size or index
        assert any(key in str(exc) for key in ("non-integer", "negative size"))
        return
    assert _same_bits(parsed, expected)


FUZZ = settings(max_examples=300, deadline=None)


@FUZZ
@given(st.lists(st.text("0123456789.eE+-iI_ \tnafyj(),", max_size=12),
                min_size=4, max_size=4))
def test_csv_random_tokens_match_reference(tokens):
    _agrees_with_reference(f"{tokens[0]},{tokens[1]}\n\n{tokens[2]} ,{tokens[3]}\n", "csv")


@FUZZ
@given(st.sampled_from(["array", "coordinate"]), st.text("0123.-e", max_size=3),
       st.lists(st.text("0123456789.eE+-_ \tnafx%\n", max_size=10), min_size=1, max_size=6))
def test_mm_random_lines_match_reference(layout, size, lines):
    header = f"%%MatrixMarket matrix {layout} complex general\n"
    _agrees_with_reference(header + f"{size}\n" + "\n".join(lines), "mm")


PART = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.floats(), st.booleans(), st.none(),
                 st.text("0123456789.-e_ nafi", max_size=6))


@FUZZ
@given(st.integers(0, 3), st.integers(0, 3), st.lists(st.lists(st.one_of(
    st.lists(PART, min_size=2, max_size=2),
    st.recursive(PART, lambda inner: st.lists(inner, max_size=3), max_leaves=6),
), max_size=3), max_size=3))
def test_json_random_entries_match_reference(rows, cols, data):
    _agrees_with_reference(json.dumps({"rows": rows, "cols": cols, "data": data}), "json")


MM_ARRAY = "%%MatrixMarket matrix array complex general\n"
MM_COORD = "%%MatrixMarket matrix coordinate complex general\n"

#: Malformed inputs whose error is unchanged: the same message and line.
MALFORMED = [
    ("mm", ""),
    ("mm", "hello\n"),
    ("mm", "%%MatrixMarket matrix array real general\n1 1\n1\n"),
    ("mm", "%%MatrixMarket matrix dense complex general\n1 1\n1 0\n"),
    ("mm", MM_ARRAY),
    ("mm", MM_ARRAY + "% only a comment\n\n"),
    ("mm", MM_ARRAY + "2 2 2\n"),
    ("mm", MM_ARRAY + "x 2\n"),
    ("mm", MM_ARRAY + "2 2\n1 0\n0 0\n1 0\n"),
    ("mm", MM_ARRAY + "2 2\n1 0\n0\n0 0\n1 0\n"),
    ("mm", MM_ARRAY + "2 2\n1 0\n0 0 0\n0 0\n1 0\n"),
    ("mm", MM_ARRAY + "2 2\n1 0\nx 0\n0 0\n1 0\n"),
    ("mm", MM_ARRAY + "2 2\n1 0\n% note\n0 y\n\n0 0\n1 0\n"),
    ("mm", MM_ARRAY + "2 2\n1\n0 0 0\n0 0\n1 0\n"),
    ("mm", MM_ARRAY + "2 3\n" + "1 0\n" * 6),
    ("mm", MM_COORD + "3 3\n"),
    ("mm", MM_COORD + "3 3 2\n1 1 1 0\n"),
    ("mm", MM_COORD + "3 3 1\n1 1 1\n"),
    ("mm", MM_COORD + "3 3 1\nx 1 1 0\n"),
    ("mm", MM_COORD + "3 3 1\n1 y 1 0\n"),
    ("mm", MM_COORD + "3 3 1\n4 1 1 0\n"),
    ("mm", MM_COORD + "3 3 1\n0 1 1 0\n"),
    ("mm", MM_COORD + "3 3 1\n-1 1 1 0\n"),
    ("mm", MM_COORD + "3 3 1\n1 4 1 0\n"),
    ("mm", MM_COORD + "3 3 2\n1 1 1 0\n1 1 2 0\n"),
    ("mm", MM_COORD + "3 3 2\n1 1 x 0\n1 1 2 0\n"),
    ("mm", MM_COORD + "3 3 2\n1 1 1 0\n2 1 1 z\n"),
    ("mm", MM_COORD + "3 3 3\n1 1 1 0\n9 9 1 0\n1 1 x 0\n"),
    ("mm", MM_COORD + "2 3 1\n1 1 1 0\n"),
    ("csv", ""),
    ("csv", "\n  \n\t\n"),
    ("csv", "1, 2\n3\n"),
    ("csv", "1, 2\n3, zebra, 4\n"),
    ("csv", "1+0i, 0+0i\n0+0i, zebra\n"),
    ("csv", "1, 2\n3, \n"),
    ("csv", ",\n1, 2\n"),
    ("csv", "1+2j, 0\n0, 1\n"),
    ("csv", "(1+2i), 0\n0, 1\n"),
    ("csv", "(1), 0\n0, 1\n"),
    ("csv", "1+2+3i, 0\n0, 1\n"),
    ("csv", "1e5e+3i, 0\n0, 1\n"),
    ("csv", "+-2i, 0\n0, 1\n"),
    ("csv", "--1i, 0\n0, 1\n"),
    ("csv", "1-2, 0\n0, 1\n"),
    ("csv", "1\t2, 0\n0, 1\n"),
    ("csv", "e+i, 0\n0, 1\n"),
    ("csv", "1e+i, 0\n0, 1\n"),
    ("csv", "ii, 0\n0, 1\n"),
    ("csv", "1+2iI, 0\n0, 1\n"),
    ("csv", "1+\t2i, 0\n0, 1\n"),
    ("csv", "1, 2, 3\n4, 5, 6\n"),
    ("json", "{nope"),
    ("json", '{"rows": 1,\n "cols": 1,\n "data": [[[1, 0]]],,}'),
    ("json", '{"rows":1,"data":[[[1,0]]]}'),
    ("json", '{"cols":1,"data":[[[1,0]]]}'),
    ("json", '{"rows":1,"cols":1}'),
    ("json", '{"rows":2,"cols":1,"data":[[[1,0]]]}'),
    ("json", '{"rows":1,"cols":2,"data":[[[1,0]]]}'),
    ("json", '{"rows":2,"cols":1,"data":[[[1,0]],[[1,0],[2,0]]]}'),
    ("json", '{"rows":1,"cols":1,"data":[[[1,0,0]]]}'),
    ("json", '{"rows":1,"cols":1,"data":[[1]]}'),
    ("json", '{"rows":1,"cols":1,"data":[[{"re":1,"im":0}]]}'),
    ("json", '{"rows":1,"cols":2,"data":["ab"]}'),
    ("json", '{"rows":1,"cols":2,"data":[[[1,0],[2,0]]]}'),
]


@pytest.mark.parametrize("fmt,text", MALFORMED)
def test_malformed_inputs_fail_like_reference(fmt, text):
    with pytest.raises(MatrixParseError) as expected:
        ref.parse_text(text, fmt)
    with pytest.raises(MatrixParseError) as got:
        parse_matrix(io.StringIO(text), fmt)
    assert str(got.value) == str(expected.value)
    assert got.value.line == expected.value.line


VALID = [
    ("mm", MM_ARRAY + "% lead\n\n2 2\n1 0\n  % mid\n3 0\n\n2 -0\n4 1_0\n% tail\n"),
    ("mm", MM_ARRAY.upper().replace("%%MATRIXMARKET", "%%MatrixMarket") + "1 1\n1e0 -0\n"),
    ("mm", MM_COORD + "3 3 2\n1 2 5 -1\n% gap\n3.0 3e0 2 0\n"),
    ("mm", MM_COORD + "2 2 0\n"),
    ("mm", "%%MatrixMarket matrix array complex general\r\n1 1\r\n1 2\r\n"),
    ("mm", MM_ARRAY + "1 1\n١ ٢\n"),
    ("csv", "\n1+0i, 0+0i\n\n0+0i, 1+0i\n\n"),
    ("csv", "1,\t2\x0b3, 4\n"),
    ("json", '{"rows": 1, "cols": 1, "data": [[["1_0", true]]]}'),
    ("json", '{"rows": 0, "cols": 0, "data": []}'),
    ("json", '{"rows": 2, "cols": 2, "data": [[[1, -0.0], [2, 0]], [[1e300, 5e-324], [18446744073709551617, 0]]]}'),
]


@pytest.mark.parametrize("fmt,text", VALID)
def test_valid_inputs_parse_like_reference(fmt, text):
    assert _same_bits(parse_matrix(io.StringIO(text), fmt), ref.parse_text(text, fmt))
