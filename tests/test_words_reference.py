"""The constant-time triangular decoder against its stage-search reference.

``tri_word_raw`` reads the stage of a position off its bit length;
``reference_tri_word_raw`` searches for it one power of three at a time.
Every field of the decoded ``RawWord`` must agree: the instruction, the
token, the run end and the stage, on the first positions, around every
stage boundary 3^k, and at positions drawn up to 3^160.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from blocktrid.words import tri_word_raw
from reference_words import reference_tri_word_raw

def assert_same_word(n):
    word, ref = tri_word_raw(n), reference_tri_word_raw(n)
    assert (word.instruction, word.token, word.run_end, word.stage) == \
        (ref.instruction, ref.token, ref.run_end, ref.stage), n


def test_first_positions_match_the_reference():
    for n in range(1, 5001):
        assert_same_word(n)


def test_stage_boundaries_match_the_reference():
    # the positions 3^k - 2 .. 3^k + 2 close stage k and open stage k + 1
    for k in range(2, 151):
        for n in range(3 ** k - 2, 3 ** k + 3):
            assert_same_word(n)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3 ** 160))
def test_drawn_positions_match_the_reference(n):
    assert_same_word(n)
