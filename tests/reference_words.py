"""Stage-search reference for the triangular-stream decoder.

This is the decoder that ``blocktrid.words.tri_word_raw`` replaced: it finds
the stage of a position by raising 3 to k = 2, 3, ... until 3^k reaches it,
so one call costs O(stage) big-integer powers.  The differential tests in
``test_words_reference.py`` require the two to return the same ``RawWord``.
"""

from __future__ import annotations

from blocktrid.words import RawWord, apply_op, seed


def reference_tri_word_raw(n: int) -> RawWord:
    """``tri_word_raw(n)`` for an int n >= 1, by searching the stage."""
    if n < 1:
        raise ValueError("positions are 1-based")
    if n == 1:
        return RawWord(seed(1), None, 1, 1)
    if n == 2:
        return RawWord(apply_op(1, adjoint=False), 1, 2, 1)
    if n == 3:
        return RawWord(apply_op(1, adjoint=True), 1, 3, 1)
    k = 2
    while 3 ** k < n:
        k += 1
    s_prev2 = 3 ** (k - 2)
    s_prev = 3 ** (k - 1)
    n_k = s_prev - s_prev2
    r = n - s_prev
    if r <= n_k:
        return RawWord(apply_op(s_prev2 + r, adjoint=False), s_prev2 + r, s_prev + n_k, k)
    if n < 3 ** k:
        return RawWord(apply_op(r + 1 - k, adjoint=True), r + 1 - k, 3 ** k - 1, k)
    return RawWord(seed(k), None, 3 ** k, k)
