"""Branch-per-case reference for the triangular-stream executor.

This is the loop that ``blocktrid.basis._run_raw_triangular`` replaced with
one step per position.  It decides a seed in its own branch and rejects a
position in three: a zero offer (the token resolves past the survivors), a
repeated offer (the pair (adjoint, survivor) was offered already) and a
computed rejection.  The differential tests in
``test_triangular_reference.py`` require the executor to produce this log,
basis and raw vectors bit for bit.
"""

from __future__ import annotations

from typing import List

import numpy as np

from blocktrid.basis import BuildLog, BuildResult, InstructionCapError
from blocktrid.kernel import DEPENDENCE_TOL, as_operator, mgs_append, unit_vector
from blocktrid.words import SurvivorMap, tri_word_raw


def reference_triangular(T, tol=DEPENDENCE_TOL) -> BuildResult:
    """``run_program([T], tri_word_program(), tol)``, one branch per case."""
    T = as_operator(T)
    Tadj = T.conj().T.copy()
    dim = T.shape[0]
    B = np.zeros((dim, dim), dtype=np.complex128)
    k = 0
    raw: List[np.ndarray] = []
    survivors = SurvivorMap()
    offered = set()
    log = BuildLog()
    n = 1
    while k < dim:
        word = tri_word_raw(n)
        if word.stage > dim + 1:
            raise InstructionCapError(
                f"stage {word.stage} exceeds dimension {dim}; seeds should have "
                "completed the basis"
            )
        instr = word.instruction
        if instr.kind == "seed":
            candidate = unit_vector(dim, instr.seed_index - 1)
            out = mgs_append(B[:k], candidate, tol)
            if out.accepted:
                raw.append(candidate)
                B[k] = out.vector
                k += 1
                survivors.mark_accepted(n)
                log.add(n, instr.trace(), True, out.residual_norm, k)
            else:
                survivors.mark_rejected(n)
                log.add(n, instr.trace(), False, out.residual_norm, None)
            n += 1
            continue

        token = word.token
        sigma = survivors.resolve(token)
        if sigma > survivors.survivors:
            # reference to a vector that does not exist yet: a zero offer,
            # and every later token in this run resolves the same way
            survivors.mark_rejected_range(n, word.run_end)
            log.add(n, instr.trace(), False, None, None, position_end=word.run_end)
            n = word.run_end + 1
            continue

        key = (instr.adjoint, sigma)
        if key in offered:
            residual = None
            accepted = False
        else:
            offered.add(key)
            mat = Tadj if instr.adjoint else T
            candidate = mat @ raw[sigma - 1]
            out = mgs_append(B[:k], candidate, tol)
            residual = out.residual_norm
            accepted = out.accepted
            if accepted:
                raw.append(candidate)
                B[k] = out.vector
                k += 1
                survivors.mark_accepted(n)
                log.add(n, instr.trace(), True, residual, k)
                n += 1
                continue

        # rejected (computed or a repeat offer): skip the rest of the run
        # while the token keeps resolving to the same survivor
        q = survivors.next_accepted_at_or_after(token)
        if q is None:
            skip_to = word.run_end
        else:
            skip_to = min(n + (q - token), word.run_end)
        survivors.mark_rejected_range(n, skip_to)
        log.add(n, instr.trace(), False, residual, None, position_end=skip_to)
        n = skip_to + 1

    return BuildResult(B.T, log, raw_vectors=raw)
