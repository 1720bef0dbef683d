"""Vector-at-a-time reference for the orthonormal word-program executor.

This is the loop that ``blocktrid.basis.run_program`` replaced with blocks
of offers: one matrix-vector product and one classical Gram-Schmidt offer
(one pass against the whole basis, and a second when the first cancelled)
per stream position.  The differential
tests in ``test_executor_reference.py`` require the blocked executor to take
the same accept and reject decisions at the same positions, bar offers at
the dependence threshold, to record the same closures, and to match this
basis within ``basis_tolerance`` (bit for bit on Krylov builds).
"""

from __future__ import annotations

from itertools import chain, count

import numpy as np

from blocktrid.basis import BuildLog, BuildResult, InstructionCapError
from blocktrid.kernel import DEPENDENCE_TOL, ONE_PASS_SHARE, as_operator


def reference_offer(Q, v, tol):
    """(accepted, normalized residual or None, residual norm) for one offer.

    The offer is decided at the first norm that decides it: the candidate's
    own norm when it is at most the limit, else the residual of the first
    pass when that is at most the limit or keeps at least ``ONE_PASS_SHARE``
    of the norm, else the residual of a second pass.
    """
    w = np.array(v, dtype=np.complex128)
    norm0 = float(np.linalg.norm(w))
    limit = tol * max(1.0, norm0)
    if norm0 <= limit:
        return False, None, norm0
    for _ in range(2):
        w -= Q.T @ np.conj(Q @ np.conj(w))
        r = float(np.linalg.norm(w))
        if r <= limit or r >= ONE_PASS_SHARE * norm0:
            break
    if r <= limit:
        return False, None, r
    return True, w / r, r


def two_pass_offer(Q, v, tol):
    """``reference_offer`` with both classical passes always run and the
    residual of the second deciding, the arithmetic before the one-pass
    rule; the differential reference of ``test_one_pass_offer.py``."""
    w = np.array(v, dtype=np.complex128)
    norm0 = float(np.linalg.norm(w))
    for _ in range(2):
        w -= Q.T @ np.conj(Q @ np.conj(w))
    r = float(np.linalg.norm(w))
    if r <= tol * max(1.0, norm0):
        return False, None, r
    return True, w / r, r


def reference_run(operators, program, tol=DEPENDENCE_TOL, seed_vector=None,
                  pad_with_seeds=True) -> BuildResult:
    """``run_program`` for every program, one offer at a time."""
    ops = [as_operator(op) for op in operators]
    dim = ops[0].shape[0]
    adjs = [op.conj().T.copy() for op in ops]
    v = None
    if program.first == "v":
        v = np.asarray(seed_vector, dtype=np.complex128).reshape(-1)

    B = np.zeros((dim, dim), dtype=np.complex128)
    k = 0
    log = BuildLog()
    closures = []
    next_seed = 1
    position = 0
    words = stream = map(program.word, count())

    while k < dim:
        position += 1
        word = next(stream)
        if word[0] and word[2] > k:
            closures.append(k)
            if v is None:
                stream = chain([word], words)
                word = (0, False, next_seed)
            elif not pad_with_seeds:
                break
            else:
                stream = ((0, False, n) for n in count(1))
                continue
        op, adjoint, n = word
        if op:
            candidate = (adjs if adjoint else ops)[op - 1] @ B[n - 1]
        elif n:
            if n > dim:
                raise InstructionCapError(f"seed index {n} exceeds {dim}")
            next_seed = n + 1
            candidate = np.zeros(dim, dtype=np.complex128)
            candidate[n - 1] = 1.0
        else:
            candidate = v
        accepted, vector, r = reference_offer(B[:k], candidate, tol)
        if accepted:
            B[k] = vector
            k += 1
        log.add(position, word, accepted, r, k if accepted else None)
    return BuildResult(B[:k].T, log, closures)


def read_word(text):
    """The word ``(op, adjoint, n)`` of a log entry's instruction text:
    ``seed n``, ``seed v`` (n = 0) or ``apply op adj n``."""
    parts = text.split()
    if parts == ["seed", "v"]:
        return 0, False, 0
    if len(parts) == 2 and parts[0] == "seed":
        return 0, False, int(parts[1])
    if len(parts) == 4 and parts[0] == "apply":
        return int(parts[1]), bool(int(parts[2])), int(parts[3])
    raise ValueError(f"cannot read instruction {text!r}")


def offer_norm(ops, basis, trace, seed_vector=None):
    """Norm of the raw candidate an instruction offers, from a basis as columns."""
    op, adjoint, n = read_word(trace)
    if op:
        mat = ops[op - 1].conj().T if adjoint else ops[op - 1]
        return float(np.linalg.norm(mat @ basis[:, n - 1]))
    return 1.0 if n else float(np.linalg.norm(seed_vector))


def basis_tolerance(ops, result, seed_vector=None):
    """Allowed basis difference between two roundings of one build.

    A vector accepted with residual r out of a candidate of norm |v| carries
    the candidate's rounding amplified by |v| / r, and later candidates
    built from it carry that again; with rho the smallest accepted
    r / max(1, |v|), the bound is 10 d eps / rho^2.
    """
    d = result.basis.shape[0]
    rho = min((e.residual_norm / max(1.0, offer_norm(ops, result.basis, e.instruction,
                                                     seed_vector))
               for e in result.log.entries if e.accepted), default=None)
    return 0.0 if rho is None else 10 * d * np.finfo(float).eps / rho ** 2
