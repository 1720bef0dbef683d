"""Scale-relative oracle for sparsified forms, independent of the package's verifier.

Every claim is checked with plain numpy on the input ``T``, the basis change
``U`` and the result ``M``, relative to the input scale ``max |T|``:

- ``U`` is unitary:              ``max |U*U - I| <= UNITARY_TOL``
- the similarity holds:          ``max |U M U* - T| <= RECON_REL * max |T|``
- every entry off the pattern is zero: ``max |M(off)| <= ENTRY_REL * max |T|``

The package's own report uses absolute limits, so on scaled inputs the two
verdicts can differ; the benchmark counts each disagreement as a false pass
(the report passes, the oracle rejects) or a false alarm (the reverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10
RECON_REL = 1e-8
ENTRY_REL = 1e-10


@dataclass(frozen=True)
class Verdict:
    """The package's verdict on one operation next to the oracle's."""

    reported: bool
    accepted: bool
    detail: str = ""

    @property
    def kind(self) -> str:
        if self.reported and self.accepted:
            return "pass"
        if self.reported:
            return "false_pass"
        if self.accepted:
            return "false_alarm"
        return "fail"


class MaskCache:
    """Boolean support masks, one per (pattern, d, schedule, closure).

    A mask is built by evaluating ``pattern.allowed`` on every (i, j) once;
    the benchmark only asks for masks outside its timed regions.
    """

    def __init__(self):
        self._masks = {}

    def get(self, pattern, d: int, closure=None) -> np.ndarray:
        sizes = pattern.schedule.sizes if pattern.schedule is not None else None
        key = (pattern.kind, d, sizes, closure)
        mask = self._masks.get(key)
        if mask is None:
            allowed = pattern.allowed
            mask = np.array(
                [[allowed(i, j) for j in range(1, d + 1)] for i in range(1, d + 1)],
                dtype=bool,
            )
            self._masks[key] = mask
        return mask


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _relative(value: float, scale: float) -> float:
    if scale > 0:
        return value / scale
    return 0.0 if value == 0 else float("inf")


def off_pattern(M, mask, scale: float):
    """(accepted, worst off-pattern entry relative to ``scale``)."""
    worst = _max_abs(np.asarray(M)[~mask])
    return worst <= ENTRY_REL * scale, _relative(worst, scale)


def similarity(T, U, M, mask):
    """(accepted, detail) for one claimed form ``M = U* T U`` with support ``mask``."""
    scale = _max_abs(T)
    d = T.shape[0]
    unitary = _max_abs(U.conj().T @ U - np.eye(d))
    recon = _max_abs(U @ M @ U.conj().T - T)
    ok_off, off = off_pattern(M, mask, scale)
    ok = unitary <= UNITARY_TOL and recon <= RECON_REL * scale and ok_off
    return ok, (f"unitary={unitary:.1e} recon={_relative(recon, scale):.1e} "
                f"off={off:.1e}")


def judge_form(T, form, masks: MaskCache) -> Verdict:
    mask = masks.get(form.pattern, T.shape[0], form.extras.get("closure_dim"))
    ok, detail = similarity(T, form.basis_change, form.matrix, mask)
    return Verdict(bool(form.passing), ok, detail)


def judge_family(ops, result, masks: MaskCache) -> Verdict:
    """Every member of a family is checked against its own input."""
    U, forms = result
    oks, details = [], []
    for S, form in zip(ops, forms):
        mask = masks.get(form.pattern, S.shape[0])
        ok, detail = similarity(S, U, form.matrix, mask)
        oks.append(ok)
        details.append(detail)
    reported = len(forms) == len(ops) and all(form.passing for form in forms)
    return Verdict(reported, all(oks), "; ".join(details))


def judge_decomposition(T, result, masks: MaskCache) -> Verdict:
    """Coupling blocks vanish and each summand holds its joint cyclic pattern."""
    d = T.shape[0]
    scale = _max_abs(T)
    M = result.matrix
    block_diag = np.zeros((d, d), dtype=bool)
    offset = 0
    summands_ok = len(result.summands) == len(result.dims)
    worst_summand = 0.0
    for size, summand in zip(result.dims, result.summands):
        sl = slice(offset, offset + size)
        block_diag[sl, sl] = True
        mask = masks.get(summand.pattern, size, summand.extras.get("closure_dim"))
        ok, rel = off_pattern(M[sl, sl], mask, scale)
        summands_ok = summands_ok and ok
        worst_summand = max(worst_summand, rel)
        offset += size
    summands_ok = summands_ok and offset == d
    ok, detail = similarity(T, result.basis_change, M, block_diag)
    return Verdict(bool(result.passing), ok and summands_ok,
                   f"{detail} (coupling) summands_off={worst_summand:.1e}")
