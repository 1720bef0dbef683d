"""Each form's report is the one check that its basis change is unitary.

``conjugate`` forms U*TU without testing U, so a build whose U has one
column scaled by 1+δ, δ in [1e-9, 1e-3], must come back as a form whose
report fails, with ``unitarity_residual`` its first failure, at any scale c
of the input.  The same draw with δ = 0 and c = 1 must pass.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import blocktrid as bt
from blocktrid.verify import UNITARITY_LIMIT
from tamper import scaled_column

FORMS = {
    "staircase": lambda T, e1: bt.staircase(T),
    "tri_sparsify": lambda T, e1: bt.tri_sparsify(T),
    "krylov_hessenberg": lambda T, e1: bt.krylov_hessenberg(T, e1),
    "joint_cyclic_staircase": lambda T, e1: bt.joint_cyclic_staircase(T, e1),
    "decompose": lambda T, e1: bt.decompose(T),
    "family_staircase": lambda T, e1: bt.family_staircase([T, T.conj().T])[1][0],
}


def _form(name, T, column, factor):
    """``name``'s form of T, its basis change with ``column`` scaled by ``factor``."""
    with scaled_column(column, factor):
        return FORMS[name](T, np.eye(len(T))[0])


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(FORMS)), d=st.integers(1, 48),
       seed=st.integers(0, 2**32 - 1), log_c=st.floats(-6.0, 6.0),
       log_delta=st.floats(-9.0, -3.0), data=st.data())
def test_a_non_unitary_basis_fails_on_unitarity_first(name, d, seed, log_c,
                                                      log_delta, data):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    column = data.draw(st.integers(0, d - 1), label="column")
    assert _form(name, T, column, 1.0).passing
    form = _form(name, 10.0 ** log_c * T, column, 1 + 10.0 ** log_delta)
    first = form.report.failures[0]
    assert first.check == "unitarity_residual"
    assert first.value > first.limit == UNITARITY_LIMIT
