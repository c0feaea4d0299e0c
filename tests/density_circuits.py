"""The density-matrix protocol circuits: the oracle of the state-vector circuits of turlab.protocol.

The same gate lists run on the full register density matrix, each gate applied
as u sigma u^dag on its register factors. The circuits return stacks of
density matrices (N, D, D), one per row of their stacked inputs.
"""

import numpy as np

from turlab.gates import controlled
from turlab.linalg import basis_vector, dag, kron, outer
from turlab.protocol import (
    _PLUS,
    _STAGE_GATES,
    _ancilla_pullback,
    _entry_state,
    _main_gates,
    _nested_gates,
    _readout_rotation,
)


def on_factors(u: np.ndarray, sigma: np.ndarray, dims: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """u sigma u^dag for each matrix of sigma (N, D, D), u (one gate or a stack of N) acting on the register
    factors ``targets`` (in u's factor order)."""
    n = len(dims)
    order = [0] + [k + 1 for k in targets] + [k + 1 for k in range(n) if k not in targets] + [n + 1]
    back = list(np.argsort(order))
    for _ in range(2):   # targets of the row index first, one matmul, then the adjoint
        t = sigma.reshape((len(sigma),) + dims + (-1,)).transpose(order)
        sigma = (u @ t.reshape(len(t), u.shape[-1], -1)).reshape(t.shape).transpose(back).reshape(sigma.shape)
        sigma = dag(sigma)   # u (u sigma)^dag after two passes
    return sigma


def main_states(rho, unitary, env_initial: int, a, b, stage: str = "after_UA", part: str = "real") -> np.ndarray:
    """The S' (x) S (x) E register of the main circuit at a stage, of each row of stacks rho, A, B (N, d, d) and
    dilation unitaries (N, d d_E, d d_E); A, B or the unitary may also be one matrix for all rows."""
    d, d_e = rho.shape[-1], unitary.shape[-1] // rho.shape[-1]
    sigma = kron(kron(outer(basis_vector(2, 0)), rho), outer(basis_vector(d_e, env_initial)))
    for u, targets in _main_gates(controlled(b), unitary, controlled(a), _readout_rotation(part))[:_STAGE_GATES[stage]]:
        sigma = on_factors(u, sigma, (2, d, d_e), targets)
    return sigma


def nested_states(rho, unitary, env_initial: int, a, b, part: str = "real") -> np.ndarray:
    """The S2' (x) S' (x) S (x) E1 (x) E2 register of the nested circuit before measurement, of each row of the
    stacks (as main_states)."""
    d, d_e = rho.shape[-1], unitary.shape[-1] // rho.shape[-1]
    dims = (2, 2, d, d_e, d_e)
    env = outer(basis_vector(d_e, env_initial))
    sigma = kron(kron(_PLUS, _entry_state(rho, b)), kron(env, env))
    for u, targets in _nested_gates(unitary, dag(unitary), controlled(_ancilla_pullback(a, part))):
        sigma = on_factors(u, sigma, dims, targets)
    return sigma
