"""The density-matrix protocol circuits and correlator bound: the oracle of the state-vector kernels of turlab.protocol.

The same gate lists run on the full register density matrix, each gate applied
as u sigma u^dag on its register factors. The circuits return stacks of
density matrices (N, D, D), one per row of their stacked inputs.

bound_terms composes the correlator bound on density matrices: the separable
baseline p_0 Tr[rho^V0 (1/2) {G_0, (V_0 V_0^dag)^-1}] of the state entering
the channel, U_B^c (|+><+| (x) rho) U_B^c-dag, and the neumann1 traces over
its rho^V0, against which protocol._bound_terms is checked.

evolution_bound and classical_bound are the full-space forms of the evolution
and classical-correlation bounds: G as one Kronecker product on R (x) S (x) E,
the classical value in the Heisenberg picture, and Q_G from check_general_tur.
They are the oracle of tur._product_terms' one-row views.
"""

import math

import numpy as np

from turlab.channels import _heisenberg, _no_jump_inverse
from turlab.gates import controlled
from turlab.linalg import _invertible_factors, basis_vector, dag, kron, outer
from turlab.protocol import (
    _STAGE_GATES,
    _ancilla_pullback,
    _exact_correlator,
    _main_gates,
    _nested_gates,
    _neumann1,
    _readout_rotation,
)
from turlab.tur import (
    EvolutionBoundReport,
    P0_CUTOFF,
    PurifiedState,
    TUR_SLACK,
    _purifications,
    _survival_activity,
    _tur_report,
    check_general_tur,
    final_joint_state,
)

PLUS = outer((basis_vector(2, 0) + basis_vector(2, 1)) / math.sqrt(2.0))   # |+><+|


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
    sigma = kron(kron(PLUS, entry_state(rho, b)), kron(env, env))
    for u, targets in _nested_gates(unitary, dag(unitary), controlled(_ancilla_pullback(a, part))):
        sigma = on_factors(u, sigma, dims, targets)
    return sigma


def entry_state(rho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """State of S' (x) S entering the channel: U_B^c (|+><+| (x) rho) U_B^c-dag, of one rho and B or of stacks."""
    ucb = controlled(b)
    return ucb @ kron(PLUS, rho) @ dag(ucb)


def marginal(sigma: np.ndarray, d_s: int) -> np.ndarray:
    """The S marginal of a state on X (x) S, or of each state of a stack, X the leading factor."""
    d_x = sigma.shape[-1] // d_s
    return np.trace(sigma.reshape(sigma.shape[:-2] + (d_x, d_s, d_x, d_s)), axis1=-4, axis2=-2)


def separable_baseline(sigma: np.ndarray, v0: np.ndarray, v0_inv: np.ndarray, gs) -> tuple:
    """(p_0, rho^V0, [Q of each G_0 of gs]) of each row of a stack of states sigma (N, d_X d_S, d_X d_S) on X (x) S,
    X any register left alone by the channel, no-jump operators v0 and their inverses v0_inv (N, d_S, d_S) and
    blocks G_0 (N, d_X d_S, ...).

    p_0 = Tr[sigma_S V_0^dag V_0] with sigma_S the S marginal,
    rho^V0 = (I_X (x) V_0) sigma (I_X (x) V_0^dag) / p_0 and the no-cost
    baseline of a separable observable with E = |phi_0> block G_0 is
    Q = p_0 Tr[rho^V0 H] with H = (1/2) {G_0, I_X (x) (V_0 V_0^dag)^-1}.
    """
    eye_x = np.eye(sigma.shape[-1] // v0.shape[-1])
    winv = kron(eye_x, dag(v0_inv) @ v0_inv)
    p0 = np.trace(marginal(sigma, v0.shape[-1]) @ dag(v0) @ v0, axis1=1, axis2=2).real
    lift = kron(eye_x, v0)
    rho_v0 = lift @ sigma @ dag(lift) / p0[:, None, None]
    return p0, rho_v0, [p0 * np.trace(rho_v0 @ (0.5 * (g @ winv + winv @ g)), axis1=1, axis2=2).real for g in gs]


def approx_bound_quantities(p0: np.ndarray, rho_v0: np.ndarray, g: np.ndarray, v0: np.ndarray):
    """_neumann1 of the exact T_1 = Tr[rho^V0 G], T_2 = Re Tr[rho^V0 G (I (x) V_0 V_0^dag)] of each row of stacks:
    the p_0 and rho^V0 of separable_baseline, the ancilla pullback G and the no-jump operator V_0."""
    ww = kron(np.eye(g.shape[-1] // v0.shape[-1]), v0 @ dag(v0))
    t1 = np.trace(rho_v0 @ g, axis1=1, axis2=2).real
    t2 = np.trace(rho_v0 @ g @ ww, axis1=1, axis2=2).real
    return _neumann1(p0, t1, t2)


def bound_terms(rho, v, e0: int, a, b, gs):
    """(C(T), p_0, Xi, [Q of each G of gs], the neumann1 (Xi, Q) of gs[0]) of each row of stacks rho, A, B (N, d, d),
    Kraus operators v (N, M, d, d) with no-jump index e0 and ancilla pullbacks gs (N, 2d, 2d), composed on density
    matrices: C(T) = Tr[rho A(T) B], Xi and Q those of the state entering the channel."""
    v0 = v[:, e0]
    sigma = entry_state(rho, b)
    v0_inv = _invertible_factors(v0)[0]
    p0, rho_v0, qs = separable_baseline(sigma, v0, v0_inv, gs)
    xi = _survival_activity(marginal(sigma, v0.shape[-1]), v0_inv)
    return _exact_correlator(rho, v.swapaxes(0, 1), a, b), p0, xi, qs, approx_bound_quantities(p0, rho_v0, gs[0], v0)


def evolution_bound(ch, rho: np.ndarray, g_env: np.ndarray, g0: float, gmax: float) -> EvolutionBoundReport:
    """check_observable_evolution_bound of valid inputs, on G = I_R (x) I_S (x) G_E formed as one matrix."""
    ps = PurifiedState(*_purifications(rho))
    psi_t = final_joint_state(ps, ch)
    g_full = kron(np.eye(ps.dim_s * ch.dim), g_env)
    g_psi = g_full @ psi_t
    mean = float(np.vdot(psi_t, g_psi).real)
    variance = float(np.vdot(g_psi, g_psi).real) - mean * mean
    xi = float(_survival_activity(rho, _no_jump_inverse(ch)))
    base = _tur_report(mean, variance, float(g0), xi)
    deviation = abs(mean - g0)
    cap = math.sqrt(max(gmax * gmax * xi, 0.0))
    return EvolutionBoundReport(
        mean=mean, variance=variance, xi=xi, g0=float(g0), gmax=float(gmax),
        tur_lhs=base.lhs, tur_rhs=base.rhs, tur_holds=base.holds, degenerate=base.degenerate,
        deviation=deviation, deviation_cap=cap,
        evolution_holds=deviation <= cap + TUR_SLACK,
        zero_baseline_case=abs(g0) <= P0_CUTOFF,
    )


def classical_bound(ch, rho: np.ndarray, g_r: np.ndarray, g_s: np.ndarray) -> tuple[float, float, float]:
    """classical_correlation_bound of valid inputs: the value <Psi_RS(0)| G_R (x) G_S(T) |Psi_RS(0)> with G_S(T) the
    Heisenberg-picture observable, and Q_G of G = G_R (x) G_S (x) I_E, formed as one matrix, by check_general_tur."""
    ps = PurifiedState(*_purifications(rho))
    value = float(np.vdot(ps.joint_vector, kron(g_r, _heisenberg(ch.operators, g_s)) @ ps.joint_vector).real)
    q = check_general_tur(kron(kron(g_r, g_s), np.eye(len(ch.operators))), ps, ch).q_baseline
    gmax_r = float(np.max(np.abs(np.linalg.eigvalsh(g_r))))
    gmax_s = float(np.max(np.abs(np.linalg.eigvalsh(g_s))))
    xi = float(_survival_activity(rho, _no_jump_inverse(ch)))
    half = math.sqrt(max((gmax_r * gmax_s) ** 2 * xi, 0.0))
    return (q - half, value, q + half)
