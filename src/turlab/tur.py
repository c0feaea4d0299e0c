"""Thermodynamic quantities and inequality checks for TPCP maps.

The central objects: the purified initial state |Psi_RS(0)> = sum_i sqrt(p_i)
|psi_i> (x) |psi_i| on R (x) S, the evolved joint state |Psi_RSE(T)>, the
survival activity Xi = Tr[rho (V_0^dag V_0)^-1] - 1, and the no-cost baseline
Q_G = Re <tilde-Psi(0)| G |Psi_RSE(T)> built from the unnormalized state
|tilde-Psi(0)> = (I_R (x) (V_0^-1)^dag (x) I_E) |Psi_RS(0)> (x) |phi_0>.

The general trade-off checked here is Var[G] / (<G> - Q_G)^2 >= 1 / Xi for any
Hermitian G on R (x) S (x) E. <G>, Var[G] and Q_G have one formula,
_general_tur_terms on the state pair of _joint_states, for all three trade-off
families: protocol's correlator bound composes it, and the evolution and
classical-correlation bounds are one-row views of _product_terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _kraus_derivatives, _no_jump_inverse, ensure_dilation
from .errors import ContractError, LayoutError
from .linalg import basis_vector, dag, outer, require_density, require_hermitian

DEGENERATE_MEAN_ATOL = 1e-10   # |<G> - Q_G| below this is the 0/0 limit of the bound
TUR_SLACK = 1e-9               # numerical slack when comparing lhs >= rhs
P0_CUTOFF = 1e-12
EIGENVECTOR_ATOL = 1e-9
ROOT_CUTOFF = 1e-14            # a smaller pivot of _roots is rounding: the state has no weight left


@dataclass(frozen=True)
class PurifiedState:
    """Canonical purification of rho_S(0) with R a copy of S, or of each of a stack with a leading axis on each field.

    probabilities: eigenvalues of rho (descending); basis: the matching
    eigenvectors as columns; joint_vector: sum_i sqrt(p_i) |psi_i>|psi_i> on
    R (x) S.
    """

    probabilities: np.ndarray
    basis: np.ndarray
    joint_vector: np.ndarray

    @property
    def dim_s(self) -> int:
        return self.basis.shape[-1]

    def rho(self) -> np.ndarray:
        return (self.basis * self.probabilities[..., None, :]) @ dag(self.basis)


def purify(rho: np.ndarray) -> PurifiedState:
    return PurifiedState(*_purifications(require_density(rho)))


def _purifications(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The probabilities (d,), basis (d, d) and joint vector (d d,) of the purification of rho, or of each density
    matrix of a stack (N, d, d) with a leading axis on each."""
    w, v = np.linalg.eigh(rho)
    w, v = w[..., ::-1].copy(), v[..., ::-1].copy()
    w[w < 0.0] = 0.0
    w = w / w.sum(axis=-1, keepdims=True)
    return w, v, np.einsum("...i,...ri,...si->...rs", np.sqrt(w), v, v).reshape(w.shape[:-1] + (-1,))


def _roots(rho: np.ndarray) -> np.ndarray:
    """Roots x (N, d, r) of a stack of density matrices (N, d, d), x x^dag = rho, by Cholesky with diagonal pivoting:
    each column is that of the residual's largest diagonal entry p, over sqrt(p). A pivot at or below ROOT_CUTOFF
    gives a zero column and r stops at the largest numerical rank of the rows, so a pure state is its one column
    rho[:, k] / sqrt(rho[k, k]) to the last bit, whatever stack it is in."""
    rows, res, cols = np.arange(len(rho)), rho, []
    for _ in range(rho.shape[-1]):
        diag = np.diagonal(res, axis1=1, axis2=2).real
        k, pivot = diag.argmax(axis=1), diag.max(axis=1)
        if not (pivot > ROOT_CUTOFF).any():
            break
        cols.append(res[rows, :, k] / np.sqrt(np.where(pivot > ROOT_CUTOFF, pivot, np.inf))[:, None])
        res = res - cols[-1][:, :, None] * cols[-1].conj()[:, None, :]
    return np.stack(cols, axis=-1)


def _branches(joint: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """sum_m (I_R (x) K_m)|Psi_RS> (x) |m> on R (x) S (x) E of a vector joint (d_R d_S,) and operators
    ops (M, d_S, d_S), or of each row of stacks (N, ...) of them: the joint state a Kraus family leaves, one branch
    per operator on the last factor."""
    psi = joint.reshape(joint.shape[:-1] + (1, -1, ops.shape[-1])) @ ops.swapaxes(-1, -2)   # [..., m, R, S]
    return psi.swapaxes(-3, -2).swapaxes(-2, -1).reshape(joint.shape[:-1] + (-1,))


def _joint_states(joint: np.ndarray, v: np.ndarray, e0: int, v0_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|Psi_RSE(T)>, |tilde-Psi_RSE(0)>) of a joint vector on R (x) S, Kraus operators v (M, d_S, d_S) with no-jump
    index e0 and V_0^-1, or of each row of stacks (N, ...) of them: the branches of v and of (V_0^-1)^dag on e0."""
    ops = np.zeros(v0_inv.shape[:-2] + v.shape[-3:], dtype=complex)
    ops[..., e0, :, :] = dag(v0_inv)
    return _branches(joint, v), _branches(joint, ops)


def final_joint_state(ps: PurifiedState, ch: KrausChannel) -> np.ndarray:
    """|Psi_RSE(T)> = sum_m (I_R (x) V_m)|Psi_RS(0)> (x) |m>, which a dilation's (I_R (x) U_SE) leaves from |e0>."""
    if ps.dim_s != ch.dim:
        raise LayoutError(f"purification on dim {ps.dim_s} but channel on dim {ch.dim}")
    return _branches(ps.joint_vector, np.array(ch.operators))


def tilde_initial_state(ps: PurifiedState, ch: KrausChannel) -> np.ndarray:
    """Unnormalized |tilde-Psi_RSE(0)>; requires V_0 invertible."""
    return _joint_states(ps.joint_vector, np.array(ch.operators), ch.no_jump_index, _no_jump_inverse(ch))[1]


def survival_activity(rho: np.ndarray, ch: KrausChannel) -> float:
    """Xi = Tr[rho (V_0^dag V_0)^-1] - 1 (>= 0 since V_0^dag V_0 <= I)."""
    return float(_survival_activity(require_density(rho), _no_jump_inverse(ch)))


def _survival_activity(rho: np.ndarray, v0_inv: np.ndarray):
    """Xi of one state and V_0^-1, or of each row of stacks of them (N, d, d); (V_0^dag V_0)^-1 = V_0^-1 V_0^-dag."""
    return np.trace(rho @ v0_inv @ dag(v0_inv), axis1=-2, axis2=-1).real - 1.0


def survival_activity_moments(rho: np.ndarray, ch: KrausChannel, order: int) -> list[float]:
    """Moments Tr[rho (V_0^dag V_0)^n] for n = 0..order, by direct matrix powers."""
    return [float(t[0]) for t in _survival_activity_moments(rho[None], ch.v0, order)]


def _survival_activity_moments(rho: np.ndarray, v0: np.ndarray, order: int) -> list[np.ndarray]:
    """The moments of each row of the stacks rho and v0 (N, d, d) (or one v0 for all rows), one array per n."""
    w = dag(v0) @ v0
    moments = []
    acc = np.eye(rho.shape[-1], dtype=complex)
    for _ in range(order + 1):
        moments.append(np.trace(rho @ acc, axis1=1, axis2=2).real)
        acc = acc @ w
    return moments


def survival_activity_series(rho: np.ndarray, ch: KrausChannel, order: int) -> list[float]:
    """Truncated estimates of Xi for N = 1..order.

    Xi_N = sum_{n=0}^{N} (-1)^n C(N+1, n+1) Tr[rho (V_0^dag V_0)^n] - 1,
    the partial sum of the Neumann series of (V_0^dag V_0)^-1 after binomial
    expansion. The N = 1 estimate is exactly 1 - p_0.
    """
    if order < 1:
        raise ContractError("series order must be >= 1")
    return _series_estimates(survival_activity_moments(require_density(rho), ch, order))


def _series_estimates(t: list) -> list:
    """Xi_N for N = 1..len(t) - 1 from the moments t[n] (floats, or arrays over a stack)."""
    return [sum((-1) ** n * math.comb(n_max + 1, n + 1) * t[n] for n in range(n_max + 1)) - 1.0
            for n_max in range(1, len(t))]


def survival_activity_protocol_sim(rho: np.ndarray, ch: KrausChannel, order: int) -> list[float]:
    """Moments Tr[rho (V_0^dag V_0)^n] via the iterative dilation protocol.

    Alternates evolution by V_0 (apply U, project E onto its initial state) and
    V_0^dag (apply U^dag, project); the trace of the unnormalized state after n
    rounds is the n-th moment.
    """
    if order < 0:
        raise ContractError("order must be >= 0")
    rho = require_density(rho)
    dil = ensure_dilation(ch).dilation
    x = _purifications(rho)[2].reshape((1,) + rho.shape)
    return [float(t[0]) for t in _survival_activity_protocol_sim(x, dil.unitary, dil.env_initial, order)]


def _survival_activity_protocol_sim(x: np.ndarray, unitary: np.ndarray, e0: int, order: int) -> list[np.ndarray]:
    """The protocol's moments of each row of stacks of roots x (N, d, r) of rho and dilation unitaries (or one for
    all rows): round n applies U (n odd) or U^dag to x_{n-1} (x) |e0> and keeps the E = e0 component x_n, and the
    n-th moment is ||x_n||_F^2."""
    n_rows, d, r = x.shape
    d_e = unitary.shape[-1] // d
    moments = [(np.abs(x) ** 2).sum(axis=(1, 2))]
    for n in range(order):
        u = unitary if n % 2 == 0 else dag(unitary)
        psi = np.zeros((n_rows, d, d_e, r), dtype=complex)
        psi[:, :, e0] = x
        x = (u @ psi.reshape(n_rows, d * d_e, r)).reshape(n_rows, d, d_e, r)[:, :, e0]
        moments.append((np.abs(x) ** 2).sum(axis=(1, 2)))
    return moments


def qfi(ch: KrausChannel, ps: PurifiedState) -> float:
    """Quantum Fisher information of the virtual perturbation at theta = 0.

    J = 4 [<H_1> - <H_2>^2] with H_1 = sum_m dV_m^dag dV_m and
    H_2 = i sum_m dV_m^dag V_m, expectations over the initial purified state
    (equivalently over rho_S(0)). Equals the survival activity.
    """
    v, v0_inv = np.array(ch.operators)[None], _no_jump_inverse(ch, "V_0 must be invertible for dV_0/dtheta")
    return float(_qfi(v, _kraus_derivatives(v, ch.no_jump_index, v0_inv[None]), ps.rho()[None])[0])


def _qfi(v: np.ndarray, derivs: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """J of each row of stacks of Kraus operators, their derivatives (N, M, d, d) and states rho (N, d, d)."""
    h1 = (dag(derivs) @ derivs).sum(axis=1)
    h2 = 1j * (dag(derivs) @ v).sum(axis=1)
    e1 = np.trace(rho @ h1, axis1=1, axis2=2).real
    e2 = np.trace(rho @ h2, axis1=1, axis2=2).real
    return 4.0 * (e1 - e2 * e2)


def sld(ps: PurifiedState, ch: KrausChannel) -> np.ndarray:
    """The symmetric logarithmic derivative L = 2 d/dtheta |Psi_theta><Psi_theta| of the perturbed final state at
    theta = 0.

    For the pure family this is 2|Psi(T)><Psi(T)| - |tilde><Psi(T)| -
    |Psi(T)><tilde|; the overall scale is fixed by the finite-difference
    definition L = 2 d_theta rho, which observable-based saturation checks
    rely on.
    """
    return _sld(final_joint_state(ps, ch)[None], tilde_initial_state(ps, ch)[None])[0]


def _sld(psi: np.ndarray, tilde: np.ndarray) -> np.ndarray:
    """L of each row of stacks (N, D) of |Psi(T)> and |tilde-Psi(0)>."""
    l = 2.0 * outer(psi) - tilde[:, :, None] * psi.conj()[:, None, :] - psi[:, :, None] * tilde.conj()[:, None, :]
    return (l + dag(l)) / 2.0


@dataclass(frozen=True)
class TurReport:
    """One evaluation of the general trade-off for an observable."""

    mean: float
    variance: float
    q_baseline: float
    xi: float
    lhs: float
    rhs: float
    holds: bool
    margin: float
    degenerate: bool

    @property
    def ratio(self):
        """lhs / rhs = Var * Xi / (<G> - Q)^2; 1 at saturation, inf if degenerate (elementwise for an array report)."""
        with np.errstate(all="ignore"):
            ratio = np.where(self.degenerate, math.inf,
                             self.variance * self.xi / np.float_power(self.mean - self.q_baseline, 2.0))
        return ratio.item() if ratio.ndim == 0 else ratio


def _tur_report(mean, variance, q, xi) -> TurReport:
    """The trade-off report of floats, or elementwise of equal-shape arrays.

    Float arguments give Python floats and bools, array arguments arrays. The
    square is float_power, the libm pow of Python's ``x ** 2``, not numpy's x*x.
    """
    mean, variance, q, xi = (np.asarray(x, dtype=float) for x in (mean, variance, q, xi))
    with np.errstate(all="ignore"):
        degenerate = np.abs(mean - q) <= DEGENERATE_MEAN_ATOL
        lhs = np.where(degenerate, math.inf, np.maximum(variance, 0.0) / np.float_power(mean - q, 2.0))
        rhs = np.where(xi > P0_CUTOFF, 1.0 / xi, math.inf)
        # xi = 0 forces <G> = Q exactly; a finite lhs there means both are at noise level.
        no_rhs = np.isinf(rhs) & ~degenerate
        margin = np.where(degenerate | (no_rhs & np.isinf(lhs)), math.inf, np.where(no_rhs, -math.inf, lhs - rhs))
    holds = margin >= -TUR_SLACK
    fields = (mean, variance, q, xi, lhs, rhs, holds, margin, degenerate)
    return TurReport(*((f.item() for f in fields) if mean.ndim == 0 else fields))


def _inner(bra: np.ndarray, ket: np.ndarray):
    """Re <bra|ket> of two vectors, or of each row of stacks (N, D) of them; one BLAS dot each, np.vdot's bits."""
    return (bra.conj()[..., None, :] @ ket[..., :, None])[..., 0, 0].real


def _general_tur_terms(psi: np.ndarray, g_psi: np.ndarray, tilde: np.ndarray):
    """<G>, Var[G] and Q_G = Re <tilde-Psi(0)|G|Psi(T)> from |Psi(T)>, G|Psi(T)> and |tilde-Psi(0)>, or of each row
    of stacks (N, D) of them."""
    mean = _inner(psi, g_psi)
    return mean, _inner(g_psi, g_psi) - mean * mean, _inner(tilde, g_psi)


def _product_terms(joint, v, e0: int, v0_inv, g_r, g_s, g_e):
    """<G>, Var[G] and Q_G of G = G_R (x) G_S (x) G_E over the _joint_states of each row of stacks: joint vectors
    (N, d_R d_S), Kraus operators v (N, M, d_S, d_S), V_0^-1 and the factors (N, d, d) on R, S and E, each one
    batched matmul on its own axis of |Psi_RSE(T)>."""
    psi, tilde = _joint_states(joint, v, e0, v0_inv)
    g_psi = g_s[:, None] @ (psi.reshape(g_r.shape[:-1] + (v.shape[-1], -1)) @ g_e[:, None].swapaxes(-1, -2))
    return _general_tur_terms(psi, (g_r @ g_psi.reshape(g_r.shape[:-1] + (-1,))).reshape(psi.shape), tilde)


def check_general_tur(g: np.ndarray, ps: PurifiedState, ch: KrausChannel) -> TurReport:
    """Evaluate Var[G] / (<G> - Q_G)^2 >= 1 / Xi over |Psi_RSE(T)>."""
    g = require_hermitian(g, name="observable G")
    psi_t = final_joint_state(ps, ch)
    if g.shape[0] != psi_t.size:
        raise LayoutError(f"G has dimension {g.shape[0]}, joint state has {psi_t.size}")
    terms = _general_tur_terms(psi_t, g @ psi_t, tilde_initial_state(ps, ch))
    return _tur_report(*terms, _survival_activity(ps.rho(), _no_jump_inverse(ch)))


def _product_row(ch: KrausChannel, rho: np.ndarray, g_r, g_s, g_e) -> tuple[float, float, float, float]:
    """(<G>, Var[G], Q_G, Xi) of one row of _product_terms, on the canonical (eigh) purification of a valid rho."""
    if not rho.shape[-1] == g_r.shape[-1] == g_s.shape[-1] == ch.dim:
        raise LayoutError(f"rho, G_R (on R, a copy of S) and G_S must act on the channel's system of dim {ch.dim}")
    v0_inv = _no_jump_inverse(ch)
    terms = _product_terms(_purifications(rho[None])[2], np.stack(ch.operators)[None], ch.no_jump_index,
                           v0_inv[None], g_r[None], g_s[None], g_e[None])
    return (*(float(t[0]) for t in terms), float(_survival_activity(rho, v0_inv)))


@dataclass(frozen=True)
class EvolutionBoundReport:
    """Trade-off for an environment observable against its no-jump eigenvalue g_0."""

    mean: float
    variance: float
    xi: float
    g0: float
    gmax: float
    tur_lhs: float
    tur_rhs: float
    tur_holds: bool
    degenerate: bool
    deviation: float
    deviation_cap: float
    evolution_holds: bool
    zero_baseline_case: bool


def check_observable_evolution_bound(
    ch: KrausChannel,
    rho: np.ndarray,
    g_env: np.ndarray,
    g0: float,
    gmax: float,
) -> EvolutionBoundReport:
    """Check Var[G]/(<G> - g_0)^2 >= 1/Xi and |<G> - g_0| <= sqrt(gmax^2 Xi).

    G = I_R (x) I_S (x) G_E where G_E has the environment's initial basis state as an eigenvector with eigenvalue
    g_0, and gmax is its largest absolute eigenvalue. When g_0 = 0 the first inequality is the bare precision bound
    Var[G]/<G>^2 >= 1/Xi. <G> and Var[G] are a one-row view of _product_terms (G_R = G_S = I, so Q_G = g_0) on the
    canonical purification: G is trivial on R, so any root of rho would do, but one root path serves both bounds.
    """
    g_env = require_hermitian(g_env, name="environment observable")
    n_env = len(ch.operators)
    if g_env.shape[0] != n_env:
        raise LayoutError(f"environment observable dim {g_env.shape[0]} != env dim {n_env}")
    if np.max(np.abs(g_env[:, ch.no_jump_index] - g0 * basis_vector(n_env, ch.no_jump_index))) > EIGENVECTOR_ATOL:
        raise ContractError(f"g0={g0:g} is not the eigenvalue of G_E on the no-jump basis state")
    true_gmax = float(np.max(np.abs(np.linalg.eigvalsh(g_env))))
    if abs(true_gmax - gmax) > EIGENVECTOR_ATOL:
        raise ContractError(f"gmax={gmax:g} does not match the spectrum (max |eig| = {true_gmax:g})")
    eye = np.eye(ch.dim)
    mean, variance, _, xi = _product_row(ch, require_density(rho), eye, eye, g_env)
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


def classical_correlation_bound(
    ch: KrausChannel,
    rho: np.ndarray,
    g_r: np.ndarray,
    g_s: np.ndarray,
) -> tuple[float, float, float]:
    """Two-time correlation <G_R (x) G_S(T)> on the purification, with its bounds.

    Returns (lower, value, upper), the one-row view of _product_terms for G = G_R (x) G_S (x) I_E: value = <G> =
    <Psi_RS(0)| G_R (x) sum_m V_m^dag G_S V_m |Psi_RS(0)> (the classical cross-correlation in the commuting limit)
    on the canonical purification, on which it depends as G_R acts on R; the bounds are Q_G +- sqrt(gmax^2 Xi).
    """
    g_r = require_hermitian(g_r, name="G_R")
    g_s = require_hermitian(g_s, name="G_S")
    value, _, q, xi = _product_row(ch, require_density(rho), g_r, g_s, np.eye(len(ch.operators)))
    gmax = math.prod(float(np.max(np.abs(np.linalg.eigvalsh(g)))) for g in (g_r, g_s))
    half = math.sqrt(max(gmax ** 2 * xi, 0.0))
    return (q - half, value, q + half)
