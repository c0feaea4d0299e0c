"""Thermodynamic quantities and inequality checks for TPCP maps.

The central objects: the purified initial state |Psi_RS(0)> = sum_i sqrt(p_i)
|psi_i> (x) |psi_i| on R (x) S, the evolved joint state |Psi_RSE(T)>, the
survival activity Xi = Tr[rho (V_0^dag V_0)^-1] - 1, and the no-cost baseline
Q_G = Re <tilde-Psi(0)| G |Psi_RSE(T)> built from the unnormalized state
|tilde-Psi(0)> = (I_R (x) (V_0^-1)^dag (x) I_E) |Psi_RS(0)> (x) |phi_0>.

The general trade-off checked here is Var[G] / (<G> - Q_G)^2 >= 1 / Xi for any
Hermitian G on R (x) S (x) E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _heisenberg, dv0_dtheta, ensure_dilation
from .errors import ContractError, DegenerateChannel, LayoutError, SingularOperator
from .linalg import (
    SubsystemLayout,
    _spectral,
    basis_vector,
    dag,
    kron,
    outer,
    partial_trace,
    require_density,
    require_hermitian,
)

DEGENERATE_MEAN_ATOL = 1e-10   # |<G> - Q_G| below this is the 0/0 limit of the bound
TUR_SLACK = 1e-9               # numerical slack when comparing lhs >= rhs
P0_CUTOFF = 1e-12
EIGENVECTOR_ATOL = 1e-9


@dataclass(frozen=True)
class PurifiedState:
    """Canonical purification of rho_S(0) with R a copy of S.

    probabilities: eigenvalues of rho (descending); basis: the matching
    eigenvectors as columns; joint_vector: sum_i sqrt(p_i) |psi_i>|psi_i> on
    R (x) S.
    """

    probabilities: np.ndarray
    basis: np.ndarray
    joint_vector: np.ndarray

    @property
    def dim_s(self) -> int:
        return self.basis.shape[0]

    def rho(self) -> np.ndarray:
        return (self.basis * self.probabilities) @ dag(self.basis)


def purify(rho: np.ndarray) -> PurifiedState:
    return _purify(require_density(rho))


def _purify(rho: np.ndarray) -> PurifiedState:
    w, v = np.linalg.eigh(rho)
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    w[w < 0.0] = 0.0
    w = w / w.sum()
    joint = np.einsum("i,ri,si->rs", np.sqrt(w), v, v).reshape(-1)
    return PurifiedState(probabilities=w, basis=v, joint_vector=joint)


def final_joint_state(ps: PurifiedState, ch: KrausChannel) -> np.ndarray:
    """|Psi_RSE(T)> = (I_R (x) U_SE)(|Psi_RS(0)> (x) |e0>), synthesizing U if needed."""
    ch = ensure_dilation(ch)
    dil = ch.dilation
    d_r = ps.joint_vector.size // ps.dim_s
    if ps.dim_s != ch.dim:
        raise LayoutError(f"purification on dim {ps.dim_s} but channel on dim {ch.dim}")
    v = kron(ps.joint_vector, basis_vector(dil.env_dim, dil.env_initial))
    return (v.reshape(d_r, -1) @ dil.unitary.T).reshape(-1)


def tilde_initial_state(ps: PurifiedState, ch: KrausChannel) -> np.ndarray:
    """Unnormalized |tilde-Psi_RSE(0)>; requires V_0 invertible."""
    m = dag(ch.no_jump_spectrum.inverse() @ dag(ch.v0))
    d_r = ps.joint_vector.size // ps.dim_s
    v_rs = (ps.joint_vector.reshape(d_r, -1) @ m.T).reshape(-1)   # (I_R (x) M) on R (x) S
    return kron(v_rs, basis_vector(len(ch.operators), ch.no_jump_index))   # a dilation has one E state per operator


def survival_activity(rho: np.ndarray, ch: KrausChannel) -> float:
    """Xi = Tr[rho (V_0^dag V_0)^-1] - 1 (>= 0 since V_0^dag V_0 <= I)."""
    return _survival_activity(require_density(rho), ch)


def _survival_activity(rho: np.ndarray, ch: KrausChannel) -> float:
    return float(np.trace(rho @ ch.no_jump_spectrum.inverse()).real) - 1.0


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
    return [float(t[0]) for t in _survival_activity_protocol_sim(rho[None], dil.unitary, dil.env_initial, order)]


def _survival_activity_protocol_sim(rho: np.ndarray, unitary: np.ndarray, e0: int, order: int) -> list[np.ndarray]:
    """The protocol's moments of each row of the stacks rho (N, d, d) and dilation unitaries (or one for all rows)."""
    d, d_e = rho.shape[-1], unitary.shape[-1] // rho.shape[-1]
    env = outer(basis_vector(d_e, e0))
    moments = [np.trace(rho, axis1=1, axis2=2).real]
    sigma = rho
    for n in range(order):
        u = unitary if n % 2 == 0 else dag(unitary)
        big = u @ kron(sigma, env) @ dag(u)
        sigma = big.reshape(-1, d, d_e, d, d_e)[:, :, e0, :, e0]   # project E onto |e0> (unnormalized)
        moments.append(np.trace(sigma, axis1=1, axis2=2).real)
    return moments


def q_baseline_general(g: np.ndarray, ps: PurifiedState, ch: KrausChannel) -> float:
    """Q_G = Re <tilde-Psi(0)| G |Psi_RSE(T)>."""
    return _q_baseline_general(require_hermitian(g, name="observable G"), ps, ch)


def _q_baseline_general(g: np.ndarray, ps: PurifiedState, ch: KrausChannel) -> float:
    psi_t = final_joint_state(ps, ch)
    if g.shape[0] != psi_t.size:
        raise LayoutError(f"G has dimension {g.shape[0]}, joint state has {psi_t.size}")
    tilde = tilde_initial_state(ps, ch)
    return float(np.vdot(tilde, g @ psi_t).real)


def separable_baseline(sigma: np.ndarray, v0: np.ndarray, g0: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(p_0, rho^V0, Q) of a state sigma on X (x) S, X any register left alone by the channel.

    p_0 = Tr[sigma_S V_0^dag V_0] with sigma_S the S marginal,
    rho^V0 = (I_X (x) V_0) sigma (I_X (x) V_0^dag) / p_0 and the no-cost
    baseline of a separable observable with E = |phi_0> block G_0 is
    Q = p_0 Tr[rho^V0 H] with H = (1/2) {G_0, I_X (x) (V_0 V_0^dag)^-1}.
    X is the purifying copy R of S or the protocol ancilla S'.
    """
    d_s = v0.shape[0]
    d_x = sigma.shape[0] // d_s
    try:
        winv = kron(np.eye(d_x), _spectral(v0 @ dag(v0)).inverse())
    except SingularOperator as exc:
        raise SingularOperator("no-jump operator V_0 is singular", eigenvalue=exc.eigenvalue) from None
    sigma_s = partial_trace(sigma, SubsystemLayout((d_x, d_s)), keep=[1])
    p0 = float(np.trace(sigma_s @ dag(v0) @ v0).real)
    if p0 <= P0_CUTOFF:
        raise DegenerateChannel(f"no-jump probability {p0:.3e} is numerically zero")
    lift = kron(np.eye(d_x), v0)
    rho_v0 = lift @ sigma @ dag(lift) / p0
    h = 0.5 * (g0 @ winv + winv @ g0)
    return p0, rho_v0, p0 * float(np.trace(rho_v0 @ h).real)


def q_baseline_separable(g0: np.ndarray, ps: PurifiedState, ch: KrausChannel) -> float:
    """No-cost baseline for a separable observable, from its E = |phi_0> block G_0.

    The Q of separable_baseline on the purified state |Psi_RS(0)>.
    """
    g0 = require_hermitian(g0, name="observable block G_0")
    d_r = ps.joint_vector.size // ps.dim_s
    if g0.shape[0] != d_r * ps.dim_s:
        raise LayoutError(f"G_0 has dimension {g0.shape[0]}, R+S has {d_r * ps.dim_s}")
    return separable_baseline(outer(ps.joint_vector), ch.v0, g0)[2]


def qfi(ch: KrausChannel, ps: PurifiedState) -> float:
    """Quantum Fisher information of the virtual perturbation at theta = 0.

    J = 4 [<H_1> - <H_2>^2] with H_1 = sum_m dV_m^dag dV_m and
    H_2 = i sum_m dV_m^dag V_m, expectations over the initial purified state
    (equivalently over rho_S(0)). Equals the survival activity.
    """
    d0 = dv0_dtheta(ch)
    derivs = [d0 if i == ch.no_jump_index else 0.5 * v for i, v in enumerate(ch.operators)]
    h1 = sum(dag(d) @ d for d in derivs)
    h2 = 1j * sum(dag(d) @ v for d, v in zip(derivs, ch.operators))
    rho = ps.rho()
    e1 = float(np.trace(rho @ h1).real)
    e2 = float(np.trace(rho @ h2).real)
    return 4.0 * (e1 - e2 * e2)


@dataclass(frozen=True)
class SldOperator:
    """Symmetric logarithmic derivative of the perturbed final state at theta = 0."""

    matrix: np.ndarray


def sld(ps: PurifiedState, ch: KrausChannel) -> SldOperator:
    """L = 2 d/dtheta |Psi_theta><Psi_theta| at theta = 0.

    For the pure family this is 2|Psi(T)><Psi(T)| - |tilde><Psi(T)| -
    |Psi(T)><tilde|; the overall scale is fixed by the finite-difference
    definition L = 2 d_theta rho, which observable-based saturation checks
    rely on.
    """
    ch = ensure_dilation(ch)
    psi_t = final_joint_state(ps, ch)
    tilde = tilde_initial_state(ps, ch)
    l = 2.0 * outer(psi_t) - np.outer(tilde, psi_t.conj()) - np.outer(psi_t, tilde.conj())
    return SldOperator(matrix=(l + dag(l)) / 2.0)


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
    def ratio(self) -> float:
        """lhs / rhs = Var * Xi / (<G> - Q)^2; 1 at saturation."""
        if self.degenerate:
            return math.inf
        return self.variance * self.xi / (self.mean - self.q_baseline) ** 2


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


def mean_and_variance(g: np.ndarray, state: np.ndarray) -> tuple[float, float]:
    """<G> and Var[G] over a pure state vector."""
    w = g @ state
    mean = float(np.vdot(state, w).real)
    second = float(np.vdot(w, w).real)
    return mean, second - mean * mean


def check_general_tur(g: np.ndarray, ps: PurifiedState, ch: KrausChannel) -> TurReport:
    """Evaluate Var[G] / (<G> - Q_G)^2 >= 1 / Xi over |Psi_RSE(T)>."""
    g = require_hermitian(g, name="observable G")
    ch = ensure_dilation(ch)
    psi_t = final_joint_state(ps, ch)
    if g.shape[0] != psi_t.size:
        raise LayoutError(f"G has dimension {g.shape[0]}, joint state has {psi_t.size}")
    mean, variance = mean_and_variance(g, psi_t)
    tilde = tilde_initial_state(ps, ch)
    q = float(np.vdot(tilde, g @ psi_t).real)
    xi = _survival_activity(ps.rho(), ch)
    return _tur_report(mean, variance, q, xi)


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

    G = I_R (x) I_S (x) G_E where G_E has the environment's initial basis state
    as an eigenvector with eigenvalue g_0, and gmax is its largest absolute
    eigenvalue. When g_0 = 0 the first inequality is the bare precision bound
    Var[G]/<G>^2 >= 1/Xi.
    """
    ch = ensure_dilation(ch)
    g_env = require_hermitian(g_env, name="environment observable")
    n_env = ch.dilation.env_dim
    if g_env.shape[0] != n_env:
        raise LayoutError(f"environment observable dim {g_env.shape[0]} != env dim {n_env}")
    e0 = basis_vector(n_env, ch.no_jump_index)
    residual = g_env @ e0 - g0 * e0
    if float(np.max(np.abs(residual))) > EIGENVECTOR_ATOL:
        raise ContractError(f"g0={g0:g} is not the eigenvalue of G_E on the no-jump basis state")
    eigs = np.linalg.eigvalsh(g_env)
    true_gmax = float(np.max(np.abs(eigs)))
    if abs(true_gmax - gmax) > EIGENVECTOR_ATOL:
        raise ContractError(f"gmax={gmax:g} does not match the spectrum (max |eig| = {true_gmax:g})")
    rho = require_density(rho)
    ps = _purify(rho)
    psi_t = final_joint_state(ps, ch)
    g_full = kron(np.eye(ps.dim_s * ch.dim), g_env)
    mean, variance = mean_and_variance(g_full, psi_t)
    xi = _survival_activity(rho, ch)
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

    Returns (lower, value, upper) where value = <Psi_RS(0)| G_R (x) G_S(T)
    |Psi_RS(0)> (the classical cross-correlation in the commuting limit) and
    the bounds are Q_G +- sqrt(gmax^2 Xi) for G = G_R (x) G_S (x) I_E.
    """
    g_r = require_hermitian(g_r, name="G_R")
    g_s = require_hermitian(g_s, name="G_S")
    rho = require_density(rho)
    ps = _purify(rho)
    if g_r.shape[0] != ps.dim_s or g_s.shape[0] != ch.dim:
        raise LayoutError("G_R must act on R (copy of S) and G_S on S")
    value = float(np.vdot(ps.joint_vector, kron(g_r, _heisenberg(ch.operators, g_s)) @ ps.joint_vector).real)
    ch = ensure_dilation(ch)
    g_full = kron(kron(g_r, g_s), np.eye(ch.dilation.env_dim))
    q = _q_baseline_general(g_full, ps, ch)
    gmax_r = float(np.max(np.abs(np.linalg.eigvalsh(g_r))))
    gmax_s = float(np.max(np.abs(np.linalg.eigvalsh(g_s))))
    xi = _survival_activity(rho, ch)
    half = math.sqrt(max((gmax_r * gmax_s) ** 2 * xi, 0.0))
    return (q - half, value, q + half)
