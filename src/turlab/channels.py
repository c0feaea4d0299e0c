"""TPCP maps as Kraus families with unitary dilations.

A channel is an ordered family {V_m} of dim_S x dim_S operators satisfying the
completeness relation sum_m V_m^dag V_m = I. One index is distinguished as the
no-jump operator V_0: the Kraus operator for the environment outcome equal to
its initial basis state. When a channel is built from a dilation U_SE, the
operators are V_m = (I_S (x) <phi_m|) U_SE (I_S (x) |e0>) with {|phi_m>} the
computational basis of E; zero operators are retained so that environment
outcome indexing stays aligned with circuit postselection.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ContractError, LayoutError
from .linalg import (
    UNITARY_ATOL,
    SubsystemLayout,
    _invertible_factors,
    _no_jump_factors,
    _raise_first_failure,
    _singular_rows,
    _unitary_check,
    dag,
    max_abs,
    require_density,
    require_hermitian,
    require_unitary,
)

COMPLETENESS_ATOL = 1e-9
DILATION_ATOL = 1e-10
ADMISSIBILITY_MARGIN = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dilation:
    """Unitary U_SE on S (x) E together with the environment's initial basis index."""

    unitary: np.ndarray
    env_dim: int
    env_initial: int = 0

    def __post_init__(self):
        object.__setattr__(self, "unitary", _freeze(require_unitary(self.unitary, name="dilation unitary")))
        if not 0 <= self.env_initial < self.env_dim:
            raise LayoutError(f"env_initial {self.env_initial} out of range for env_dim {self.env_dim}")


def _extract_kraus(u: np.ndarray, dim_s: int, dim_e: int, env_initial: int) -> np.ndarray:
    """Kraus operators (dim_e, dim_s, dim_s) of a dilation unitary, or (N, dim_e, dim_s, dim_s) of each of a stack."""
    t = u.reshape(u.shape[:-2] + (dim_s, dim_e, dim_s, dim_e))[..., env_initial]
    return np.ascontiguousarray(t.swapaxes(-3, -2))


@dataclass(frozen=True)
class KrausChannel:
    operators: tuple[np.ndarray, ...]
    no_jump_index: int = 0
    dilation: Dilation | None = None

    def __post_init__(self):
        ops = tuple(_freeze(op) for op in self.operators)
        if not ops:
            raise ContractError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for op in ops:
            if op.shape != (d, d):
                raise ContractError(f"Kraus operators must all be {d}x{d}, got {op.shape}")
        object.__setattr__(self, "operators", ops)
        if not 0 <= self.no_jump_index < len(ops):
            raise ContractError(f"no_jump_index {self.no_jump_index} out of range")
        err = max_abs(sum(dag(v) @ v for v in ops) - np.eye(d))
        if err > COMPLETENESS_ATOL:
            raise ContractError(f"completeness violated: max |sum V^dag V - I| = {err:.3e}")
        if self.dilation is not None:
            if self.dilation.env_initial != self.no_jump_index:
                raise ContractError(
                    f"no_jump_index {self.no_jump_index} differs from the dilation's "
                    f"env_initial {self.dilation.env_initial}"
                )
            if self.dilation.unitary.shape[0] != d * self.dilation.env_dim:
                raise LayoutError("dilation dimension inconsistent with Kraus operators")
            extracted = _extract_kraus(self.dilation.unitary, d, self.dilation.env_dim, self.dilation.env_initial)
            if len(extracted) != len(ops):
                raise ContractError("dilation yields a different number of Kraus operators")
            worst = max_abs(extracted - np.stack(ops))
            if worst > DILATION_ATOL:
                raise ContractError(f"dilation does not reproduce the Kraus operators: {worst:.3e}")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @property
    def v0(self) -> np.ndarray:
        return self.operators[self.no_jump_index]


def _no_jump_inverse(ch: KrausChannel, message: str = "matrix is singular, inverse undefined") -> np.ndarray:
    """V_0^-1 of a channel; SingularOperator(message) if V_0 is singular."""
    return _invertible_factors(ch.v0[None], message=message)[0][0]


def kraus_from_unitary(u: np.ndarray, layout: SubsystemLayout, env_initial: int = 0) -> KrausChannel:
    """Build the channel of a unitary dilation, one Kraus operator per E basis state."""
    if layout.nfactors != 2:
        raise LayoutError(f"expected a two-factor (S, E) layout, got {layout.dims}")
    dim_s, dim_e = layout.dims
    dilation = Dilation(layout.require_matches(u), dim_e, env_initial)   # checks unitarity
    ops = _extract_kraus(dilation.unitary, dim_s, dim_e, env_initial)
    return KrausChannel(ops, no_jump_index=env_initial, dilation=dilation)


def _checked_kraus(u: np.ndarray, dim_s: int, label) -> np.ndarray:
    """The Kraus operators (N, M, d, d) of a stack of dilation unitaries u (N, d M, d M) on S (x) E, E starting in 0,
    each row checked as kraus_from_unitary checks its channel: the unitary is unitary and its operators are complete;
    label(row) prefixes a failing row's message."""
    v = _extract_kraus(u, dim_s, u.shape[-1] // dim_s, 0)
    complete_err = np.abs((dag(v) @ v).sum(axis=1) - np.eye(dim_s)).max(axis=(1, 2))
    _raise_first_failure([
        _unitary_check(u, UNITARY_ATOL, "dilation unitary"),
        (complete_err > COMPLETENESS_ATOL, lambda n: ContractError(
            f"completeness violated: max |sum V^dag V - I| = {complete_err[n]:.3e}")),
    ], label)
    return v


def synthesize_dilation(ch: KrausChannel) -> Dilation:
    """Complete the stacked Kraus block column into a unitary.

    The isometry K[(s, m), s'] = V_m[s, s'] has orthonormal columns by
    completeness; the remaining columns come from its orthogonal complement.
    """
    d, n_ops = ch.dim, len(ch.operators)
    e0 = ch.no_jump_index
    t = np.stack(ch.operators)  # [m, s, s']
    k = t.transpose(1, 0, 2).reshape(d * n_ops, d)
    q = np.linalg.qr(k, mode="complete")[0]
    u = np.zeros((d * n_ops, d * n_ops), dtype=complex)
    inputs = [s * n_ops + e0 for s in range(d)]
    u[:, inputs] = k
    rest = [c for c in range(d * n_ops) if c not in inputs]
    u[:, rest] = q[:, d:]
    dil = Dilation(u, env_dim=n_ops, env_initial=e0)
    worst = max_abs(_extract_kraus(u, d, n_ops, e0) - t)
    if worst > DILATION_ATOL:  # pragma: no cover - construction guarantees this
        raise ContractError(f"synthesized dilation failed to reproduce operators: {worst:.3e}")
    return dil


def ensure_dilation(ch: KrausChannel) -> KrausChannel:
    if ch.dilation is not None:
        return ch
    return dataclasses.replace(ch, dilation=synthesize_dilation(ch))


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Schroedinger picture: rho -> sum_m V_m rho V_m^dag."""
    rho = require_density(rho)
    if rho.shape[0] != ch.dim:
        raise LayoutError(f"state dimension {rho.shape[0]} != channel dimension {ch.dim}")
    return sum(v @ rho @ dag(v) for v in ch.operators)


def heisenberg(ch: KrausChannel, a: np.ndarray) -> np.ndarray:
    """Heisenberg picture: A -> sum_m V_m^dag A V_m (adjoint of apply)."""
    a = require_hermitian(a, name="observable")
    if a.shape[0] != ch.dim:
        raise LayoutError(f"observable dimension {a.shape[0]} != channel dimension {ch.dim}")
    return _heisenberg(ch.operators, a)


def _heisenberg(ops, a: np.ndarray) -> np.ndarray:
    """sum_m V_m^dag A V_m; or of each row, for stacks A and ops[m] (N, d, d)."""
    return sum(dag(v) @ a @ v for v in ops)


def perturbed_kraus(ch: KrausChannel, theta: float) -> tuple[np.ndarray, ...]:
    """Kraus family of the virtual perturbation at strength theta: the one-row view of _perturbed_kraus."""
    v = np.array(ch.operators)[None]
    e0 = ch.no_jump_index
    return tuple(_perturbed_kraus(v, e0, theta, _no_jump_factors(v[:, e0]))[0])


def _perturbed_kraus(v: np.ndarray, e0: int, theta: float, factors) -> np.ndarray:
    """The theta-perturbed Kraus family (N, M, d, d) of each row of a stack v (N, M, d, d) with no-jump index e0;
    factors is the _no_jump_factors of V_0.

    V_m(theta) = e^{theta/2} V_m for jump operators, and
    V_0(theta) = U_V sqrt(I - e^theta sum_{m != 0} V_m^dag V_m) with U_V the
    unitary polar factor of V_0. At theta = 0 the base family is recovered.
    A row raises the scalar error of its first failing check, prefixed with
    its row index as by _raise_first_failure: admissibility (e^theta
    overshoots the jump weight), a singular V_0, then the polar factor's
    unitarity. An admissible theta leaves I - e^theta (jump sum) at least
    ADMISSIBILITY_MARGIN above 0, so its square root needs no check.
    """
    _, u_v, lowest = factors
    v0 = v[:, e0]
    # the jump sum over the operators m != e0, as a sum from zero (the zero matrix for a single operator)
    jump = sum((dag(v[:, m]) @ v[:, m] for m in range(v.shape[1]) if m != e0), np.zeros_like(v0))
    w, q = np.linalg.eigh(np.eye(v.shape[-1]) - np.exp(theta) * jump)
    weight = 1.0 - w[:, 0]   # e^theta times the largest eigenvalue of the jump sum
    _raise_first_failure([
        (weight > 1.0 - ADMISSIBILITY_MARGIN, lambda n: AdmissibilityError(
            f"theta={theta:g} inadmissible: e^theta * max-eig(jump sum) = {weight[n]:.6g} > 1")),
        _singular_rows(lowest, "polar decomposition needs nonsingular v^dag v"),
        _unitary_check(u_v, 1e-9, "polar unitary"),
    ])
    out = np.exp(theta / 2.0) * v
    out[:, e0] = u_v @ (q * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ dag(q)
    return out


def dv0_dtheta(ch: KrausChannel) -> np.ndarray:
    """Derivative of the no-jump operator at theta = 0: (V_0 - (V_0^-1)^dag) / 2."""
    v0_inv = _no_jump_inverse(ch, "V_0 must be invertible for dV_0/dtheta")
    return _kraus_derivatives(np.array(ch.operators)[None], ch.no_jump_index, v0_inv[None])[0, ch.no_jump_index]


def _kraus_derivatives(v: np.ndarray, e0: int, v0_inv: np.ndarray) -> np.ndarray:
    """dV_m/dtheta at theta = 0 of each row of a stack v (N, M, d, d) with no-jump index e0 and V_0^-1
    v0_inv (N, d, d): V_m / 2 for a jump operator, (V_0 - (V_0^-1)^dag) / 2 for V_0."""
    derivs = 0.5 * v
    derivs[:, e0] = 0.5 * (v[:, e0] - dag(v0_inv))
    return derivs
