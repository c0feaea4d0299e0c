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
import functools
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ContractError, LayoutError, SingularOperator
from .linalg import (
    SpectralDecomposition,
    SubsystemLayout,
    _hermitian_sqrt,
    _polar_unitary,
    _spectral,
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

    @functools.cached_property
    def no_jump_spectrum(self) -> SpectralDecomposition:
        """Spectral decomposition of V_0^dag V_0, computed once per channel (its operators are read-only)."""
        return _spectral(dag(self.v0) @ self.v0)

    def jump_sum(self) -> np.ndarray:
        """sum_{m != 0} V_m^dag V_m = I - V_0^dag V_0 (the zero matrix for a single operator)."""
        return sum((dag(v) @ v for i, v in enumerate(self.operators) if i != self.no_jump_index), np.zeros_like(self.v0))


def kraus_from_unitary(u: np.ndarray, layout: SubsystemLayout, env_initial: int = 0) -> KrausChannel:
    """Build the channel of a unitary dilation, one Kraus operator per E basis state."""
    if layout.nfactors != 2:
        raise LayoutError(f"expected a two-factor (S, E) layout, got {layout.dims}")
    dim_s, dim_e = layout.dims
    dilation = Dilation(layout.require_matches(u), dim_e, env_initial)   # checks unitarity
    ops = _extract_kraus(dilation.unitary, dim_s, dim_e, env_initial)
    return KrausChannel(ops, no_jump_index=env_initial, dilation=dilation)


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
    """Kraus family of the virtual perturbation at strength theta; AdmissibilityError if e^theta overshoots the
    jump weight.

    V_m(theta) = e^{theta/2} V_m for jump operators, and
    V_0(theta) = U_V sqrt(I - e^theta sum_{m>=1} V_m^dag V_m) with U_V the
    unitary polar factor of V_0. At theta = 0 the base family is recovered.
    """
    jump = ch.jump_sum()
    lam_max = float(np.linalg.eigvalsh(jump)[-1])
    if np.exp(theta) * lam_max > 1.0 - ADMISSIBILITY_MARGIN:
        raise AdmissibilityError(
            f"theta={theta:g} inadmissible: e^theta * max-eig(jump sum) = {np.exp(theta) * lam_max:.6g} > 1"
        )
    u_v = _polar_unitary(ch.v0, ch.no_jump_spectrum)
    d = ch.dim
    v0_theta = u_v @ _hermitian_sqrt(np.eye(d) - np.exp(theta) * jump)
    scale = np.exp(theta / 2.0)
    return tuple(v0_theta if i == ch.no_jump_index else scale * v for i, v in enumerate(ch.operators))


def dv0_dtheta(ch: KrausChannel) -> np.ndarray:
    """Derivative of the no-jump operator at theta = 0: (V_0 - (V_0^-1)^dag) / 2."""
    v0 = ch.v0
    try:
        v0_inv = ch.no_jump_spectrum.inverse() @ dag(v0)
    except SingularOperator as exc:
        raise SingularOperator("V_0 must be invertible for dV_0/dtheta", eigenvalue=exc.eigenvalue) from exc
    return 0.5 * (v0 - dag(v0_inv))
