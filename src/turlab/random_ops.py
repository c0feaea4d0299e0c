"""Seeded random ensembles used by the verification suites and tests."""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel, kraus_from_unitary
from .linalg import SubsystemLayout, dag


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (z + dag(z)) / 2.0


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    psi = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = psi @ dag(psi)
    return rho / np.trace(rho).real


def random_channel(
    dim_s: int,
    dim_e: int,
    rng: np.random.Generator,
    min_no_jump_eig: float = 0.05,
    max_tries: int = 200,
) -> KrausChannel:
    """Random dilation channel with V_0^dag V_0 bounded away from singular."""
    layout = SubsystemLayout((dim_s, dim_e))
    for _ in range(max_tries):
        ch = kraus_from_unitary(random_unitary(dim_s * dim_e, rng), layout, env_initial=0)
        w = dag(ch.v0) @ ch.v0
        if float(np.linalg.eigvalsh(w)[0]) >= min_no_jump_eig:
            return ch
    raise RuntimeError(f"no well-conditioned channel found in {max_tries} draws")
