"""Seeded random ensembles used by the verification suites and tests."""

from __future__ import annotations

import numpy as np

from .channels import _extract_kraus
from .linalg import dag

MIN_NO_JUMP_EIG = 0.05   # smallest eigenvalue of V_0^dag V_0 a random channel may have
MAX_TRIES = 200


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


def random_dilation(dim_s: int, dim_e: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random dilation unitary on S (x) E, E starting in 0, with V_0^dag V_0 bounded away from singular."""
    for _ in range(MAX_TRIES):
        u = random_unitary(dim_s * dim_e, rng)
        v0 = _extract_kraus(u, dim_s, dim_e, 0)[0]
        if float(np.linalg.eigvalsh(dag(v0) @ v0)[0]) >= MIN_NO_JUMP_EIG:
            return u
    raise RuntimeError(f"no well-conditioned channel found in {MAX_TRIES} draws")
