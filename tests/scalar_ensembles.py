"""The tests' own random instances, one at a time.

random_hermitian and random_dilation are one-row views of turlab.random_ops's stacked ensembles. random_unitary and
random_density keep the one-instance draws the tests had before the stacked ensembles, because two tests' tolerances
sit below the rounding of their values on other draws: with random_unitary = haar_unitaries(1, dim, rng)[0],
test_cli's test_no_jump_index_one_equals_the_reordered_channel[real-*] sees a TUR lhs of ~5.2e3 differ by 6e-11
between the two operator orders (its bound is 1e-12 absolute), and on densities(1, 2, rng)[0] test_protocol's
test_identity_channel_zero_width sees Xi_B = 2.2e-16, one ulp, and so a width 2 sqrt(Xi_B) = 3e-8 (its bound is 1e-9).
random_density also draws the lower ranks the tests need, which densities does not.
"""

from __future__ import annotations

import numpy as np

from turlab.linalg import dag
from turlab.random_ops import dilations, hermitians


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return hermitians(1, dim, rng)[0]


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    psi = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = psi @ dag(psi)
    return rho / np.trace(rho).real


def random_dilation(dim_s: int, dim_e: int, rng: np.random.Generator) -> np.ndarray:
    return dilations(1, dim_s, dim_e, rng)[0]
