"""Seeded random ensembles, drawn n at a time as stacks (N, d, d) from one numpy Generator.

Each call takes its Gaussians in one draw, row by row, so the rows of a stack are the rows that n one-row calls on
the same generator state would give (dilations excepted: a rejected row is redrawn after the whole stack):

  haar_unitaries  q diag(r / |r|) of the QR of Ginibre matrices, one batched QR: Haar measure
  dilations       Haar unitaries on S (x) E, E starting in 0, with the smallest eigenvalue of V_0^dag V_0 at least
                  MIN_NO_JUMP_EIG: each round redraws only the rejected rows, for at most MAX_TRIES rounds
  densities       psi psi^dag / Tr of square Ginibre psi: full-rank densities
  hermitians      the GUE, in the distribution of (Z + Z^dag) / 2 of Ginibre Z from half its Gaussians: (X + X^T) / 2
                  + i (X - X^T) / 2 of one real Gaussian X, whose diagonal is N(0, 1) and whose off-diagonal real and
                  imaginary parts are independent N(0, 1/2); formed a slice of rows at a time, and equal to its
                  conjugate transpose to the last bit, since x + y = y + x and x - y = -(y - x) in floating point
"""

from __future__ import annotations

import numpy as np

from .channels import _extract_kraus
from .linalg import _row_slices, dag

MIN_NO_JUMP_EIG = 0.05   # smallest eigenvalue of V_0^dag V_0 a random channel may have
MAX_TRIES = 200


def _ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex matrices of standard normal real and imaginary parts, the two interleaved in one draw."""
    return rng.standard_normal(shape + (2,)).view(complex)[..., 0]


def haar_unitaries(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, (n, dim, dim)))
    phase = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phase / np.abs(phase))[:, None, :]


def dilations(n: int, dim_s: int, dim_e: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random dilation unitaries on S (x) E, E starting in 0, with V_0^dag V_0 bounded away from singular."""
    u, redraw = np.empty((n, dim_s * dim_e, dim_s * dim_e), dtype=complex), np.arange(n)
    for _ in range(MAX_TRIES):
        u[redraw] = haar_unitaries(len(redraw), dim_s * dim_e, rng)
        v0 = _extract_kraus(u[redraw], dim_s, dim_e, 0)[:, 0]
        redraw = redraw[np.linalg.eigvalsh(dag(v0) @ v0)[:, 0] < MIN_NO_JUMP_EIG]
        if not len(redraw):
            return u
    raise RuntimeError(f"no well-conditioned channel found in {MAX_TRIES} draws")


def densities(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = _ginibre(rng, (n, dim, dim))
    rho = psi @ dag(psi)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def hermitians(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    h = np.empty((n, dim, dim), dtype=complex)
    for s in _row_slices(h):
        x = rng.standard_normal(h[s].shape) / 2
        t = x.swapaxes(-1, -2)
        h[s].real, h[s].imag = x + t, x - t
    return h
