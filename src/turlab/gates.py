"""Qubit gate matrices and small register helpers."""

from __future__ import annotations

import numpy as np

from .linalg import kron

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)  # index order: I, X, Y, Z

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)


def pauli_pair(i: int, j: int) -> np.ndarray:
    """Two-qubit Pauli string sigma_i (x) sigma_j, indices in 0..3."""
    return kron(PAULIS[i], PAULIS[j])


def controlled(u: np.ndarray) -> np.ndarray:
    """Controlled-U with the control as the first (slow) tensor factor, of one U or of each of a stack.

    Applies U to the remaining factors when the control qubit is |1>.
    """
    d = u.shape[-1]
    out = np.zeros(u.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    out[..., :d, :d] = np.eye(d)
    out[..., d:, d:] = u
    return out
