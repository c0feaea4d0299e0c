import numpy as np
import pytest

from turlab.channels import kraus_from_unitary
from turlab.gates import I2, P0, P1, ry
from turlab.linalg import SubsystemLayout


def amplitude_damping_unitary(gamma: float) -> np.ndarray:
    """Dilation of amplitude damping: controlled-RY(2 asin sqrt(gamma)) then CNOT E->S."""
    theta = 2.0 * np.arcsin(np.sqrt(gamma))
    cry = np.kron(P0, I2) + np.kron(P1, ry(theta))
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    cnot_es = np.kron(I2, P0) + np.kron(flip, P1)  # control E (fast factor), target S
    return cnot_es @ cry


def amplitude_damping(gamma: float):
    return kraus_from_unitary(amplitude_damping_unitary(gamma), SubsystemLayout((2, 2), ("S", "E")))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
