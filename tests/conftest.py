import numpy as np
import pytest

from turlab.channels import KrausChannel, kraus_from_unitary, perturbed_kraus
from turlab.gates import I2
from turlab.linalg import SubsystemLayout
from turlab.random_ops import random_density, random_dilation, random_unitary
from turlab.verify import _perturbed_mean

# Single-qubit gates and projectors of the test constructions (the package builds its rotations stacked).
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def amplitude_damping_unitary(gamma: float) -> np.ndarray:
    """Dilation of amplitude damping: controlled-RY(2 asin sqrt(gamma)) then CNOT E->S."""
    theta = 2.0 * np.arcsin(np.sqrt(gamma))
    cry = np.kron(P0, I2) + np.kron(P1, ry(theta))
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    cnot_es = np.kron(I2, P0) + np.kron(flip, P1)  # control E (fast factor), target S
    return cnot_es @ cry


def amplitude_damping(gamma: float):
    return kraus_from_unitary(amplitude_damping_unitary(gamma), SubsystemLayout((2, 2)))


def random_channel(dim_s: int, dim_e: int, rng) -> KrausChannel:
    """The channel of random_dilation's draw: V_0^dag V_0 bounded away from singular, E starting in 0."""
    return kraus_from_unitary(random_dilation(dim_s, dim_e, rng), SubsystemLayout((dim_s, dim_e)))


def perturbed_mean(g: np.ndarray, ps, ch: KrausChannel, theta: float) -> float:
    """<G> over the joint state the theta-perturbed Kraus family leaves from the purification ps: the one-row view of
    verify._perturbed_mean."""
    return float(_perturbed_mean(g[None], ps.joint_vector[None], np.array(perturbed_kraus(ch, theta))[None])[0])


def hermitian_unitary(dim: int, rng) -> np.ndarray:
    """A random Hermitian unitary U diag(+-1) U^dag."""
    u = random_unitary(dim, rng)
    return (u * rng.choice([-1.0, 1.0], size=dim)) @ u.conj().T


def stacked_groups(seed: int = 41, n: int = 3):
    """Lists of n generic instances (rho, channel, A, B) sharing dim_S, dim_E and the initial environment state,
    so that they stack: dim_S 2-4, dim_E 2-3, mixed and rank-deficient rho, and in each list one channel given
    by its Kraus operators only (the protocol synthesizes its dilation)."""
    rng = np.random.default_rng(seed)
    for d_s, d_e, e0 in [(2, 2, 0), (3, 2, 0), (4, 2, 0), (2, 3, 0), (3, 3, 0), (4, 3, 0), (3, 2, 1)]:
        group = []
        for k in range(n):
            ch = kraus_from_unitary(random_unitary(d_s * d_e, rng), SubsystemLayout((d_s, d_e)), env_initial=e0)
            if k == 1:
                ch = KrausChannel(ch.operators, no_jump_index=e0)
            rho = random_density(d_s, rng, rank=1 + k % d_s)
            group.append((rho, ch, hermitian_unitary(d_s, rng), hermitian_unitary(d_s, rng)))
        yield group


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
