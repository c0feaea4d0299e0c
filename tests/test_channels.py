import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import P0, P1, amplitude_damping, random_channel
from density_circuits import apply
from scalar_ensembles import random_density, random_unitary

from turlab.channels import (
    Dilation,
    KrausChannel,
    dv0_dtheta,
    ensure_dilation,
    heisenberg,
    kraus_from_unitary,
    perturbed_kraus,
    synthesize_dilation,
)
from turlab.errors import AdmissibilityError, ContractError, SingularOperator
from turlab.gates import SIGMA_Z
from turlab.linalg import SubsystemLayout, dag, outer, partial_trace
from turlab.tur import purify, survival_activity, tilde_initial_state


SE = SubsystemLayout((2, 2))


class TestKrausFromUnitary:
    def test_identity_dilation(self):
        ch = kraus_from_unitary(np.eye(4, dtype=complex), SE)
        assert_allclose(ch.operators[0], np.eye(2), atol=1e-12)
        assert_allclose(ch.operators[1], np.zeros((2, 2)), atol=1e-12)
        assert ch.no_jump_index == 0

    def test_cnot_gives_projectors(self):
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        cnot_se = np.kron(P0, np.eye(2)) + np.kron(P1, flip)  # control S, target E
        ch = kraus_from_unitary(cnot_se, SE)
        assert_allclose(ch.operators[0], P0, atol=1e-12)
        assert_allclose(ch.operators[1], P1, atol=1e-12)

    def test_amplitude_damping_block_read(self):
        # block-read oracle of the explicit 4x4 dilation at gamma = 0.5
        ch = amplitude_damping(0.5)
        root_half = np.sqrt(0.5)
        assert_allclose(ch.operators[0], np.diag([1.0, root_half]), atol=1e-12)
        assert_allclose(ch.operators[1], root_half * np.array([[0, 1], [0, 0]]), atol=1e-12)

    def test_zero_operators_retained(self):
        ch = kraus_from_unitary(np.eye(4, dtype=complex), SE)
        assert len(ch.operators) == 2

    def test_non_unitary_rejected(self):
        with pytest.raises(ContractError):
            kraus_from_unitary(np.ones((4, 4), dtype=complex), SE)

    def test_no_jump_index_must_match_env_initial(self):
        ch = amplitude_damping(0.3)
        with pytest.raises(ContractError, match="env_initial"):
            KrausChannel(ch.operators, no_jump_index=1, dilation=Dilation(ch.dilation.unitary, 2, 0))

    def test_completeness_invariant(self, rng):
        ch = random_channel(3, 2, rng)
        total = sum(dag(v) @ v for v in ch.operators)
        assert np.max(np.abs(total - np.eye(3))) <= 1e-9


class TestApply:
    def test_identity_channel(self, rng):
        ch = kraus_from_unitary(np.eye(4, dtype=complex), SE)
        rho = random_density(2, rng)
        assert_allclose(apply(ch, rho), rho, atol=1e-12)

    def test_full_decay(self, rng):
        ch = amplitude_damping(1.0)
        rho = random_density(2, rng)
        assert_allclose(apply(ch, rho), np.diag([1.0, 0.0]), atol=1e-10)

    def test_matches_dilation_oracle(self, rng):
        for _ in range(5):
            ch = random_channel(2, 3, rng)
            rho = random_density(2, rng)
            u = ch.dilation.unitary
            env0 = outer(np.eye(3, dtype=complex)[:, 0])
            big = u @ np.kron(rho, env0) @ dag(u)
            oracle = partial_trace(big, SubsystemLayout((2, 3)), keep=[0])
            assert np.max(np.abs(apply(ch, rho) - oracle)) <= 1e-10

    def test_trace_preserved(self, rng):
        ch = random_channel(4, 2, rng)
        rho = random_density(4, rng)
        assert abs(np.trace(apply(ch, rho)).real - 1.0) <= 1e-10


class TestHeisenberg:
    def test_identity_channel(self, rng):
        ch = kraus_from_unitary(np.eye(4, dtype=complex), SE)
        a = np.diag([0.3, -1.0]).astype(complex)
        assert_allclose(heisenberg(ch, a), a, atol=1e-12)

    def test_unital_on_identity(self, rng):
        ch = random_channel(3, 2, rng)
        assert_allclose(heisenberg(ch, np.eye(3, dtype=complex)), np.eye(3), atol=1e-9)

    def test_amplitude_damping_sigma_z(self):
        # hand multiplication: V0+ sz V0 + V1+ sz V1 = diag(1, 2*gamma - 1)
        ch = amplitude_damping(0.5)
        assert_allclose(heisenberg(ch, SIGMA_Z), np.diag([1.0, 0.0]), atol=1e-12)

    def test_adjointness(self, rng):
        from turlab.linalg import dag as _dag
        for _ in range(5):
            ch = random_channel(3, 2, rng)
            rho = random_density(3, rng)
            a_raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = (a_raw + _dag(a_raw)) / 2
            lhs = np.trace(rho @ heisenberg(ch, a))
            rhs = np.trace(apply(ch, rho) @ a)
            assert abs(lhs - rhs) <= 1e-10


class TestPerturbedKraus:
    def test_theta_zero_recovers_base(self, rng):
        ch = random_channel(3, 2, rng)
        pert = perturbed_kraus(ch, 0.0)
        worst = max(np.max(np.abs(a - b)) for a, b in zip(pert, ch.operators))
        assert worst <= 1e-12

    def test_identity_channel_stays_identity(self):
        ch = kraus_from_unitary(np.eye(4, dtype=complex), SE)
        pert = perturbed_kraus(ch, 0.3)
        assert_allclose(pert[0], np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("theta", [-0.2, -0.1, 0.05, 0.1])
    def test_completeness_along_theta(self, theta):
        ch = amplitude_damping(0.25)
        pert = perturbed_kraus(ch, theta)
        total = sum(dag(v) @ v for v in pert)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-9

    def test_inadmissible_theta(self):
        with pytest.raises(AdmissibilityError):
            perturbed_kraus(amplitude_damping(0.25), 2.0)

    def test_singular_v0(self):
        with pytest.raises(SingularOperator):
            perturbed_kraus(amplitude_damping(1.0), -0.5)

    @pytest.mark.parametrize("theta", [-0.1, 0.1])
    def test_single_operator_channel_stays_unitary(self, theta, rng):
        u = random_unitary(3, rng)
        pert = perturbed_kraus(KrausChannel((u,)), theta)
        assert_allclose(pert[0], u, rtol=0, atol=1e-12)


class TestDv0Dtheta:
    def test_unitary_v0_gives_zero(self, rng):
        ch = kraus_from_unitary(np.eye(4, dtype=complex), SE)
        assert np.max(np.abs(dv0_dtheta(ch))) <= 1e-12

    def test_amplitude_damping_scalar_formula(self):
        # per-eigenvalue formula: d/dtheta sqrt(1 - e^theta*gamma) at 0 on the |1> block
        ch = amplitude_damping(0.5)
        expected = np.diag([0.0, -np.sqrt(0.5) / 2.0])
        assert_allclose(dv0_dtheta(ch), expected, atol=1e-12)

    def test_finite_difference_oracle(self, rng):
        h = 1e-5
        for _ in range(5):
            ch = random_channel(3, 2, rng)
            fd = (perturbed_kraus(ch, h)[0] - perturbed_kraus(ch, -h)[0]) / (2 * h)
            assert np.max(np.abs(fd - dv0_dtheta(ch))) <= 1e-7

    def test_singular(self):
        with pytest.raises(SingularOperator):
            dv0_dtheta(amplitude_damping(1.0))


class TestNoJumpCache:
    """A singular V_0 raises on every call, with the offending eigenvalue of W = V_0^dag V_0."""

    RHO = np.diag([0.25, 0.75]).astype(complex)

    @pytest.mark.parametrize("call, message", [
        (lambda ch: survival_activity(TestNoJumpCache.RHO, ch), "matrix is singular, inverse undefined"),
        (lambda ch: tilde_initial_state(purify(TestNoJumpCache.RHO), ch), "matrix is singular, inverse undefined"),
        (dv0_dtheta, "V_0 must be invertible for dV_0/dtheta"),
        (lambda ch: perturbed_kraus(ch, -0.1), "polar decomposition needs nonsingular v^dag v"),
    ], ids=["survival_activity", "tilde_initial_state", "dv0_dtheta", "perturbed_kraus"])
    def test_singular_v0_raises_on_every_call(self, call, message):
        ch = amplitude_damping(1.0 - 1e-13)
        for _ in range(2):
            with pytest.raises(SingularOperator) as err:
                call(ch)
            assert str(err.value) == f"{message} (offending eigenvalue 1.001e-13)"
            assert err.value.eigenvalue == pytest.approx(1.0014e-13, rel=1e-4)


class TestDilationSynthesis:
    def test_roundtrip_and_unitarity(self, rng):
        base = random_channel(3, 3, rng)
        stripped = KrausChannel(base.operators, no_jump_index=base.no_jump_index)
        assert stripped.dilation is None
        dil = synthesize_dilation(stripped)
        d = dil.unitary
        assert np.max(np.abs(dag(d) @ d - np.eye(9))) <= 1e-10
        rebuilt = kraus_from_unitary(d, SubsystemLayout((3, 3)), env_initial=dil.env_initial)
        worst = max(np.max(np.abs(a - b)) for a, b in zip(rebuilt.operators, base.operators))
        assert worst <= 1e-10

    def test_ensure_dilation_is_noop_when_present(self, rng):
        ch = random_channel(2, 2, rng)
        assert ensure_dilation(ch) is ch
