import math
from dataclasses import astuple, fields
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import amplitude_damping, perturbed_mean, random_channel, stacked_groups
from density_circuits import classical_bound, evolution_bound, separable_baseline

from turlab.channels import KrausChannel, apply, ensure_dilation, kraus_from_unitary
from turlab.errors import ContractError, SingularOperator
from turlab.gates import SIGMA_Z
from turlab.linalg import SubsystemLayout, _no_jump_factors, dag, outer, partial_trace
from turlab.protocol import correlator_interval
from turlab.random_ops import random_density, random_hermitian
from turlab.tur import (
    DEGENERATE_MEAN_ATOL,
    P0_CUTOFF,
    TUR_SLACK,
    _purifications,
    _series_estimates,
    _survival_activity,
    _survival_activity_moments,
    _survival_activity_protocol_sim,
    _tur_report,
    check_general_tur,
    check_observable_evolution_bound,
    classical_correlation_bound,
    final_joint_state,
    purify,
    qfi,
    sld,
    survival_activity,
    survival_activity_moments,
    survival_activity_protocol_sim,
    survival_activity_series,
)

SE = SubsystemLayout((2, 2))
IDENTITY_CH = kraus_from_unitary(np.eye(4, dtype=complex), SE)
HALF = np.eye(2, dtype=complex) / 2


def closed_form_xi(gamma: float) -> float:
    """Xi of amplitude damping on the maximally mixed qubit: gamma / (2 (1 - gamma))."""
    return gamma / (2.0 * (1.0 - gamma))


class TestPurify:
    def test_pure_input(self):
        ps = purify(np.diag([1.0, 0.0]).astype(complex))
        assert_allclose(ps.probabilities, [1.0, 0.0], atol=1e-12)
        joint = np.zeros(4, dtype=complex)
        joint[0] = 1.0
        assert_allclose(np.abs(ps.joint_vector), np.abs(joint), atol=1e-12)

    def test_maximally_mixed_qubit(self):
        ps = purify(HALF)
        assert_allclose(ps.probabilities, [0.5, 0.5], atol=1e-12)
        rho_s = partial_trace(outer(ps.joint_vector), SubsystemLayout((2, 2)), keep=[1])
        assert_allclose(rho_s, HALF, atol=1e-10)

    def test_partial_trace_oracle(self, rng):
        rho = random_density(4, rng)
        ps = purify(rho)
        marginal = partial_trace(outer(ps.joint_vector), SubsystemLayout((4, 4)), keep=[1])
        assert np.max(np.abs(marginal - rho)) <= 1e-10
        assert abs(ps.probabilities.sum() - 1.0) <= 1e-10

    def test_non_psd_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ContractError):
            purify(bad)


class TestFinalJointState:
    def test_identity_channel(self, rng):
        ps = purify(random_density(2, rng))
        psi = final_joint_state(ps, IDENTITY_CH)
        assert_allclose(psi, np.kron(ps.joint_vector, [1, 0]), atol=1e-12)

    def test_normalized(self, rng):
        ch = random_channel(3, 2, rng)
        ps = purify(random_density(3, rng))
        assert abs(np.linalg.norm(final_joint_state(ps, ch)) - 1.0) <= 1e-10

    def test_kraus_sum_oracle(self, rng):
        ch = random_channel(2, 3, rng)
        ps = purify(random_density(2, rng))
        psi = final_joint_state(ps, ch)
        want = np.zeros_like(psi)
        for m, v in enumerate(ch.operators):
            branch = (ps.joint_vector.reshape(2, 2) @ v.T).reshape(-1)
            want += np.kron(branch, np.eye(3)[m])
        assert np.max(np.abs(psi - want)) <= 1e-10

    def test_marginal_matches_apply(self, rng):
        ch = random_channel(2, 2, rng)
        rho = random_density(2, rng)
        ps = purify(rho)
        psi = final_joint_state(ps, ch)
        marg = partial_trace(outer(psi), SubsystemLayout((2, 2, 2)), keep=[1])
        assert np.max(np.abs(marg - apply(ch, rho))) <= 1e-10


class TestSurvivalActivity:
    def test_identity_channel_zero(self, rng):
        assert abs(survival_activity(random_density(2, rng), IDENTITY_CH)) <= 1e-12

    def test_amplitude_damping_closed_form(self):
        assert abs(survival_activity(HALF, amplitude_damping(0.5)) - 0.5) <= 1e-12

    def test_nonnegative(self, rng):
        for _ in range(10):
            ch = random_channel(3, 2, rng)
            assert survival_activity(random_density(3, rng), ch) >= -1e-10

    def test_singular(self):
        with pytest.raises(SingularOperator):
            survival_activity(HALF, amplitude_damping(1.0))


class TestSurvivalActivitySeries:
    def test_identity_channel_all_zero(self, rng):
        est = survival_activity_series(random_density(2, rng), IDENTITY_CH, 4)
        assert np.max(np.abs(est)) <= 1e-12

    def test_first_order_is_one_minus_p0(self, rng):
        ch = random_channel(2, 2, rng)
        rho = random_density(2, rng)
        p0 = np.trace(rho @ dag(ch.v0) @ ch.v0).real
        assert abs(survival_activity_series(rho, ch, 1)[0] - (1.0 - p0)) <= 1e-12

    def test_monotone_error_amplitude_damping(self):
        ch = amplitude_damping(0.25)
        exact = closed_form_xi(0.25)
        errors = [abs(e - exact) for e in survival_activity_series(HALF, ch, 5)]
        assert abs(survival_activity(HALF, ch) - exact) <= 1e-12
        assert all(b < a for a, b in zip(errors, errors[1:]))


class TestProtocolSim:
    def test_zeroth_moment_is_one(self, rng):
        ch = random_channel(2, 2, rng)
        assert abs(survival_activity_protocol_sim(random_density(2, rng), ch, 0)[0] - 1.0) <= 1e-12

    def test_identity_channel_all_one(self, rng):
        moments = survival_activity_protocol_sim(random_density(2, rng), IDENTITY_CH, 4)
        assert_allclose(moments, np.ones(5), atol=1e-12)

    def test_matches_matrix_powers(self, rng):
        for _ in range(5):
            ch = random_channel(3, 2, rng)
            rho = random_density(3, rng)
            w = dag(ch.v0) @ ch.v0
            sim = survival_activity_protocol_sim(rho, ch, 4)
            acc = np.eye(3, dtype=complex)
            for n in range(5):
                assert abs(sim[n] - np.trace(rho @ acc).real) <= 1e-10
                acc = acc @ w


def test_stacked_moments_series_and_xi_rows_equal_the_scalar_values():
    for group in stacked_groups():
        rho = np.stack([r for r, *_ in group])
        channels = [ensure_dilation(ch) for _, ch, _, _ in group]
        v0 = np.stack([c.v0 for c in channels])
        moments = _survival_activity_moments(rho, v0, 4)
        sim = _survival_activity_protocol_sim(_purifications(rho)[2].reshape(rho.shape),
                                              np.stack([c.dilation.unitary for c in channels]),
                                              channels[0].dilation.env_initial, 4)
        series = _series_estimates(moments)
        xi = _survival_activity(rho, _no_jump_factors(v0)[0])
        for k, (r, ch, _, _) in enumerate(group):
            assert [t[k] for t in moments] == survival_activity_moments(r, ch, 4)
            assert [t[k] for t in sim] == survival_activity_protocol_sim(r, ch, 4)
            assert [x[k] for x in series] == survival_activity_series(r, ch, 4)
            assert xi[k] == survival_activity(r, ch)
        assert_allclose(moments, sim, rtol=0, atol=1e-10)


class TestQBaselineGeneral:
    def test_identity_channel_equals_mean(self, rng):
        ps = purify(random_density(2, rng))
        g = random_hermitian(8, rng)
        q = check_general_tur(g, ps, IDENTITY_CH).q_baseline
        psi = final_joint_state(ps, IDENTITY_CH)
        assert abs(q - np.vdot(psi, g @ psi).real) <= 1e-10

    def test_identity_observable_gives_one(self, rng):
        # expand: <tilde(0)|Psi(T)> = sum_i p_i <psi_i| V0^-1 V0 |psi_i> = 1
        ch = random_channel(3, 2, rng)
        ps = purify(random_density(3, rng))
        assert abs(check_general_tur(np.eye(18, dtype=complex), ps, ch).q_baseline - 1.0) <= 1e-10

    def test_scaling_finite_difference(self, rng):
        h = 1e-5
        for _ in range(5):
            ch = random_channel(2, 2, rng)
            ps = purify(random_density(2, rng))
            g = random_hermitian(8, rng)
            q = check_general_tur(g, ps, ch).q_baseline
            psi = final_joint_state(ps, ch)
            mean = np.vdot(psi, g @ psi).real
            fd = (perturbed_mean(g, ps, ch, h) - perturbed_mean(g, ps, ch, -h)) / (2 * h)
            assert abs(fd - (mean - q)) <= 1e-6


def q_separable(g0, ps, ch):
    """The Q of separable_baseline on the purified state |Psi_RS(0)>, for the block G_0 of a separable observable."""
    return separable_baseline(outer(ps.joint_vector)[None], ch.v0[None], _no_jump_factors(ch.v0[None])[0],
                              [g0[None]])[2][0][0]


class TestQBaselineSeparable:
    def test_identity_channel(self, rng):
        ps = purify(random_density(2, rng))
        g0 = random_hermitian(4, rng)
        q = q_separable(g0, ps, IDENTITY_CH)
        assert abs(q - np.trace(outer(ps.joint_vector) @ g0).real) <= 1e-10

    def test_identity_block_gives_one(self, rng):
        ch = random_channel(3, 2, rng)
        ps = purify(random_density(3, rng))
        assert abs(q_separable(np.eye(9, dtype=complex), ps, ch) - 1.0) <= 1e-10

    def test_agrees_with_general_on_embedded_observable(self, rng):
        for _ in range(5):
            ch = random_channel(2, 3, rng)
            ps = purify(random_density(2, rng))
            g0 = random_hermitian(4, rng)
            e00 = np.zeros((3, 3), dtype=complex)
            e00[ch.no_jump_index, ch.no_jump_index] = 1.0
            q_sep = q_separable(g0, ps, ch)
            q_gen = check_general_tur(np.kron(g0, e00), ps, ch).q_baseline
            assert abs(q_sep - q_gen) <= 1e-9


class TestQfi:
    def test_identity_channel_zero(self, rng):
        assert abs(qfi(IDENTITY_CH, purify(random_density(2, rng)))) <= 1e-12

    def test_amplitude_damping_half(self):
        assert abs(qfi(amplitude_damping(0.5), purify(HALF)) - 0.5) <= 1e-10

    def test_matches_survival_activity(self, rng):
        for _ in range(10):
            ch = random_channel(3, 2, rng)
            rho = random_density(3, rng)
            assert abs(qfi(ch, purify(rho)) - survival_activity(rho, ch)) <= 1e-8


class TestSld:
    def test_finite_difference_of_projector(self, rng):
        from turlab.channels import perturbed_kraus

        h = 1e-5
        ch = random_channel(2, 2, rng)
        ps = purify(random_density(2, rng))
        l = sld(ps, ch)

        def projector(theta):
            pert = perturbed_kraus(ch, theta)
            psi = np.zeros(8, dtype=complex)
            for m, v in enumerate(pert):
                psi += np.kron((ps.joint_vector.reshape(2, 2) @ v.T).reshape(-1), np.eye(2)[m])
            return outer(psi)

        fd = (projector(h) - projector(-h)) / (2 * h)
        assert np.max(np.abs(l - 2.0 * fd)) <= 1e-7

    def test_vanishing_expectation(self, rng):
        ch = random_channel(3, 2, rng)
        ps = purify(random_density(3, rng))
        psi = final_joint_state(ps, ch)
        l = sld(ps, ch)
        assert abs(np.vdot(psi, l @ psi).real) <= 1e-8

    def test_saturation(self, rng):
        for _ in range(5):
            ch = random_channel(2, 2, rng)
            ps = purify(random_density(2, rng))
            report = check_general_tur(sld(ps, ch), ps, ch)
            assert abs(report.ratio - 1.0) <= 1e-6


class TestCheckGeneralTur:
    def test_identity_channel_degenerate(self, rng):
        ps = purify(random_density(2, rng))
        report = check_general_tur(random_hermitian(8, rng), ps, IDENTITY_CH)
        assert report.degenerate and report.holds

    def test_random_trials_hold(self, rng):
        for _ in range(25):
            ch = random_channel(2, 2, rng)
            ps = purify(random_density(2, rng))
            report = check_general_tur(random_hermitian(8, rng), ps, ch)
            assert report.holds
            assert report.variance >= -1e-10
            assert report.xi >= -1e-10


class TestEvolutionBound:
    def test_identity_channel_degenerate(self, rng):
        report = check_observable_evolution_bound(IDENTITY_CH, random_density(2, rng), SIGMA_Z, 1.0, 1.0)
        assert report.degenerate and report.tur_holds and report.evolution_holds

    def test_amplitude_damping_closed_form(self):
        # <G> = 1 - 2 Pr[jump], Pr[jump] = gamma/2 on the maximally mixed state
        report = check_observable_evolution_bound(amplitude_damping(0.5), HALF, SIGMA_Z, 1.0, 1.0)
        assert abs(report.mean - 0.5) <= 1e-10
        assert abs(report.xi - 0.5) <= 1e-10
        assert report.tur_holds and report.evolution_holds

    def test_zero_baseline_specialization(self, rng):
        # G_E with eigenvalue 0 on |0>: bound reduces to Var/<G>^2 >= 1/Xi
        g_env = np.diag([0.0, 1.0]).astype(complex)
        ch = amplitude_damping(0.3)
        report = check_observable_evolution_bound(ch, random_density(2, rng), g_env, 0.0, 1.0)
        assert report.zero_baseline_case
        assert report.tur_holds and report.evolution_holds

    def test_random_trials_never_violate(self, rng):
        for _ in range(10):
            ch = random_channel(2, 2, rng)
            rho = random_density(2, rng)
            g0 = float(rng.uniform(-1, 1))
            other = float(rng.uniform(-1, 1))
            g_env = np.diag([g0, other]).astype(complex)
            gmax = max(abs(g0), abs(other))
            report = check_observable_evolution_bound(ch, rho, g_env, g0, gmax)
            assert report.tur_holds and report.evolution_holds

    def test_wrong_eigenvalue_rejected(self):
        with pytest.raises(ContractError):
            check_observable_evolution_bound(amplitude_damping(0.2), HALF, SIGMA_Z, -1.0, 1.0)


def classical_channel(transition: np.ndarray) -> KrausChannel:
    """Kraus family of a classical column-stochastic chain with positive stay probabilities."""
    d = transition.shape[0]
    ops = [np.diag(np.sqrt(np.diag(transition))).astype(complex)]
    for x in range(d):
        for y in range(d):
            if x != y and transition[y, x] > 0:
                m = np.zeros((d, d), dtype=complex)
                m[y, x] = np.sqrt(transition[y, x])
                ops.append(m)
    return KrausChannel(tuple(ops))


class TestClassicalCorrelationBound:
    def test_identity_channel_sigma_z(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        lo, val, hi = classical_correlation_bound(IDENTITY_CH, rho, SIGMA_Z, SIGMA_Z)
        assert abs(val - 1.0) <= 1e-10  # sum_i p_i <psi_i|sz|psi_i>^2 = q + (1 - q)
        assert lo - 1e-9 <= val <= hi + 1e-9

    def test_identity_observable_factorizes(self, rng):
        ch = random_channel(2, 2, rng)
        rho = random_density(2, rng)
        g_r = random_hermitian(2, rng)
        _, val, _ = classical_correlation_bound(ch, rho, g_r, np.eye(2, dtype=complex))
        ps = purify(rho)
        want = np.vdot(ps.joint_vector, np.kron(g_r, np.eye(2)) @ ps.joint_vector).real
        assert abs(val - want) <= 1e-10

    def test_classical_chain_oracle(self):
        t = np.array([[0.7, 0.2], [0.3, 0.8]])
        ch = classical_channel(t)
        p = np.array([0.6, 0.4])
        g1 = np.diag([0.3, -1.2]).astype(complex)
        g2 = np.diag([0.9, 0.4]).astype(complex)
        lo, val, hi = classical_correlation_bound(ch, np.diag(p).astype(complex), g1, g2)
        oracle = sum(
            p[x] * t[y, x] * g1[x, x].real * g2[y, y].real
            for x in range(2) for y in range(2)
        )
        assert abs(val - oracle) <= 1e-10
        assert lo - 1e-9 <= val <= hi + 1e-9

    def test_containment_random(self, rng):
        for _ in range(10):
            ch = random_channel(2, 2, rng)
            rho = random_density(2, rng)
            lo, val, hi = classical_correlation_bound(ch, rho, random_hermitian(2, rng), random_hermitian(2, rng))
            assert lo - 1e-9 <= val <= hi + 1e-9


class TestClosedFormSharpness:
    """Amplitude damping, where both bounds have closed forms: a loosened cap or half-width fails these."""

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_evolution_bound_from_the_excited_state(self, gamma):
        # a jump (probability gamma) leaves E in |1>, so <G> = 1 - 2 gamma; Xi = 1 / (1 - gamma) - 1
        rho = np.diag([0.0, 1.0]).astype(complex)
        report = check_observable_evolution_bound(amplitude_damping(gamma), rho, SIGMA_Z, 1.0, 1.0)
        want = [2.0 * gamma, gamma / (1.0 - gamma), 2.0 * math.sqrt(gamma * (1.0 - gamma))]
        got = [report.deviation, report.xi, report.deviation / report.deviation_cap]
        assert_allclose(got, want, rtol=0, atol=1e-12)   # the ratio is 1, saturation, at gamma = 0.5
        assert report.evolution_holds

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_classical_bound_on_the_maximally_mixed_state(self, gamma):
        # G_S(T) = diag(1, 2 gamma - 1) on the maximally entangled purification: value 1 - gamma; Q = 1
        lo, val, hi = classical_correlation_bound(amplitude_damping(gamma), HALF, SIGMA_Z, SIGMA_Z)
        half = math.sqrt(gamma / (2.0 * (1.0 - gamma)))
        assert_allclose([lo, val, hi, (lo + hi) / 2.0], [1.0 - half, 1.0 - gamma, 1.0 + half, 1.0], rtol=0, atol=1e-12)


def bound_instances(seed: int = 37, n: int = 600):
    """(channel, rho, G_E, g0, gmax, G_R, G_S) of generic instances: dim_S 2-4, dim_E 2-3, ranks 1..d, and every
    other channel a Kraus list with its no-jump operator at index 1. G_E has the no-jump basis state as an
    eigenvector (eigenvalue 0 in every fifth instance); G_R and G_S are random Hermitian."""
    rng = np.random.default_rng(seed)
    cases = list(product((2, 3, 4), (2, 3), (False, True)))
    for k in range(n):
        d_s, d_e, kraus_list = cases[k % len(cases)]
        ch = random_channel(d_s, d_e, rng)
        if kraus_list:
            ops = ch.operators
            ch = KrausChannel((ops[1], ops[0]) + ops[2:], no_jump_index=1)
        rho = random_density(d_s, rng, rank=1 + (k // len(cases)) % d_s)
        g_env, e0 = random_hermitian(d_e, rng), ch.no_jump_index
        g_env[e0, :] = g_env[:, e0] = 0.0
        g_env[e0, e0] = 0.0 if k % 5 == 0 else rng.uniform(-1.0, 1.0)
        gmax = float(np.max(np.abs(np.linalg.eigvalsh(g_env))))
        yield ch, rho, g_env, float(g_env[e0, e0].real), gmax, random_hermitian(d_s, rng), random_hermitian(d_s, rng)


def test_bounds_agree_with_the_full_space_oracle():
    """Both bounds, one-row views of tur._product_terms, against their full-space (kron, Heisenberg picture) forms
    within 1e-12 (tur_lhs relative), with identical flags, on 600 generic instances."""
    for ch, rho, g_env, g0, gmax, g_r, g_s in bound_instances():
        got, want = check_observable_evolution_bound(ch, rho, g_env, g0, gmax), evolution_bound(ch, rho, g_env, g0, gmax)
        for field in fields(got):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, bool):
                assert a is b, field.name
            else:
                tol = 1e-12 * abs(b) if field.name == "tur_lhs" else 1e-12
                assert a == b or abs(a - b) <= tol, field.name
        assert_allclose(classical_correlation_bound(ch, rho, g_r, g_s), classical_bound(ch, rho, g_r, g_s),
                        rtol=0, atol=1e-12)


def python_tur_report(mean, variance, q, xi):
    """(lhs, rhs, holds, margin, degenerate) in Python float arithmetic, one instance at a time."""
    degenerate = abs(mean - q) <= DEGENERATE_MEAN_ATOL
    lhs = math.inf if degenerate else max(variance, 0.0) / (mean - q) ** 2
    rhs = 1.0 / xi if xi > P0_CUTOFF else math.inf
    if degenerate:
        holds, margin = True, math.inf
    elif math.isinf(rhs):
        holds, margin = math.isinf(lhs), math.inf if math.isinf(lhs) else -math.inf
    else:
        margin = lhs - rhs
        holds = margin >= -TUR_SLACK
    return lhs, rhs, holds, margin, degenerate


MARGIN_ROW = (1.0, 2.0**-29 - TUR_SLACK, 0.0, 2.0**29)   # lhs - rhs is exactly -TUR_SLACK
SQUARE_ROW = (0.7257718954826365, 0.3, 0.0, 0.5)         # pow(mean - q, 2) != (mean - q) * (mean - q)
BOUNDARY_ROWS = [                                        # (mean, variance, q, xi)
    (DEGENERATE_MEAN_ATOL, 0.5, 0.0, 1.0),
    (-DEGENERATE_MEAN_ATOL, 0.5, 0.0, 1.0),
    (0.3, 0.5, 0.1, 0.0),
    (0.3, 0.5, 0.1, P0_CUTOFF),
    (0.3, 0.5, 0.1, -0.25),
    (1e-5, 1e300, 0.0, 0.0),                             # infinite lhs without a finite rhs
    (0.2, 0.5, 0.2, 0.0),
    MARGIN_ROW,
    SQUARE_ROW,
]
_values = st.floats(-3.0, 3.0)
TUR_ROWS = st.one_of(
    st.tuples(_values, st.floats(-1.0, 3.0), _values,
              st.one_of(st.floats(-0.5, 50.0), st.sampled_from([0.0, P0_CUTOFF, -1e-3]))),
    st.sampled_from(BOUNDARY_ROWS),
)
REPORT_TYPES = [float] * 6 + [bool, float, bool]   # TurReport field order


def test_boundary_rows_sit_on_their_boundaries():
    assert abs(BOUNDARY_ROWS[0][0] - BOUNDARY_ROWS[0][2]) == DEGENERATE_MEAN_ATOL
    report = _tur_report(*MARGIN_ROW)
    assert report.margin == -TUR_SLACK and report.holds
    d = SQUARE_ROW[0] - SQUARE_ROW[2]
    assert d ** 2 != d * d


@settings(max_examples=60, deadline=None, database=None)
@given(rows=st.lists(TUR_ROWS, min_size=1, max_size=10))
@example(rows=BOUNDARY_ROWS)
def test_array_reports_equal_scalar_reports(rows):
    """_tur_report and correlator_interval over arrays equal their float calls, which give Python values."""
    mean, variance, q, xi = (np.array(column) for column in zip(*rows))
    reports = _tur_report(mean, variance, q, xi)
    intervals = correlator_interval(mean, q, xi)
    names = [f.name for f in fields(reports)]
    for n, row in enumerate(rows):
        one = _tur_report(*row)
        assert [type(x) for x in astuple(one)] == REPORT_TYPES
        assert astuple(one) == tuple(getattr(reports, name)[n].item() for name in names)
        assert (one.lhs, one.rhs, one.holds, one.margin, one.degenerate) == python_tur_report(*row)
        lower, upper, contained, sep = correlator_interval(row[0], row[2], row[3])
        assert [type(x) for x in (lower, upper, contained)] == [float, float, bool]
        assert (lower, upper, contained) == tuple(x[n].item() for x in intervals[:3])
        assert [type(x) for x in astuple(sep)] == REPORT_TYPES
        assert astuple(sep) == tuple(getattr(intervals[3], name)[n].item() for name in names)
