"""Each stacked kernel of tur, protocol, channels and linalg: every row of a stack equals its one-row call to the last
bit, over dim_S 2-6, dim_E 2-4, mixed and rank-deficient states, and stacks that mix degenerate and non-degenerate
singular values of V_0; a failing row raises the scalar message prefixed with its row index or label."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import amplitude_damping, hermitian_unitary

from turlab.channels import (
    KrausChannel,
    _kraus_derivatives,
    _perturbed_kraus,
    dv0_dtheta,
    perturbed_kraus,
)
from turlab.errors import AdmissibilityError, SingularOperator
from turlab.linalg import _invertible_factors, _no_jump_factors, dag, embed_operator, hermitian_inverse, outer
from turlab.protocol import (
    PARTS,
    _ancilla_pullback,
    _approx_bound_quantities,
    _bound_terms,
    _on_factors,
    exact_correlator,
)
from turlab.random_ops import random_density, random_hermitian, random_unitary
from turlab.tur import (
    _branches,
    _general_tur_terms,
    PurifiedState,
    _purifications,
    _qfi,
    _sld,
    _survival_activity,
    _tilde_operators,
    check_general_tur,
    purify,
    qfi,
    separable_baseline,
    sld,
    survival_activity,
)
from turlab.verify import _perturbed_mean, perturbed_mean

# eigenvalue patterns of V_0^dag V_0: group sizes, largest first (one pattern per row, cycled)
PATTERNS = [None, (2,), "all", (1, 2), (2, 2)]


def kraus_family(rng, d_s, d_e, pattern):
    """Kraus operators (d_e, d_s, d_s) whose V_0^dag V_0 = W^dag diag(lam) W repeats eigenvalues as pattern says."""
    lam = rng.uniform(0.3, 0.95, d_s)
    sizes = (d_s,) if pattern == "all" else () if pattern is None else pattern
    k = 0
    for size in sizes:
        lam[k:k + size] = lam[k:k + 1]   # empty past d_S
        k += size
    w = random_unitary(d_s, rng)
    ops = [random_unitary(d_s, rng) @ np.diag(np.sqrt(lam)) @ w]
    ops += [random_unitary(d_s, rng) @ np.diag(np.sqrt((1.0 - lam) / (d_e - 1))) @ w for _ in range(d_e - 1)]
    return np.stack(ops)


def stacks(seed=7, n=6):
    """(rho, Kraus operators (N, d_E, d_S, d_S)) stacks for each dim_S 2-6 and dim_E 2-4."""
    rng = np.random.default_rng(seed)
    for d_s in range(2, 7):
        for d_e in range(2, 5):
            ops = np.stack([kraus_family(rng, d_s, d_e, PATTERNS[k % len(PATTERNS)]) for k in range(n)])
            rho = np.stack([random_density(d_s, rng, rank=1 + k % d_s) for k in range(n)])
            yield rho, ops


def test_no_jump_factors_and_survival_activity_rows():
    for rho, ops in stacks():
        v0 = ops[:, 0]
        patterns = {tuple(np.diff(e) > 1e-9) for e in np.linalg.eigvalsh(dag(v0) @ v0)}
        assert len(patterns) >= min(3, v0.shape[-1])   # one call factors several singular-value patterns
        factors = _no_jump_factors(v0)
        v0_inv = factors[0]
        xi = _survival_activity(rho, v0_inv)
        for n in range(len(v0)):
            for got, one_row in zip(factors, _invertible_factors(v0[n:n + 1])):
                assert np.array_equal(got[n], one_row[0])
            assert np.max(np.abs(v0_inv[n] @ dag(v0_inv[n]) - hermitian_inverse(dag(v0[n]) @ v0[n]))) <= 1e-9
            assert xi[n] == _survival_activity(rho[n], v0_inv[n])
            assert xi[n] == survival_activity(rho[n], KrausChannel(tuple(ops[n])))


def test_separable_baseline_and_neumann1_rows():
    rng = np.random.default_rng(11)
    for rho, ops in stacks():
        v0 = ops[:, 0]
        sigma = np.stack([outer(j) for j in _purifications(rho)[2]])   # X = R, the purifying copy of S
        gs = [np.stack([random_hermitian(sigma.shape[-1], rng) for _ in range(len(rho))]) for _ in range(2)]
        v0_inv = _no_jump_factors(v0)[0]
        p0, rho_v0, qs = separable_baseline(sigma, v0, v0_inv, gs)
        xi_1, q_1 = _approx_bound_quantities(p0, rho_v0, gs[0], v0)
        for n in range(len(rho)):
            one = slice(n, n + 1)
            p0_n, rho_v0_n, qs_n = separable_baseline(sigma[one], v0[one], _no_jump_factors(v0[one])[0],
                                                      [g[one] for g in gs])
            assert p0[n] == p0_n[0] and np.array_equal(rho_v0[n], rho_v0_n[0])
            assert [q[n] for q in qs] == [q[0] for q in qs_n]
            (xi_1n,), (q_1n,) = _approx_bound_quantities(p0_n, rho_v0_n, gs[0][one], v0[one])
            assert (xi_1[n], q_1[n]) == (xi_1n, q_1n)


def test_bound_terms_rows():
    """Each row of _bound_terms equals its one-row call to the last bit, and agrees with formulas outside the kernel:
    C(T) of exact_correlator, p_0 and Xi of the entry marginal (rho + B rho B) / 2, and each Q as the general
    baseline of the embedded observable I_R (x) G (x) I_E over the purified entry state on a lifted channel."""
    rng = np.random.default_rng(23)
    plus = np.full((2, 2), 0.5)
    for k, (rho, ops) in enumerate(stacks()):
        n_rows, d_e, d_s = ops.shape[:3]
        e0 = k % d_e
        v = np.roll(ops, e0, axis=1)   # the no-jump operator ops[:, 0] at index e0
        a, b = (np.stack([hermitian_unitary(d_s, rng) for _ in range(n_rows)]) for _ in range(2))
        gs = [_ancilla_pullback(a, part) for part in PARTS]
        c, p0, xi, qs, (xi_1, q_1), v0_inv = _bound_terms(rho, v, e0, a, b, gs)
        for n in range(n_rows):
            one = slice(n, n + 1)
            c_n, p0_n, xi_n, qs_n, (xi_1n, q_1n), v0_inv_n = _bound_terms(rho[one], v[one], e0, a[one], b[one],
                                                                         [g[one] for g in gs])
            assert (c[n], p0[n], xi[n], xi_1[n], q_1[n]) == (c_n[0], p0_n[0], xi_n[0], xi_1n[0], q_1n[0])
            assert [q[n] for q in qs] == [q[0] for q in qs_n] and np.array_equal(v0_inv[n], v0_inv_n[0])

            ch = KrausChannel(tuple(v[n]), no_jump_index=e0)
            assert abs(c[n] - exact_correlator(rho[n], ch, a[n], b[n])) <= 1e-9
            marginal = (rho[n] + b[n] @ rho[n] @ b[n]) / 2
            assert abs(p0[n] - np.trace(marginal @ dag(ops[n, 0]) @ ops[n, 0]).real) <= 1e-9
            assert abs(xi[n] - survival_activity(marginal, ch)) <= 1e-9
            ucb = np.block([[np.eye(d_s), np.zeros((d_s, d_s))], [np.zeros((d_s, d_s)), b[n]]])
            entry = purify(ucb @ np.kron(plus, rho[n]) @ dag(ucb))
            lifted = KrausChannel(tuple(np.kron(np.eye(2), m) for m in v[n]), no_jump_index=e0)
            for q, g in zip(qs, gs):
                g_emb = np.kron(np.kron(np.eye(2 * d_s), g[n]), np.eye(d_e))
                assert abs(q[n] - check_general_tur(g_emb, entry, lifted).q_baseline) <= 1e-9


def test_general_tur_terms_rows_equal_check_general_tur():
    rng = np.random.default_rng(13)
    for rho, ops in stacks():
        n_rows, d_e, d_s = ops.shape[:3]
        joint = _purifications(rho)[2]
        v0_inv = _no_jump_factors(ops[:, 0])[0]
        psi = _branches(joint, ops)
        tilde = _branches(joint, _tilde_operators(v0_inv, d_e, 0))
        g = np.stack([random_hermitian(psi.shape[-1], rng) for _ in range(n_rows)])
        g_psi = (g @ psi[..., None])[..., 0]
        terms = _general_tur_terms(psi, g_psi, tilde)
        for n in range(n_rows):
            one = slice(n, n + 1)
            one_row = _general_tur_terms(_branches(joint[one], ops[one]), g_psi[one],
                                         _branches(joint[one], _tilde_operators(v0_inv[one], d_e, 0)))
            assert [t[n] for t in terms] == [t[0] for t in one_row]
            report = check_general_tur(g[n], purify(rho[n]), KrausChannel(tuple(ops[n])))
            assert [t[n] for t in terms] == [report.mean, report.variance, report.q_baseline]


@pytest.mark.parametrize("dims, targets", [((2, 3, 2), (1, 2)), ((2, 3, 2), (0, 2)), ((4, 4, 3), (1,)),
                                           ((2, 2, 3, 2, 2), (0, 1, 2))])
def test_one_sided_on_factors_rows(dims, targets):
    rng = np.random.default_rng(17)
    d, d_t = int(np.prod(dims)), int(np.prod([dims[k] for k in targets]))
    u = rng.normal(size=(5, d_t, d_t)) + 1j * rng.normal(size=(5, d_t, d_t))
    psi = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
    got = _on_factors(u, psi, dims, targets)
    for n in range(5):
        assert np.array_equal(got[n], _on_factors(u[n:n + 1], psi[n:n + 1], dims, targets)[0])
        assert_allclose(got[n], embed_operator(u[n], dims, targets) @ psi[n], rtol=0, atol=1e-12)


def test_singular_row_raises_the_scalar_message_with_its_index():
    rho, ops = next(stacks(n=4))
    v0 = ops[:, 0].copy()
    v0[2] = v0[2] @ np.diag([1.0, 0.0])   # rank-deficient V_0 in row 2 only
    cases = [
        lambda rows: _invertible_factors(v0[rows]),
        lambda rows: _invertible_factors(v0[rows], message="no-jump operator V_0 is singular"),
    ]
    for call in cases:
        with pytest.raises(SingularOperator) as scalar:
            call(slice(2, 3))
        with pytest.raises(SingularOperator) as stacked:
            call(slice(None))
        assert str(stacked.value) == f"row 2: {scalar.value}"
        assert stacked.value.eigenvalue == scalar.value.eigenvalue
    assert "no-jump operator V_0 is singular" in str(stacked.value)


def test_perturbation_kernels_rows_equal_one_row_views():
    """dV_0/dtheta, both perturbed families (sharing the _no_jump_factors of V_0), <G> over them, J and the SLD."""
    rng = np.random.default_rng(19)
    for rho, ops in stacks():
        factors = _no_jump_factors(ops[:, 0])
        ps = PurifiedState(*_purifications(rho))
        derivs = _kraus_derivatives(ops, 0, factors[0])
        j = _qfi(ops, derivs, ps.rho())
        tilde = _branches(ps.joint_vector, _tilde_operators(factors[0], ops.shape[1], 0))
        l = _sld(_branches(ps.joint_vector, ops), tilde)
        g = np.stack([random_hermitian(l.shape[-1], rng) for _ in range(len(rho))])
        families = {theta: _perturbed_kraus(ops, 0, theta, factors) for theta in (1e-5, -1e-5)}
        means = {theta: _perturbed_mean(g, ps.joint_vector, f) for theta, f in families.items()}
        for n in range(len(rho)):
            ch, ps_n = KrausChannel(tuple(ops[n])), purify(rho[n])
            assert np.array_equal(derivs[n, 0], dv0_dtheta(ch))
            assert j[n] == qfi(ch, ps_n)
            assert np.array_equal(l[n], sld(ps_n, ch))
            for theta, family in families.items():
                assert np.array_equal(family[n], np.array(perturbed_kraus(ch, theta)))
                assert means[theta][n] == perturbed_mean(g[n], ps_n, ch, theta)


@pytest.mark.parametrize("second, theta, error", [
    (amplitude_damping(0.9), 0.5, AdmissibilityError),
    (amplitude_damping(1.0), -0.5, SingularOperator),
    (amplitude_damping(1.0), 0.5, AdmissibilityError),   # both: admissibility is checked first, as in the scalar order
], ids=["inadmissible", "singular", "inadmissible-and-singular"])
def test_perturbed_kraus_raises_the_failing_rows_scalar_message(second, theta, error):
    v = np.stack([np.array(amplitude_damping(0.1).operators), np.array(second.operators)])
    with pytest.raises(error) as scalar:
        perturbed_kraus(second, theta)
    with pytest.raises(error) as stacked:
        _perturbed_kraus(v, 0, theta, _no_jump_factors(v[:, 0]))
    assert str(stacked.value) == f"row 1: {scalar.value}"
