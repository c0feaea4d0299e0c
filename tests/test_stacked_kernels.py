"""Each stacked kernel of tur, protocol, channels and linalg: every row of a stack equals its one-row call to the last
bit, over dim_S 2-6, dim_E 2-4, mixed and rank-deficient states, and stacks that mix degenerate and non-degenerate
singular values of V_0; a failing row raises the scalar message prefixed with its row index or label."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import amplitude_damping, hermitian_unitary, perturbed_mean, stacked_groups
from density_circuits import bound_terms
from scalar_ensembles import random_density, random_hermitian, random_unitary

from turlab.channels import (
    KrausChannel,
    _kraus_derivatives,
    _perturbed_kraus,
    dv0_dtheta,
    perturbed_kraus,
)
from turlab.errors import AdmissibilityError, SingularOperator
from turlab.linalg import _invertible_factors, _no_jump_factors, _psd_sqrt, dag, embed_operator, hermitian_inverse
from turlab.protocol import PARTS, _ancilla_pullback, _bound_terms, _on_factors, correlator_bound
from turlab.tur import (
    _general_tur_terms,
    _joint,
    _joint_states,
    _product_terms,
    _qfi,
    _roots,
    _sld,
    _survival_activity,
    check_general_tur,
    purify,
    qfi,
    sld,
    survival_activity,
)
from turlab.verify import _perturbed_mean

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


def test_bound_terms_rows():
    """Each row of _bound_terms equals its one-row call to the last bit, and agrees within 1e-12 with the density
    oracle (C(T) = Tr[rho A(T) B], p_0 and Xi of the entry marginal, each separable Q and the neumann1 pair), for the
    purification root of rho and for a wider root x W, W W^dag = I."""
    rng = np.random.default_rng(23)
    for k, (rho, ops) in enumerate(stacks()):
        n_rows, d_e, d_s = ops.shape[:3]
        if d_s > 4 or d_e > 3:
            continue
        e0 = k % d_e
        v = np.roll(ops, e0, axis=1)   # the no-jump operator ops[:, 0] at index e0
        a, b = (np.stack([hermitian_unitary(d_s, rng) for _ in range(n_rows)]) for _ in range(2))
        gs = [_ancilla_pullback(a, part) for part in PARTS]
        c_want, p0_want, xi_want, qs_want, approx_want = bound_terms(rho, v, e0, a, b, gs)
        root = _psd_sqrt(rho)[1]
        wide = root @ np.stack([random_unitary(d_s + 1, rng)[:d_s] for _ in range(n_rows)])
        for x in (root, wide):
            p0, xi, terms, approx = _bound_terms(rho, x, v, e0, b, gs)
            for n in range(n_rows):
                one = slice(n, n + 1)
                p0_n, xi_n, terms_n, approx_n = _bound_terms(rho[one], x[one], v[one], e0, b[one], [g[one] for g in gs])
                assert (p0[n], xi[n]) == (p0_n[0], xi_n[0])
                assert [t[n] for ts in terms for t in ts] == [t[0] for ts in terms_n for t in ts]
                assert [t[n] for t in approx] == [t[0] for t in approx_n]
            (c_re, _, q_re), (c_im, _, q_im) = terms
            for got, want in [(c_re + 1j * c_im, c_want), (p0, p0_want), (xi, xi_want), (q_re, qs_want[0]),
                              (q_im, qs_want[1]), *zip(approx, approx_want)]:
                assert_allclose(got, want, rtol=0, atol=1e-12)


def test_roots_rows():
    """Each row of _roots equals its one-row call to the last bit and is a root of its rho; r is the largest rank of
    the stack, and a pure state's root is its column rho[:, k] / sqrt(rho[k, k]) at the largest diagonal entry."""
    for rho, _ in stacks():
        d = rho.shape[-1]
        x = _roots(rho)
        assert x.shape == rho.shape[:2] + (d,)   # stacks() cycles the ranks 1..d
        assert_allclose(x @ dag(x), rho, rtol=0, atol=1e-14)
        for n in range(len(rho)):
            one = _roots(rho[n:n + 1])[0]
            assert one.shape[-1] == min(1 + n % d, d)
            assert np.array_equal(x[n, :, :one.shape[-1]], one) and not x[n, :, one.shape[-1]:].any()
        pure = rho[::d]
        k = np.diagonal(pure, axis1=1, axis2=2).real.argmax(axis=1)
        want = pure[np.arange(len(pure)), :, k] / np.sqrt(pure[np.arange(len(pure)), k, k].real)[:, None]
        assert np.array_equal(_roots(pure)[..., 0], want) and _roots(pure).shape[-1] == 1


def test_correlator_bound_agrees_with_density_oracle():
    """correlator_bound (the bound's one-row view, its root from _roots) against the density oracle within 1e-12, both
    variants and parts, on generic instances: mixed and rank-deficient rho, dim_S 2-4, dim_E 2-3, e0 0 or 1."""
    for group in stacked_groups(seed=29):
        for rho, ch, a, b in group:
            v = np.stack(ch.operators)[None]
            for part in PARTS:
                g = _ancilla_pullback(a, part)[None]
                c, _, xi, (q,), (xi_1, q_1) = bound_terms(rho[None], v, ch.no_jump_index, a[None], b[None], [g])
                c_part = c[0].real if part == "real" else c[0].imag
                for variant, want in (("exact", (xi[0], q[0])), ("neumann1", (xi_1[0], q_1[0]))):
                    got = correlator_bound(rho, ch, a, b, variant=variant, part=part)
                    assert_allclose((got.correlator_real, got.xi_b, got.q_ab), (c_part, *want), rtol=0, atol=1e-12)


def test_general_tur_terms_rows_equal_check_general_tur():
    rng = np.random.default_rng(13)
    for rho, ops in stacks():
        n_rows = len(ops)
        joint = _joint(_psd_sqrt(rho)[1])
        v0_inv = _no_jump_factors(ops[:, 0])[0]
        psi, tilde = _joint_states(joint, ops, 0, v0_inv)
        g = np.stack([random_hermitian(psi.shape[-1], rng) for _ in range(n_rows)])
        g_psi = (g @ psi[..., None])[..., 0]
        terms = _general_tur_terms(psi, g_psi, tilde)
        for n in range(n_rows):
            one = slice(n, n + 1)
            psi_n, tilde_n = _joint_states(joint[one], ops[one], 0, v0_inv[one])
            one_row = _general_tur_terms(psi_n, g_psi[one], tilde_n)
            assert [t[n] for t in terms] == [t[0] for t in one_row]
            report = check_general_tur(g[n], purify(rho[n]), KrausChannel(tuple(ops[n])))
            assert [t[n] for t in terms] == [report.mean, report.variance, report.q_baseline]


def test_product_terms_rows():
    """Each row of _product_terms (G = G_R (x) G_S (x) G_E, one batched matmul per factor) equals its one-row call to
    the last bit, and agrees within 1e-12 with check_general_tur on the one Kronecker product G, e0 0 or 1."""
    rng = np.random.default_rng(31)
    for k, (rho, ops) in enumerate(stacks()):
        n_rows, d_e, d_s = ops.shape[:3]
        e0 = k % 2
        v = np.roll(ops, e0, axis=1)   # the no-jump operator ops[:, 0] at index e0
        joint = _joint(_psd_sqrt(rho)[1])
        v0_inv = _no_jump_factors(ops[:, 0])[0]
        g_r, g_s, g_e = (np.stack([random_hermitian(d, rng) for _ in range(n_rows)]) for d in (d_s, d_s, d_e))
        terms = _product_terms(joint, v, e0, v0_inv, g_r, g_s, g_e)
        for n in range(n_rows):
            one = slice(n, n + 1)
            one_row = _product_terms(joint[one], v[one], e0, v0_inv[one], g_r[one], g_s[one], g_e[one])
            assert [t[n] for t in terms] == [t[0] for t in one_row]
            ch = KrausChannel(tuple(v[n]), no_jump_index=e0)
            report = check_general_tur(np.kron(np.kron(g_r[n], g_s[n]), g_e[n]), purify(rho[n]), ch)
            assert_allclose([t[n] for t in terms], [report.mean, report.variance, report.q_baseline], rtol=0,
                            atol=1e-12)


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
        joint = _joint(_psd_sqrt(rho)[1])
        derivs = _kraus_derivatives(ops, 0, factors[0])
        j = _qfi(ops, derivs, rho)
        l = _sld(*_joint_states(joint, ops, 0, factors[0]))
        g = np.stack([random_hermitian(l.shape[-1], rng) for _ in range(len(rho))])
        families = {theta: _perturbed_kraus(ops, 0, theta, factors) for theta in (1e-5, -1e-5)}
        means = {theta: _perturbed_mean(g, joint, f) for theta, f in families.items()}
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
