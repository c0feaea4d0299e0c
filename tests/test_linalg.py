import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from turlab.errors import ContractError, LayoutError, SingularOperator
from turlab.gates import SIGMA_X
from turlab.channels import _perturbed_kraus
from turlab.linalg import (
    SubsystemLayout,
    _spectra,
    _spectral_map,
    dag,
    embed_operator,
    hermitian_inverse,
    kron,
    outer,
    partial_trace,
    require_density,
    require_hermitian,
)
from turlab.random_ops import random_density


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng, dim):
    a = random_complex(rng, dim, dim)
    return (a + dag(a)) / 2


class TestPartialTrace:
    def test_bell_state_marginals(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = outer(bell)
        layout = SubsystemLayout((2, 2))
        assert_allclose(partial_trace(rho, layout, keep=[0]), np.eye(2) / 2, atol=1e-12)
        assert_allclose(partial_trace(rho, layout, keep=[1]), np.eye(2) / 2, atol=1e-12)

    def test_product_state_factorizes(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        layout = SubsystemLayout((2, 3))
        got = partial_trace(np.kron(a, b), layout, keep=[0])
        assert_allclose(got, a * np.trace(b), atol=1e-12)

    def test_three_factor_composition(self, rng):
        # tracing E then R equals tracing {R, E} in one shot
        psi = random_complex(rng, 2 * 3 * 2)
        psi /= np.linalg.norm(psi)
        rho = outer(psi)
        layout = SubsystemLayout((2, 3, 2))
        direct = partial_trace(rho, layout, keep=[1])
        after_e = partial_trace(rho, layout, keep=[0, 1])
        composed = partial_trace(after_e, SubsystemLayout((2, 3)), keep=[1])
        assert_allclose(composed, direct, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = random_hermitian(rng, 12)
        layout = SubsystemLayout((3, 4))
        for keep in ([0], [1], [0, 1]):
            assert abs(np.trace(partial_trace(rho, layout, keep)) - np.trace(rho)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(LayoutError):
            partial_trace(np.eye(5, dtype=complex), SubsystemLayout((2, 2)), keep=[0])


class TestEmbedOperator:
    def test_single_factor(self):
        assert_allclose(embed_operator(SIGMA_X, (2, 2), (1,)), np.kron(np.eye(2), SIGMA_X))

    def test_adjacent_pair(self, rng):
        u = random_complex(rng, 4, 4)
        assert_allclose(embed_operator(u, (2, 2, 3), (0, 1)), np.kron(u, np.eye(3)), atol=1e-12)

    def test_nonadjacent_pair_einsum_oracle(self, rng):
        dims = (2, 3, 2)
        u = random_complex(rng, 4, 4)
        full = embed_operator(u, dims, (0, 2))
        v = random_complex(rng, 12)
        got = (full @ v).reshape(dims)
        t = u.reshape(2, 2, 2, 2)
        want = np.einsum("acbd,bmd->amc", t, v.reshape(dims))
        assert_allclose(got, want, atol=1e-12)

    def test_bad_positions(self):
        with pytest.raises(LayoutError):
            embed_operator(np.eye(2), (2, 2), (1, 0))


# Each case's matrix enters the stacked kernels as the last row of a stack, after a random positive definite
# row with a grouping pattern of its own.

def with_random_row(m):
    z = random_complex(np.random.default_rng(len(m)), len(m), len(m))
    return np.stack([dag(z) @ z + np.eye(len(m)), m])


def spectrum(m):
    """The group means and projectors of m, the last row of a _spectra call."""
    for rows, values, projectors in _spectra(with_random_row(m)):
        if 1 in rows:
            k = rows.index(1)
            return tuple(float(z[k]) for z in values), tuple(p[k] for p in projectors)


def mapped(m, f):
    """sum_k f(z_k) P_k of m through _spectral_map, m the last row of a stack."""
    return _spectral_map(_spectra(with_random_row(m)), f)[1]


class TestSpectral:
    def test_diagonal(self):
        values, projectors = spectrum(np.diag([2.0, 1.0]).astype(complex))
        assert values == (2.0, 1.0)
        assert_allclose(projectors[0], np.diag([1, 0]).astype(complex), atol=1e-12)
        assert_allclose(projectors[1], np.diag([0, 1]).astype(complex), atol=1e-12)

    def test_sigma_x(self):
        values, projectors = spectrum(SIGMA_X)
        assert_allclose(values, [1.0, -1.0], atol=1e-12)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        assert_allclose(projectors[0], outer(plus), atol=1e-12)
        assert_allclose(projectors[1], outer(minus), atol=1e-12)

    def test_reconstruction_and_projector_algebra(self, rng):
        m = random_hermitian(rng, 8)
        _, projectors = spectrum(m)
        assert np.max(np.abs(mapped(m, lambda z: z) - m)) <= 1e-9
        for i, p in enumerate(projectors):
            assert np.max(np.abs(p @ p - p)) <= 1e-9
            for q in projectors[i + 1:]:
                assert np.max(np.abs(p @ q)) <= 1e-9

    def test_degenerate_grouping(self):
        values, projectors = spectrum(np.eye(4, dtype=complex))
        assert len(values) == 1
        assert_allclose(projectors[0], np.eye(4), atol=1e-12)


class TestHermitianFunctions:
    def test_diagonal_inverse(self):
        assert_allclose(hermitian_inverse(np.diag([1.0, 0.5]).astype(complex)),
                        np.diag([1.0, 2.0]), atol=1e-12)

    def test_sqrt_identity(self):
        assert_allclose(mapped(np.eye(3, dtype=complex), lambda z: np.sqrt(np.maximum(z, 0.0))), np.eye(3), atol=1e-12)

    def test_inverse_multiplication_oracle(self, rng):
        m = random_hermitian(rng, 6) + 8 * np.eye(6)  # well conditioned
        assert np.max(np.abs(m @ hermitian_inverse(m) - np.eye(6))) <= 1e-9

    def test_identity_function_is_identity_map(self, rng):
        m = random_hermitian(rng, 5)
        assert np.max(np.abs(mapped(m, lambda z: z) - m)) <= 1e-12

    def test_singular_inverse_reports_eigenvalue(self):
        with pytest.raises(SingularOperator) as err:
            hermitian_inverse(np.diag([1.0, 0.0]).astype(complex))
        assert err.value.eigenvalue is not None
        assert abs(err.value.eigenvalue) <= 1e-12


def polar(v):
    """The unitary polar factor of v, from the spectrum of v^dag v, as perturbed_kraus takes it."""
    return v @ mapped(dag(v) @ v, lambda z: 1.0 / np.sqrt(z))


class TestPolarUnitary:
    def test_unitary_input_returned(self, rng):
        h = random_hermitian(rng, 3)
        w, v = np.linalg.eigh(h)
        u = v @ np.diag(np.exp(1j * w)) @ dag(v)
        assert_allclose(polar(u), u, atol=1e-9)

    def test_positive_diagonal(self):
        assert_allclose(polar(np.diag([0.5, 0.8]).astype(complex)), np.eye(2), atol=1e-12)

    def test_reconstruction(self, rng):
        v = random_complex(rng, 4, 4) + 3 * np.eye(4)
        u = polar(v)
        root = mapped(dag(v) @ v, lambda z: np.sqrt(np.maximum(z, 0.0)))
        assert np.max(np.abs(u @ root - v)) <= 1e-9

    def test_singular_rejected(self):
        """perturbed_kraus checks the polar factor's V_0 (the last row) before taking it."""
        v0 = np.array([[1, 0], [0, 0]], dtype=complex)
        v = np.stack([np.stack([np.eye(2), np.zeros((2, 2))]), np.stack([v0, np.eye(2) - v0])]).astype(complex)
        with pytest.raises(SingularOperator, match="^row 1: polar decomposition needs nonsingular"):
            _perturbed_kraus(v, 0, -0.1)


class TestKron:
    @staticmethod
    def operand(rng, shape, dtype):
        """Normal entries with signed zeros mixed in, so that a changed product shows in the bits."""
        x = rng.normal(size=shape)
        if dtype is complex:
            x = x + 1j * rng.normal(size=shape)
        return np.where(rng.random(shape) < 0.2, rng.choice([0.0, -0.0], size=shape), x).astype(dtype)

    @settings(max_examples=150, deadline=None, database=None)
    @given(kind=st.sampled_from(["vectors", "matrices", "stacks", "stack-and-matrix", "matrix-and-stack"]),
           shape_a=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           shape_b=st.tuples(st.integers(1, 4), st.integers(1, 4)),
           dtypes=st.tuples(st.sampled_from([float, complex]), st.sampled_from([float, complex])),
           n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    # 1x1 complex operands: numpy picks its multiply loop by operand layout, and these two cases
    # differ in the last bit unless the operands have numpy kron's shapes and equal rank
    @example(kind="vectors", shape_a=(1, 1), shape_b=(1, 1), dtypes=(complex, complex), n=1, seed=4)
    @example(kind="stack-and-matrix", shape_a=(1, 1), shape_b=(1, 1), dtypes=(complex, complex), n=1, seed=2493451694)
    def test_bitwise_equal_to_np_kron(self, kind, shape_a, shape_b, dtypes, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "vectors":
            shape_a, shape_b = shape_a[:1], shape_b[:1]
        if kind in ("stacks", "stack-and-matrix"):
            shape_a = (n,) + shape_a
        if kind in ("stacks", "matrix-and-stack"):
            shape_b = (n,) + shape_b
        a, b = self.operand(rng, shape_a, dtypes[0]), self.operand(rng, shape_b, dtypes[1])
        got = kron(a, b)
        if kind in ("vectors", "matrices"):
            want = np.kron(a, b)
        else:   # per slice, the unstacked operand broadcast over the stack
            a_s, b_s = np.broadcast_to(a, (n,) + a.shape[-2:]), np.broadcast_to(b, (n,) + b.shape[-2:])
            want = np.stack([np.kron(x, y) for x, y in zip(a_s, b_s)])
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()   # signed zeros too


class TestStackedValidators:
    CORRUPT = {
        "asymmetric": lambda m: m + np.triu(np.full(m.shape, 1e-3), 1),
        "trace": lambda m: 1.5 * m,
        "negative": lambda m: np.diag([1.2, -0.2, 0.0]).astype(complex),
    }

    def test_valid_stack_is_returned(self, rng):
        rhos = np.stack([random_density(3, rng, rank=1 + k % 3) for k in range(5)])
        assert require_density(rhos) is rhos and require_hermitian(rhos) is rhos

    @pytest.mark.parametrize("validator, corrupt", [
        (require_hermitian, {2: "asymmetric", 4: "asymmetric"}),
        (require_density, {3: "trace", 4: "asymmetric"}),
        (require_density, {1: "negative", 3: "asymmetric"}),   # the lowest row first, whatever its check
        (require_density, {0: "asymmetric", 2: "negative"}),
    ])
    def test_first_failing_row_raises_its_scalar_message(self, rng, validator, corrupt):
        rows = [random_density(3, rng) for _ in range(5)]
        for k, how in corrupt.items():
            rows[k] = self.CORRUPT[how](rows[k])
        first = min(corrupt)
        with pytest.raises(ContractError) as scalar:
            validator(rows[first])
        with pytest.raises(ContractError) as stacked:
            validator(np.stack(rows))
        assert str(stacked.value) == f"row {first}: {scalar.value}"
