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
    _no_jump_factors,
    dag,
    embed_operator,
    hermitian_inverse,
    kron,
    outer,
    partial_trace,
    require_density,
    require_hermitian,
)
from turlab.random_ops import random_density, random_unitary


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


# Each case's matrix enters the stacked kernels as the last row of a stack, after a random well-conditioned row.

def with_random_row(m):
    z = random_complex(np.random.default_rng(len(m)), len(m), len(m))
    return np.stack([z + 3 * np.eye(len(m)), m])


def factors(v):
    """(V^-1, the unitary polar factor of V, the least eigenvalue of V^dag V) of v, the last row of a stack."""
    return tuple(f[1] for f in _no_jump_factors(with_random_row(v)))


def hermitian_sqrt(m):
    w, q = np.linalg.eigh(m)
    return (q * np.sqrt(np.maximum(w, 0.0))) @ dag(q)


def v0_with_smallest_singular_value(rng, d, s_min):
    """U diag(s) W^dag with Haar U, W, s_min last and the other singular values uniform in (0.1, 1)."""
    return random_unitary(d, rng) @ np.diag(np.r_[rng.uniform(0.1, 1.0, d - 1), s_min]) @ random_unitary(d, rng)


class TestSpectral:
    """_no_jump_factors: one SVD of each V gives V^-1, its polar factor and the least eigenvalue of V^dag V."""

    def test_diagonal(self):
        inv, polar, lowest = factors(np.diag([2.0, 1.0]).astype(complex))
        assert_allclose(inv, np.diag([0.5, 1.0]), atol=1e-12)
        assert_allclose(polar, np.eye(2), atol=1e-12)
        assert lowest == pytest.approx(1.0, abs=1e-12)

    def test_sigma_x(self):
        inv, polar, lowest = factors(SIGMA_X)   # unitary and Hermitian: its own inverse and polar factor
        assert_allclose(inv, SIGMA_X, atol=1e-12)
        assert_allclose(polar, SIGMA_X, atol=1e-12)
        assert lowest == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction(self, rng):
        m = random_hermitian(rng, 8)
        inv, polar, lowest = factors(m)
        assert np.max(np.abs(inv @ m - np.eye(8))) <= 1e-9
        assert np.max(np.abs(polar @ hermitian_sqrt(dag(m) @ m) - m)) <= 1e-9
        assert lowest == pytest.approx(np.linalg.eigvalsh(dag(m) @ m)[0], rel=1e-9)
        # the other inverses are products of V^-1: (V^dag V)^-1 and (V V^dag)^-1
        assert np.max(np.abs(inv @ dag(inv) - hermitian_inverse(dag(m) @ m))) <= 1e-9
        assert np.max(np.abs(dag(inv) @ inv - hermitian_inverse(m @ dag(m)))) <= 1e-9

    @pytest.mark.parametrize("s_min", [1e-4, 1e-5])
    def test_ill_conditioned_inverse_and_rows(self, s_min):
        """|V^-1 V - I| stays at rounding where the normal equations (V^dag V)^-1 V^dag lose ~1e-8 (1e-4) and
        ~1e-6 (1e-5); each row of the stack equals its one-row call to the last bit."""
        rng = np.random.default_rng(23)
        v0 = np.stack([v0_with_smallest_singular_value(rng, 4, s_min) for _ in range(20)])
        stacked = _no_jump_factors(v0)
        residual = np.abs(stacked[0] @ v0 - np.eye(4)).max(axis=(1, 2))
        assert residual.max() <= 1e-10
        assert_allclose(stacked[2], s_min ** 2, rtol=1e-9)
        for n in range(len(v0)):
            for got, one_row in zip(stacked, _no_jump_factors(v0[n:n + 1])):
                assert np.array_equal(got[n], one_row[0])


class TestHermitianFunctions:
    def test_diagonal_inverse(self):
        assert_allclose(hermitian_inverse(np.diag([1.0, 0.5]).astype(complex)),
                        np.diag([1.0, 2.0]), atol=1e-12)

    def test_sqrt_identity(self):
        inv, polar, lowest = factors(np.eye(3, dtype=complex))   # I = I sqrt(I^dag I), all singular values 1
        assert_allclose(inv, np.eye(3), atol=1e-12)
        assert_allclose(polar, np.eye(3), atol=1e-12)
        assert lowest == pytest.approx(1.0, abs=1e-12)

    def test_inverse_multiplication_oracle(self, rng):
        m = random_hermitian(rng, 6) + 8 * np.eye(6)  # well conditioned
        assert np.max(np.abs(m @ hermitian_inverse(m) - np.eye(6))) <= 1e-9

    def test_identity_function_is_identity_map(self, rng):
        m = random_hermitian(rng, 5)
        inv = factors(m)[0]
        assert np.max(np.abs(m @ inv - np.eye(5))) <= 1e-12

    def test_singular_inverse_reports_eigenvalue(self):
        with pytest.raises(SingularOperator) as err:
            hermitian_inverse(np.diag([1.0, 0.0]).astype(complex))
        assert err.value.eigenvalue is not None
        assert abs(err.value.eigenvalue) <= 1e-12


def polar(v):
    """The unitary polar factor of v, as perturbed_kraus takes it."""
    return factors(v)[1]


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
        assert np.max(np.abs(u @ hermitian_sqrt(dag(v) @ v) - v)) <= 1e-9

    def test_singular_rejected(self):
        """perturbed_kraus checks the polar factor's V_0 (the last row) before taking it."""
        v0 = np.array([[1, 0], [0, 0]], dtype=complex)
        v = np.stack([np.stack([np.eye(2), np.zeros((2, 2))]), np.stack([v0, np.eye(2) - v0])]).astype(complex)
        with pytest.raises(SingularOperator, match="^row 1: polar decomposition needs nonsingular"):
            _perturbed_kraus(v, 0, -0.1, _no_jump_factors(v[:, 0]))


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
