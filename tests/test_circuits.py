"""Circuit simulation on register factors against full-register embedded operators, the stacked
state-vector circuits against their one-row views and the density-matrix oracle, and the sampled
stage's pure-state circuits against that oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from turlab.channels import ensure_dilation
from turlab.gates import HADAMARD, S_GATE, controlled
from turlab.harness import _PAULI_PAIRS, ExperimentConfig, generate_trial
from turlab.linalg import basis_vector, dag, embed_operator, outer
from turlab.errors import ContractError
from turlab.protocol import (
    PARTS,
    STAGES,
    ProtocolState,
    _ancilla_pullback,
    _exact_correlator,
    _main_vectors,
    _nested_vectors,
    _on_factors,
    _protocol_correlators,
    _state,
    exact_correlator,
    nested_premeasure_state,
    protocol_correlator,
    protocol_state,
)
from turlab.random_ops import random_density, random_unitary
from turlab.tur import _purifications

from conftest import random_channel, stacked_groups
from density_circuits import entry_state, main_states, nested_states, on_factors


@st.composite
def factor_sets(draw):
    """Register dims and an ascending, nonempty set of target factors."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    targets = tuple(sorted(draw(st.sets(st.integers(0, len(dims) - 1), min_size=1))))
    return dims, targets


@settings(max_examples=80, deadline=None, database=None)
@given(case=factor_sets(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), r=st.integers(1, 3),
       gate_stack=st.booleans())
@example(case=((2, 3, 2), (1, 2)), seed=1, n=1, r=1, gate_stack=False)        # adjacent
@example(case=((2, 3, 2), (0, 2)), seed=2, n=2, r=2, gate_stack=True)         # non-adjacent
@example(case=((2, 3, 2), (0, 1, 2)), seed=3, n=3, r=3, gate_stack=False)     # whole register
def test_on_factors_matches_embedded_operator(case, seed, n, r, gate_stack):
    """Each state of a stack psi (n, D, r), a trailing factor of dimension r left alone, under one gate or a
    stack of n; and the oracle's u sigma u^dag on each matrix of a stack sigma (n, D, D)."""
    dims, targets = case
    rng = np.random.default_rng(seed)
    d, d_t = math.prod(dims), math.prod(dims[k] for k in targets)
    u = rng.normal(size=(n, d_t, d_t)) + 1j * rng.normal(size=(n, d_t, d_t))
    psi = rng.normal(size=(n, d, r)) + 1j * rng.normal(size=(n, d, r))
    sigma = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    got = _on_factors(u if gate_stack else u[0], psi, dims, targets)
    got_oracle = on_factors(u if gate_stack else u[0], sigma, dims, targets)
    for k in range(n):
        full = embed_operator(u[k] if gate_stack else u[0], dims, targets)
        assert_allclose(got[k], full @ psi[k], rtol=0, atol=1e-12)
        assert_allclose(got_oracle[k], full @ sigma[k] @ dag(full), rtol=0, atol=1e-12)


def embedded_circuit(sigma, dims, gates):
    for u, positions in gates:
        full = embed_operator(u, dims, positions)
        sigma = full @ sigma @ dag(full)
    return sigma


def instances():
    cfg = ExperimentConfig(seed=31, n_trials=1, shots=0, gamma_range=(0.1, 0.75), variants=("exact",))
    for i in range(3):
        s = generate_trial(cfg, i)
        yield s.rho, s.channel, s.a_op, s.b_op
    rng = np.random.default_rng(37)
    a = np.diag([1.0, -1.0, 1.0]).astype(complex)
    b = np.eye(3, dtype=complex)[[1, 0, 2]]
    yield random_density(3, rng), random_channel(3, 2, rng), a, b


def embedded_stages(rho, ch, a, b, part):
    """The register of the main circuit at each stage, from full-register embedded gates."""
    readout = HADAMARD if part == "real" else HADAMARD @ dag(S_GATE)
    dil = ensure_dilation(ch).dilation
    dims = (2, ch.dim, dil.env_dim)
    gates = [
        [(HADAMARD, (0,)), (controlled(b), (0, 1))],   # after_UB
        [(dil.unitary, (1, 2))],                       # after_channel
        [(controlled(a), (0, 1))],                     # after_UA
        [(readout, (0,))],                             # premeasure
    ]
    want = {STAGES[0]: np.kron(np.kron(outer(basis_vector(2, 0)), rho),
                               outer(basis_vector(dil.env_dim, dil.env_initial)))}
    for prev, stage, stage_gates in zip(STAGES, STAGES[1:], gates):
        want[stage] = embedded_circuit(want[prev], dims, stage_gates)
    return want


def embedded_nested(rho, ch, a, b, part):
    """The register of the nested circuit before measurement, from full-register embedded gates."""
    dil = ensure_dilation(ch).dilation
    dims = (2, 2, ch.dim, dil.env_dim, dil.env_dim)
    plus = (basis_vector(2, 0) + basis_vector(2, 1)) / math.sqrt(2.0)
    env = outer(basis_vector(dil.env_dim, dil.env_initial))
    sigma = np.kron(np.kron(outer(plus), entry_state(rho, b)), np.kron(env, env))
    return embedded_circuit(sigma, dims, [
        (dil.unitary, (2, 3)),
        (controlled(_ancilla_pullback(a, part)), (0, 1, 2)),
        (dag(dil.unitary), (2, 4)),
        (HADAMARD, (0,)),
    ])


@pytest.mark.parametrize("part", PARTS)
def test_protocol_stages_match_embedded_construction(part):
    for rho, ch, a, b in instances():
        for stage, want in embedded_stages(rho, ch, a, b, part).items():
            got = protocol_state(rho, ch, a, b, stage=stage, part=part).matrix
            assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("part", PARTS)
def test_nested_premeasure_matches_embedded_construction(part):
    for rho, ch, a, b in instances():
        want = embedded_nested(rho, ch, a, b, part)
        assert_allclose(nested_premeasure_state(rho, ch, a, b, part=part).matrix, want, rtol=0, atol=1e-12)


def stacks(group):
    """rho, A, B, the dilation unitaries and the Kraus operators ops[m] of a group of instances, stacked."""
    rho, a, b = (np.stack(m) for m in zip(*[(r, a, b) for r, _, a, b in group]))
    dils = [ensure_dilation(ch).dilation for _, ch, _, _ in group]
    ops = np.stack([ch.operators for _, ch, _, _ in group], axis=1)
    return rho, a, b, np.stack([d.unitary for d in dils]), dils[0].env_initial, ops


@pytest.mark.parametrize("part", PARTS)
def test_stacked_circuits_rows_equal_one_row_views_and_embedded_oracle(part):
    """The vector circuits on the roots of mixed and rank-deficient rho: each row's density matrix is its one-row
    view to the last bit, and the density-matrix oracle's and the embedded construction's within 1e-12."""
    for group in stacked_groups():
        rho, a, b, u, e0, _ = stacks(group)
        x = _purifications(rho)[2].reshape(rho.shape)
        wants = [embedded_stages(*row, part) for row in group]
        for stage in STAGES:
            got = _main_vectors(x, u, e0, a, b, stage, part)
            oracle = main_states(rho, u, e0, a, b, stage, part)
            for k, row in enumerate(group):
                state = _state(got[k], stage)
                assert np.array_equal(state.matrix, protocol_state(*row, stage=stage, part=part).matrix), (stage, k)
                assert_allclose(state.matrix, oracle[k], rtol=0, atol=1e-12)
                assert_allclose(oracle[k], wants[k][stage], rtol=0, atol=1e-12)
        got = _nested_vectors(x, u, e0, _ancilla_pullback(a, part), b)
        oracle = nested_states(rho, u, e0, a, b, part)
        for k, row in enumerate(group):
            state = _state(got[k], "premeasure")
            assert np.array_equal(state.matrix, nested_premeasure_state(*row, part=part).matrix), k
            assert_allclose(state.matrix, oracle[k], rtol=0, atol=1e-12)
            assert_allclose(oracle[k], embedded_nested(*row, part), rtol=0, atol=1e-12)


def test_stacked_correlators_rows_equal_one_row_views():
    for group in stacked_groups():
        rho, a, b, u, e0, ops = stacks(group)
        proto = _protocol_correlators(_main_vectors(_purifications(rho)[2].reshape(rho.shape), u, e0, a, b))
        direct = _exact_correlator(rho, ops, a, b)
        assert proto.tolist() == [protocol_correlator(*row) for row in group]
        assert direct.tolist() == [exact_correlator(*row) for row in group]
        assert_allclose(proto, direct, rtol=0, atol=1e-12)


def test_protocol_state_checks_its_trace():
    state = protocol_state(*next(stacked_groups())[0], stage="premeasure")
    with pytest.raises(ContractError, match=r"^protocol state trace 1\.5 != 1$"):
        ProtocolState(state.layout, 1.5 * state.matrix, "premeasure")


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_premeasure_probabilities_match_density_circuits(n, seed):
    """The sampled stage's circuits: pure preparations psi enter as their own roots (R of dimension 1)."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    u = np.stack([random_unitary(8, rng) for _ in range(n)])
    a, b = _PAULI_PAIRS[rng.integers(0, 16, size=(2, n))]
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    main = (np.abs(_main_vectors(psi[:, :, None], u, 0, a, b, "premeasure")) ** 2).sum(axis=-1)
    nested = (np.abs(_nested_vectors(psi[:, :, None], u, 0, _ancilla_pullback(a, "real"), b)) ** 2).sum(axis=-1)
    want_main = np.diagonal(main_states(rho, u, 0, a, b, "premeasure"), axis1=1, axis2=2).real
    want_nested = np.diagonal(nested_states(rho, u, 0, a, b), axis1=1, axis2=2).real
    assert_allclose(main.reshape(n, -1), want_main, rtol=0, atol=1e-14)
    assert_allclose(nested.reshape(n, -1), want_nested, rtol=0, atol=1e-14)
