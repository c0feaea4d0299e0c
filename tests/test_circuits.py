"""Circuit simulation on register factors against full-register embedded operators, and the
stacked state-vector premeasure circuits against the density-matrix ones."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from turlab.channels import ensure_dilation, kraus_from_unitary
from turlab.gates import HADAMARD, S_GATE, controlled, pauli_pair
from turlab.harness import ExperimentConfig, _premeasure_probabilities, generate_trial
from turlab.linalg import SubsystemLayout, basis_vector, dag, embed_operator, outer
from turlab.protocol import (
    PARTS,
    STAGES,
    _ancilla_pullback,
    _entry_state,
    _on_factors,
    nested_premeasure_state,
    protocol_state,
)
from turlab.random_ops import random_channel, random_density, random_unitary


@st.composite
def factor_sets(draw):
    """Register dims and an ascending, nonempty set of target factors."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    targets = tuple(sorted(draw(st.sets(st.integers(0, len(dims) - 1), min_size=1))))
    return dims, targets


@settings(max_examples=80, deadline=None, database=None)
@given(case=factor_sets(), seed=st.integers(0, 2**32 - 1))
@example(case=((2, 3, 2), (1, 2)), seed=1)        # adjacent
@example(case=((2, 3, 2), (0, 2)), seed=2)        # non-adjacent
@example(case=((2, 3, 2), (0, 1, 2)), seed=3)     # whole register
def test_on_factors_matches_embedded_operator(case, seed):
    dims, targets = case
    rng = np.random.default_rng(seed)
    d, d_t = math.prod(dims), math.prod(dims[k] for k in targets)
    u = rng.normal(size=(d_t, d_t)) + 1j * rng.normal(size=(d_t, d_t))
    sigma = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    full = embed_operator(u, dims, targets)
    assert_allclose(_on_factors(u, sigma, dims, targets), full @ sigma @ dag(full), rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("part", PARTS)
def test_protocol_stages_match_embedded_construction(part):
    readout = HADAMARD if part == "real" else HADAMARD @ dag(S_GATE)
    for rho, ch, a, b in instances():
        dil = ensure_dilation(ch).dilation
        dims = (2, ch.dim, dil.env_dim)
        gates = [
            [(HADAMARD, (0,)), (controlled(b), (0, 1))],   # after_UB
            [(dil.unitary, (1, 2))],                       # after_channel
            [(controlled(a), (0, 1))],                     # after_UA
            [(readout, (0,))],                             # premeasure
        ]
        want = np.kron(np.kron(outer(basis_vector(2, 0)), rho), outer(basis_vector(dil.env_dim, dil.env_initial)))
        assert_allclose(protocol_state(rho, ch, a, b, stage=STAGES[0], part=part).matrix, want, rtol=0, atol=1e-12)
        for stage, stage_gates in zip(STAGES[1:], gates):
            want = embedded_circuit(want, dims, stage_gates)
            got = protocol_state(rho, ch, a, b, stage=stage, part=part).matrix
            assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("part", PARTS)
def test_nested_premeasure_matches_embedded_construction(part):
    for rho, ch, a, b in instances():
        dil = ensure_dilation(ch).dilation
        dims = (2, 2, ch.dim, dil.env_dim, dil.env_dim)
        plus = (basis_vector(2, 0) + basis_vector(2, 1)) / math.sqrt(2.0)
        env = outer(basis_vector(dil.env_dim, dil.env_initial))
        sigma = np.kron(np.kron(outer(plus), _entry_state(rho, b)), np.kron(env, env))
        want = embedded_circuit(sigma, dims, [
            (dil.unitary, (2, 3)),
            (controlled(_ancilla_pullback(a, part)), (0, 1, 2)),
            (dag(dil.unitary), (2, 4)),
            (HADAMARD, (0,)),
        ])
        assert_allclose(nested_premeasure_state(rho, ch, a, b, part=part).matrix, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_premeasure_probabilities_match_density_circuits(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    u = np.stack([random_unitary(8, rng) for _ in range(n)])
    a_k, b_k = rng.integers(0, 16, size=(2, n))
    main, nested = _premeasure_probabilities(psi, u, a_k, b_k)
    for k in range(n):
        rho = outer(psi[k])
        ch = kraus_from_unitary(u[k], SubsystemLayout((4, 2), ("S", "E")))
        a, b = pauli_pair(a_k[k] // 4, a_k[k] % 4), pauli_pair(b_k[k] // 4, b_k[k] % 4)
        want_main = np.diag(protocol_state(rho, ch, a, b, stage="premeasure").matrix).real
        want_nested = np.diag(nested_premeasure_state(rho, ch, a, b).matrix).real
        assert_allclose(main[k].ravel(), want_main, rtol=0, atol=1e-14)
        assert_allclose(nested[k].ravel(), want_nested, rtol=0, atol=1e-14)
