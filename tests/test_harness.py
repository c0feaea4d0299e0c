import dataclasses
import itertools
import math
import os
import subprocess
import sys
from bisect import bisect_right
from collections import Counter
from functools import reduce
from pathlib import Path
from statistics import median

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from turlab import harness, protocol
from turlab.channels import KrausChannel, _checked_kraus, kraus_from_unitary
from turlab.errors import ContractError, SingularOperator
from turlab.gates import I2, PAULIS
from turlab.harness import (
    ExperimentConfig,
    TrialRecord,
    TrialSetup,
    VariantValues,
    _sampled_variants,
    _variant_values,
    evaluate_trial,
    generate_trial,
    run_experiment,
    summarize,
)
from turlab.linalg import SubsystemLayout, kron
from turlab.protocol import (
    ProtocolState,
    _ancilla_pullback,
    _bound_and_tradeoff,
    correlator_bound,
    sample_shots,
)
from turlab.tur import check_general_tur, purify

from conftest import KET0, P0, P1, rx, ry
from density_circuits import entry_state, main_states, nested_states


def kron_family_inputs(thetas, gamma):
    """The family's preparation and dilation as Kronecker products of gates: the oracle of the stacked formula.

    RY(t2) RX(t1) (x) RY(t4) RX(t3) on |00>, then on S1 (x) S2 (x) E a layer of
    RY RX rotations on S, a controlled-RY(pi*gamma) from S1 onto E and a
    second rotation layer; each product is taken in the stacked formula's order.
    """
    t = thetas
    psi = np.kron(ry(t[1]) @ rx(t[0]) @ KET0, ry(t[3]) @ rx(t[2]) @ KET0)
    layer1 = reduce(np.kron, (ry(t[5]) @ rx(t[4]), ry(t[7]) @ rx(t[6]), I2))
    coupling = reduce(np.kron, (P0, I2, I2)) + reduce(np.kron, (P1, I2, ry(math.pi * gamma)))
    layer2 = reduce(np.kron, (ry(t[9]) @ rx(t[8]), ry(t[11]) @ rx(t[10]), I2))
    return np.outer(psi, psi.conj()), layer2 @ coupling @ layer1


def scalar_sampled_values(rho, ch: KrausChannel, a, b, config: ExperimentConfig, trial_id: int):
    """(sampled variant, None), (None, reason its postselection came up empty), or (None, None) if off.

    The oracle of the batched sampled stage: the density-matrix circuits, one
    trial at a time.
    """
    if "sampled" not in config.variants or config.shots == 0:
        return None, None
    u, e0, d_e = ch.dilation.unitary[None], ch.dilation.env_initial, ch.dilation.env_dim
    states = [
        ProtocolState(SubsystemLayout((2, ch.dim, d_e)), main_states(rho[None], u, e0, a, b, "premeasure")[0],
                      "premeasure"),
        ProtocolState(SubsystemLayout((2, 2, ch.dim, d_e, d_e)), nested_states(rho[None], u, e0, a, b)[0],
                      "premeasure"),
    ]
    main, nested = (sample_shots(state, config.shots, (config.seed, trial_id, k)) for k, state in enumerate(states))
    sampled, (failure,) = _sampled_variants(main.counts[None], nested.counts[None])
    return (sampled.row(0) if failure is None else None), failure


def variant_row(c_part: float, xi: float, q: float):
    """The VariantValues of one trial and its trade-off margin, from the run's _variant_values."""
    values, margin = _variant_values(*(np.array([x]) for x in (c_part, xi, q)))
    return values.row(0), margin.item()


def scalar_evaluate_trial(setup: TrialSetup, config: ExperimentConfig) -> TrialRecord:
    """The oracle of the stacked chunk: one trial's record composed from the public scalar functions.

    The general trade-off is checked through the full R+P+E observable on a
    lifted channel, and the sampled variant through the density-matrix
    circuits.
    """
    rho, ch, a, b = setup.rho, setup.channel, setup.a_op, setup.b_op

    bound = correlator_bound(rho, ch, a, b, variant="exact", part="real")
    exact, margin = variant_row(bound.correlator_real, bound.xi_b, bound.q_ab)

    bound_i, sep_i = _bound_and_tradeoff(rho, ch, a, b, "exact", "imag")

    approx_bound = correlator_bound(rho, ch, a, b, variant="neumann1", part="real")
    approx, _ = variant_row(approx_bound.correlator_real, approx_bound.xi_b, approx_bound.q_ab)

    # General trade-off instance: the protocol observable embedded on R+P+E.
    sigma_pb = entry_state(rho, b)
    lifted = KrausChannel(
        tuple(kron(I2, v) for v in ch.operators),
        no_jump_index=ch.no_jump_index,
    )
    g_emb = kron(kron(np.eye(sigma_pb.shape[0]), _ancilla_pullback(a, "real")), np.eye(len(ch.operators)))
    general = check_general_tur(g_emb, purify(sigma_pb), lifted)

    p0 = 1.0 - approx_bound.xi_b
    sampled, failure = scalar_sampled_values(rho, ch, a, b, config, setup.trial_id)

    return TrialRecord(
        trial_id=setup.trial_id, gamma=setup.gamma, thetas=setup.thetas,
        a_idx=setup.a_idx, b_idx=setup.b_idx,
        exact=exact, approx=approx, sampled=sampled,
        shots=config.shots if sampled is not None else 0, postselect_p0=p0,
        general_tur_holds=general.holds,
        contained_imag=bound_i.holds,
        sep_tur_holds_imag=sep_i.holds,
        tur_margin=margin,
        bound_gap=abs(bound.upper - approx_bound.upper),
        failure=failure,
    )


GAMMA_RANGES = [(0.0, 0.0), (0.0, 0.75), (0.5, 0.99)]


def run_rows(cfg: ExperimentConfig):
    """run_experiment's records as rows, and its summary."""
    records, summary = run_experiment(cfg)
    return [records.row(n) for n in range(len(records.trial_id))], summary


def exact_config(**kw):
    defaults = dict(seed=0, n_trials=5, shots=0, variants=("exact",))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_trials == 50 and cfg.shots == 1000
        assert cfg.gamma_range == (0.0, 0.75)
        assert harness.THETA_RANGE == (0.0, math.pi)

    @pytest.mark.parametrize("bad", [
        dict(gamma_range=(-0.1, 0.5)),
        dict(gamma_range=(0.0, 1.0)),
        dict(shots=-1),
        dict(n_trials=0),
        dict(variants=("exact", "bogus")),
        dict(seed=-1),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ContractError):
            ExperimentConfig(**bad)


class TestGenerateTrial:
    def test_deterministic(self):
        cfg = exact_config(seed=9)
        a = generate_trial(cfg, 3)
        b = generate_trial(cfg, 3)
        assert a.gamma == b.gamma and a.thetas == b.thetas
        assert a.a_idx == b.a_idx and a.b_idx == b.b_idx
        assert np.array_equal(a.rho, b.rho)
        assert all(np.array_equal(x, y) for x, y in zip(a.channel.operators, b.channel.operators))

    def test_distinct_trials_differ(self):
        cfg = exact_config(seed=9)
        assert generate_trial(cfg, 0).thetas != generate_trial(cfg, 1).thetas

    def test_identity_pair_never_drawn(self):
        cfg = exact_config(seed=1, n_trials=200)
        for i in range(200):
            s = generate_trial(cfg, i)
            assert s.a_idx != (0, 0) and s.b_idx != (0, 0)

    def test_gamma_zero_channel_is_unitary(self):
        cfg = exact_config(gamma_range=(0.0, 0.0))
        s = generate_trial(cfg, 0)
        assert s.gamma == 0.0
        v0 = s.channel.v0
        assert np.max(np.abs(v0.conj().T @ v0 - np.eye(4))) <= 1e-10
        assert np.max(np.abs(s.channel.operators[1])) <= 1e-12
        record = evaluate_trial(cfg, 0)
        assert abs(record.exact.xi_b) <= 1e-12
        # width is sqrt-amplified machine noise of xi
        assert abs(record.exact.upper - record.exact.lower) <= 1e-6

    @pytest.mark.parametrize("gamma_range", GAMMA_RANGES)
    def test_inputs_match_the_kronecker_oracle(self, gamma_range):
        cfg = exact_config(seed=5, gamma_range=gamma_range)
        layout = harness._SE_LAYOUT
        for i in range(340):
            s = generate_trial(cfg, i)
            rho, u = kron_family_inputs(s.thetas, s.gamma)
            assert np.array_equal(s.rho, rho)
            assert np.array_equal(s.channel.dilation.unitary, u)
            assert all(np.array_equal(x, y) for x, y in
                       zip(s.channel.operators, kraus_from_unitary(u, layout).operators, strict=True))
            assert np.array_equal(s.a_op, np.kron(PAULIS[s.a_idx[0]], PAULIS[s.a_idx[1]]))
            assert np.array_equal(s.b_op, np.kron(PAULIS[s.b_idx[0]], PAULIS[s.b_idx[1]]))

    @pytest.mark.parametrize("gamma_range", GAMMA_RANGES)
    def test_stacked_builder_matches_generate_trial(self, gamma_range):
        cfg = exact_config(seed=11, gamma_range=gamma_range)
        ids = [3, 0, 7, 200, 1]
        thetas, gammas, a_k, b_k, _, rho, u = harness._draw_stacked(cfg, ids)
        v = _checked_kraus(u, 4, str)
        for n, i in enumerate(ids):
            one = generate_trial(cfg, i)
            draw = (gammas[n], tuple(thetas[n].tolist()), divmod(a_k[n], 4), divmod(b_k[n], 4))
            assert draw == (one.gamma, one.thetas, one.a_idx, one.b_idx)
            for x, y in [(rho[n], one.rho), (harness._PAULI_PAIRS[a_k[n]], one.a_op),
                         (harness._PAULI_PAIRS[b_k[n]], one.b_op), (u[n], one.channel.dilation.unitary),
                         *zip(v[n], one.channel.operators, strict=True)]:
                assert np.array_equal(x, y)

    def test_verify_family_spans_stacked_passes(self):
        from turlab.verify import _family_passes

        cfg = exact_config(seed=4, gamma_range=(0.1, 0.75))
        ids = range(1, 2 * harness.CHUNK_TRIALS + 7, 2)
        passes = list(_family_passes(4, ids))
        assert [len(p[0]) for p in passes] == [harness.CHUNK_TRIALS, 3]
        rows = [row for p in passes for row in zip(*p)]
        for i, (rho, a, b, u, v) in list(zip(ids, rows))[harness.CHUNK_TRIALS - 2:harness.CHUNK_TRIALS + 2]:
            one = generate_trial(cfg, i)
            assert np.array_equal(u, one.channel.dilation.unitary) and np.array_equal(rho, one.rho)
            assert np.array_equal(a, one.a_op) and np.array_equal(b, one.b_op)

    def test_pauli_operators_are_read_only(self):
        s = generate_trial(exact_config(), 0)
        for m in (s.a_op, s.b_op, harness._PAULI_PAIRS):
            with pytest.raises(ValueError):
                m[..., 0, 0] = 2.0
        assert np.array_equal(generate_trial(exact_config(), 0).a_op, s.a_op)

    def test_all_angles_zero_prepares_ground_state(self):
        _, rho, u = harness._stacked_inputs(np.zeros((1, 12)), np.zeros(1))
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 1.0
        assert_allclose(rho[0], want, atol=1e-12)
        assert_allclose(kraus_from_unitary(u[0], harness._SE_LAYOUT).v0, np.eye(4), atol=1e-12)


class TestEvaluateTrial:
    def test_exact_soundness(self):
        cfg = exact_config(seed=17, n_trials=20)
        for i in range(20):
            r = evaluate_trial(cfg, i)
            assert not r.exact.tur_violated
            assert r.exact.contained
            assert r.contained_imag and r.sep_tur_holds_imag
            assert r.general_tur_holds

    def test_sampled_values_present_and_deterministic(self):
        cfg = ExperimentConfig(seed=4, n_trials=1, shots=300)
        r1 = evaluate_trial(cfg, 0)
        r2 = evaluate_trial(cfg, 0)
        assert r1.sampled is not None
        assert r1.sampled == r2.sampled

    def test_shots_zero_skips_sampling(self):
        cfg = ExperimentConfig(seed=4, n_trials=1, shots=0)
        r = evaluate_trial(cfg, 0)
        assert r.sampled is None


class TestRunExperiment:
    def test_exact_run_zero_violations(self):
        cfg = exact_config(seed=2, n_trials=25)
        records, summary = run_rows(cfg)
        assert len(records) == 25
        exact = summary.violations["exact"]
        assert all(v == 0 for v in exact.values())

    def test_xi_shrinks_with_gamma(self):
        # fixed angles (same trial id and seed), decreasing coupling
        xis = []
        for gamma in (0.6, 0.4, 0.2, 0.05, 0.0):
            cfg = exact_config(seed=33, gamma_range=(gamma, gamma))
            r = evaluate_trial(cfg, 0)
            xis.append(r.exact.xi_b)
        assert all(b < a or a == b == 0 for a, b in zip(xis, xis[1:]))
        assert abs(xis[-1]) <= 1e-10

    def test_sampled_reproducibility(self):
        cfg = ExperimentConfig(seed=5, n_trials=6, shots=200)
        rec1, _ = run_rows(cfg)
        rec2, _ = run_rows(cfg)
        assert rec1 == rec2


def oracle(cfg, trial_id):
    return scalar_evaluate_trial(generate_trial(cfg, trial_id), cfg)


class TestBatchedPath:
    """run_experiment's stacked evaluation against the scalar oracle scalar_evaluate_trial."""

    FLAGS = ("general_tur_holds", "contained_imag", "sep_tur_holds_imag", "failure")

    @pytest.mark.parametrize("cfg", [
        exact_config(seed=4, n_trials=200, variants=("exact", "neumann1")),
        exact_config(seed=11, n_trials=200, variants=("exact", "neumann1")),
        exact_config(seed=1, n_trials=10, gamma_range=(0.0, 0.0)),
    ], ids=["seed4", "seed11", "gamma0"])
    def test_agrees_with_scalar_oracle(self, cfg):
        records, _ = run_rows(cfg)
        assert [r.trial_id for r in records] == list(range(cfg.n_trials))
        for r in records:
            o = oracle(cfg, r.trial_id)
            assert (r.gamma, r.thetas, r.a_idx, r.b_idx) == (o.gamma, o.thetas, o.a_idx, o.b_idx)
            for got, want in ((r.exact, o.exact), (r.approx, o.approx)):
                for f in ("c_real", "xi_b", "q_ab", "lower", "upper"):
                    assert abs(getattr(got, f) - getattr(want, f)) <= 1e-12, (r.trial_id, f)
                assert (got.contained, got.tur_violated, got.degenerate) == \
                    (want.contained, want.tur_violated, want.degenerate), r.trial_id
                # lhs divides by (<G> - Q)^2, which can be ~1e-17: compare relatively
                assert got.tur_lhs == pytest.approx(want.tur_lhs, rel=1e-6), r.trial_id
            assert r.tur_margin == pytest.approx(o.tur_margin, rel=1e-6), r.trial_id
            assert abs(r.postselect_p0 - o.postselect_p0) <= 1e-12
            assert abs(r.bound_gap - o.bound_gap) <= 1e-12
            assert [getattr(r, f) for f in self.FLAGS] == [getattr(o, f) for f in self.FLAGS], r.trial_id

    @pytest.mark.parametrize("shots", [0, 1, 1000])
    def test_records_equal_their_one_row_replay(self, shots):
        # evaluate_trial(config, i) is the one-row view of the chunk: a record does not depend on its chunk
        cfg = ExperimentConfig(seed=7, n_trials=harness.CHUNK_TRIALS + 4, shots=shots)
        records, _ = run_experiment(cfg)
        for i in range(cfg.n_trials):
            assert evaluate_trial(cfg, i) == records.row(i), i
        if shots == 1:   # one shot leaves some postselections empty
            assert 0 < sum(f is not None for f in records.failure) < cfg.n_trials

    @pytest.mark.parametrize("cfg", [
        exact_config(seed=2, n_trials=harness.CHUNK_TRIALS + 9, variants=("exact", "neumann1")),
        ExperimentConfig(seed=2, n_trials=harness.CHUNK_TRIALS + 9, shots=1),
    ], ids=["exact-only", "shots"])
    def test_run_builds_no_record_objects(self, monkeypatch, cfg):
        built = Counter()
        for cls in (TrialRecord, VariantValues):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting)
        records, summary = run_experiment(cfg)
        assert len(records.trial_id) == cfg.n_trials and summary.n_trials == cfg.n_trials
        assert built == Counter()
        records.row(0)   # the one-row view is what builds them
        assert built["TrialRecord"] == 1 and built["VariantValues"] >= 2

    def test_sampled_values_equal_oracle(self):
        # scalar_evaluate_trial takes its sampled fields from scalar_sampled_values alone, so the
        # oracle calls it directly and skips the exact bounds. 150 trials cross a
        # chunk boundary; one shot often leaves a postselection empty.
        failures = 0
        grid = itertools.product((2, 9), ((0.0, 0.75), (0.5, 0.99), (0.0, 0.0)), (1, 20, 1000))
        for seed, gamma_range, shots in grid:
            cfg = ExperimentConfig(seed=seed, n_trials=150, shots=shots, gamma_range=gamma_range)
            records, _ = run_rows(cfg)
            for r in records:
                s = generate_trial(cfg, r.trial_id)
                sampled, failure = scalar_sampled_values(s.rho, s.channel, s.a_op, s.b_op, cfg, r.trial_id)
                want = (sampled, shots if sampled is not None else 0, failure)
                assert (r.sampled, r.shots, r.failure) == want, (seed, gamma_range, shots, r.trial_id)
                failures += failure is not None
        assert failures > 0

    def test_sampled_chunk_builds_no_channel_or_density_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called by the batched sampled path")

        originals = [protocol.protocol_state, protocol.nested_premeasure_state, harness.kraus_from_unitary]
        originals.append(sys.modules["turlab.linalg"].require_density)
        for module in [m for n, m in sys.modules.items() if n == "turlab" or n.startswith("turlab.")]:
            for attr, value in list(vars(module).items()):
                if any(value is f for f in originals):
                    monkeypatch.setattr(module, attr, refuse)
        records, summary = run_experiment(ExperimentConfig(seed=0, n_trials=20, shots=100))
        assert summary.violations["sampled"]["n"] == 20

    def test_prefix_stability(self):
        cfg = exact_config(seed=3, n_trials=300, variants=("exact", "neumann1"))
        full, _ = run_rows(cfg)
        prefix, _ = run_rows(exact_config(seed=3, n_trials=37, variants=("exact", "neumann1")))
        assert prefix == full[:37]

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_does_not_change_records(self, monkeypatch, chunk):
        cfg = exact_config(seed=5, n_trials=20)
        default, _ = run_rows(cfg)
        monkeypatch.setattr(harness, "CHUNK_TRIALS", chunk)
        assert run_rows(cfg)[0] == default

    def test_singular_no_jump_operator_raises_like_oracle(self):
        cfg = exact_config(gamma_range=(0.9999999, 0.9999999), n_trials=3)
        with pytest.raises(SingularOperator):
            oracle(cfg, 0)
        with pytest.raises(SingularOperator, match="trial 0"):
            run_experiment(cfg)

    def test_one_neumann1_formula_reaches_all_three_uses(self, monkeypatch):
        """A mutant of the one surrogate formula that drops a p0 from Q changes the chunk's approx and sampled
        columns and correlator_bound(variant="neumann1")."""
        cfg = ExperimentConfig(seed=4, n_trials=12, shots=1000)
        s = generate_trial(cfg, 5)

        def neumann1_uses():
            chunk = harness._evaluate_chunk(cfg, range(cfg.n_trials))
            bound = correlator_bound(s.rho, s.channel, s.a_op, s.b_op, variant="neumann1")
            return chunk.approx.q_ab, chunk.sampled.q_ab, bound.q_ab

        before, original = neumann1_uses(), protocol._neumann1
        patched = []
        for module in [m for n, m in sys.modules.items() if n == "turlab" or n.startswith("turlab.")]:
            if getattr(module, "_neumann1", None) is original:
                monkeypatch.setattr(module, "_neumann1", lambda p0, t1, t2: (1.0 - p0, 2.0 * p0 * t1 - t2))
                patched.append(module.__name__)
        assert {"turlab.harness", "turlab.protocol"} <= set(patched)
        after = neumann1_uses()
        assert np.all(before[0] != after[0]) and np.all(before[1] != after[1]) and before[2] != after[2]


class TestKeyedStreams:
    def test_run_builds_no_seed_sequence_and_one_philox_per_chunk(self, monkeypatch):
        built = Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in ("SeedSequence", "Philox"):
            monkeypatch.setattr(np.random, name, counting(name, getattr(np.random, name)))
        cfg = ExperimentConfig(seed=3, n_trials=300, shots=1000)
        records, _ = run_experiment(cfg)
        assert len(records.trial_id) == 300
        assert built["SeedSequence"] == 0
        assert built["Philox"] <= math.ceil(cfg.n_trials / harness.CHUNK_TRIALS)

    @pytest.mark.parametrize("ranges", [{}, {"gamma_range": (0.2, 0.2)}], ids=["default", "fixed-gamma"])
    @pytest.mark.parametrize("seed", [0, 9, 2**32 + 1, 2**64 + 5])
    def test_draws_equal_numpys_uniform_and_integers(self, seed, ranges):
        cfg = ExperimentConfig(seed=seed, n_trials=1, **ranges)
        ids = [0, 1, 127, 128, 2**32 - 1, *np.random.default_rng(seed).integers(0, 2**32, size=4).tolist()]
        thetas, gammas, a_k, b_k, *_ = harness._draw_stacked(cfg, ids)
        for i, t, gamma, a, b in zip(ids, thetas.tolist(), gammas.tolist(), a_k, b_k, strict=True):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
            assert t == rng.uniform(*harness.THETA_RANGE, size=12).tolist()
            assert gamma == rng.uniform(*cfg.gamma_range)
            assert (a, b) == (rng.integers(1, 16), rng.integers(1, 16))

    def test_exact_run_takes_no_eigendecomposition_and_no_raw_read(self, monkeypatch):
        calls = Counter()
        eigh = np.linalg.eigh

        class Philox(np.random.Philox):   # named as the state setter requires
            def __init__(self, *args, **kwargs):
                calls["Philox"] += 1
                super().__init__(*args, **kwargs)

            def random_raw(self, size=None, output=True):
                calls["random_raw"] += 1
                return super().random_raw(size, output)

        def counting_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", Philox)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        cfg = ExperimentConfig(seed=3, n_trials=300, shots=0, variants=("exact", "neumann1"))
        records, _ = run_experiment(cfg)
        assert len(records.trial_id) == 300
        assert (calls["eigh"], calls["random_raw"], calls["Philox"]) == (0, 0, 0)
        run_experiment(dataclasses.replace(cfg, shots=10, variants=harness.VARIANTS))
        assert calls["Philox"] == math.ceil(cfg.n_trials / harness.CHUNK_TRIALS)   # the counter counts

    @staticmethod
    def lemire_pair(halves):
        """numpy's two integers(1, 16) from a stream's 32-bit outputs: buffered_bounded_lemire_uint32 with
        rng = 14, transcribed as a scalar loop, each draw taking the next half until one is accepted."""
        rng = 14
        rng_excl = rng + 1
        stream = iter(halves)

        def draw():
            m = next(stream) * rng_excl
            leftover = m & 0xFFFFFFFF
            if leftover < rng_excl:
                threshold = (0xFFFFFFFF - rng) % rng_excl
                while leftover < threshold:
                    m = next(stream) * rng_excl
                    leftover = m & 0xFFFFFFFF
            return 1 + (m >> 32)

        return draw(), draw()

    def test_pair_indices_skip_zero_halves_as_numpys_lemire_loop(self, monkeypatch):
        """Words 13-15 of crafted streams: a zero 32-bit half is rejected, any other is taken, in the order lo13,
        hi13, lo14, hi14, lo15, hi15; words 0-12 stay the uniforms."""
        inverse_15 = pow(15, -1, 2**32)   # 15 h mod 2^32 = 1: a leftover below 15, still accepted
        crafted = {
            "no zero": {},
            "lo13 = 0": {0: 0},
            "lo13 = hi13 = 0": {0: 0, 1: 0},
            "lo13 = lo14 = 0": {0: 0, 2: 0},
            "word 14 = 0": {2: 0, 3: 0},
            "words 13 and 14 = 0": {0: 0, 1: 0, 2: 0, 3: 0},
            "hi13 = lo14 = 0": {1: 0, 2: 0},
            "leftover 1": {0: inverse_15, 1: 2**32 - 1},
            "leftover 1, then zeros": {0: inverse_15, 1: 0, 2: 0, 3: 1},
        }
        base = np.random.default_rng(41).integers(1, 2**32, size=(len(crafted), 16, 2), dtype=np.uint64)
        halves = base.copy()
        for row, zeroed in enumerate(crafted.values()):
            for k, h in zeroed.items():   # half k of words 13-15: word 13 + k // 2, low half for even k
                halves[row, 13 + k // 2, k % 2] = h
        words = halves[..., 0] | (halves[..., 1] << np.uint64(32))
        monkeypatch.setattr(harness, "_philox_words", lambda keys, blocks: words)
        cfg = ExperimentConfig(seed=0, n_trials=1)
        thetas, gammas, a_k, b_k, *_ = harness._draw_stacked(cfg, range(len(crafted)))
        for row, name in enumerate(crafted):
            order = halves[row, 13:].reshape(-1).tolist()
            assert (a_k[row], b_k[row]) == self.lemire_pair(order), name
        scaled = (words[:, :13] >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(thetas, math.pi * scaled[:, :12]) and np.array_equal(gammas, 0.75 * scaled[:, 12])

    def test_exact_paths_leave_numpy_random_unimported(self, tmp_path):
        """An exact experiment, generate_trial and a bound query on a harness instance, in a fresh interpreter,
        draw without importing numpy.random."""
        code = """if True:
            import contextlib, io, json, sys
            import numpy
            if "numpy.random" in sys.modules:
                print("numpy imports numpy.random")
                raise SystemExit
            from turlab.cli import main
            from turlab.harness import ExperimentConfig, generate_trial
            from turlab.serialize import encode_matrix
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["experiment", "--shots", "0", "--variants", "exact,neumann1", "--trials", "20",
                             "--out-dir", sys.argv[1]]) == 0
                s = generate_trial(ExperimentConfig(seed=3, shots=0), 7)
                spec = {"kraus": [encode_matrix(v) for v in s.channel.operators], "no_jump_index": 0}
                assert main(["bound", "--channel", json.dumps(spec)] + [
                    arg for flag, m in (("--rho", s.rho), ("--a", s.a_op), ("--b", s.b_op))
                    for arg in (flag, json.dumps(encode_matrix(m)))]) == 0
            print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
        """
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
                             check=True).stdout.strip()
        if out == "numpy imports numpy.random":
            pytest.skip("this numpy imports numpy.random with numpy")
        assert out == "[]"

    def test_empty_postselections_are_reported_main_circuit_first(self):
        main = np.zeros((3, 2, 4, 2), dtype=np.int64)
        nested = np.zeros((3, 2, 2, 4, 2, 2), dtype=np.int64)
        main[:, 0, 0, 1] = 5           # trial 0 has no E = e0 shot
        main[1:, 1, 2, 0] = 5
        nested[:, 0, 0, 0, 1, 0] = 5   # E1 = 1: trials 0 and 1 have no E1 = e0 shot
        nested[2, 1, 0, 3, 0, 1] = 5
        sampled, failures = harness._sampled_variants(main, nested)
        assert failures.tolist() == ["no shots survived the E = e0 postselection",
                                     "no shots survived the E1 = e0 postselection", None]
        # c = (5 - 5) / 10, p0 = 5 / 10, t1 = -5 / 5, t2 = 0 / 5 and q = 2 p0 t1 - p0 t2
        assert (sampled.c_real[2], sampled.xi_b[2], sampled.q_ab[2]) == (0.0, 0.5, -1.0)


SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))
GAMMAS = st.lists(st.floats(0.0, 0.95), min_size=2, max_size=2).map(lambda g: tuple(sorted(g)))


@settings(max_examples=10, deadline=None, database=None)
@given(seed=SEEDS, gamma_range=GAMMAS, shots=st.sampled_from([1, 20, 1000]), n_trials=st.integers(1, 40))
def test_run_equals_scalar_oracle(seed, gamma_range, shots, n_trials):
    cfg = ExperimentConfig(seed=seed, n_trials=n_trials, shots=shots, gamma_range=gamma_range)
    records, _ = run_rows(cfg)
    assert [r.trial_id for r in records] == list(range(n_trials))
    for r in records:
        o = oracle(cfg, r.trial_id)
        assert (r.gamma, r.thetas, r.a_idx, r.b_idx) == (o.gamma, o.thetas, o.a_idx, o.b_idx)
        for got, want in ((r.exact, o.exact), (r.approx, o.approx)):
            for f in ("c_real", "xi_b", "q_ab", "lower", "upper"):
                assert abs(getattr(got, f) - getattr(want, f)) <= 1e-12, (r.trial_id, f)
            assert (got.contained, got.tur_violated, got.degenerate) == \
                (want.contained, want.tur_violated, want.degenerate), r.trial_id
            assert got.tur_lhs == pytest.approx(want.tur_lhs, rel=1e-6), r.trial_id
        assert r.tur_margin == pytest.approx(o.tur_margin, rel=1e-6), r.trial_id
        assert abs(r.postselect_p0 - o.postselect_p0) <= 1e-12
        assert abs(r.bound_gap - o.bound_gap) <= 1e-12
        flags = ("general_tur_holds", "contained_imag", "sep_tur_holds_imag")
        assert [getattr(r, f) for f in flags] == [getattr(o, f) for f in flags], r.trial_id
        assert (r.sampled, r.shots, r.failure) == (o.sampled, o.shots, o.failure), r.trial_id


def reference_summary(records: list) -> tuple:
    """The RunSummary fields of a run's rows, aggregated record by record: the oracle of summarize."""
    records = sorted(records, key=lambda r: r.trial_id)
    violations = {
        "exact": {
            "tur": sum(r.exact.tur_violated for r in records),
            "containment": sum(not r.exact.contained for r in records),
            "tur_imag": sum(not r.sep_tur_holds_imag for r in records),
            "containment_imag": sum(not r.contained_imag for r in records),
            "general": sum(not r.general_tur_holds for r in records),
        },
        "neumann1": {
            "tur": sum(r.approx.tur_violated for r in records),
            "containment": sum(not r.approx.contained for r in records),
        },
    }
    sampled = [r for r in records if r.sampled is not None]
    if sampled:
        violations["sampled"] = {
            "tur": sum(r.sampled.tur_violated for r in sampled),
            "containment": sum(not r.sampled.contained for r in sampled),
            "n": len(sampled),
        }
    margins = [r.tur_margin for r in records if not r.exact.degenerate and math.isfinite(r.tur_margin)]
    gammas = [r.gamma for r in records]
    lo, hi = min(gammas), max(gammas)
    edges = tuple(lo + (hi - lo) * k / 4.0 for k in range(5)) if hi > lo else (lo, hi)
    if hi > lo:
        buckets = [[] for _ in range(4)]
        for r in records:
            buckets[min(bisect_right(edges, r.gamma) - 1, 3)].append(r.bound_gap)
        bucket_medians = [median(b) if b else None for b in buckets]
    else:
        bucket_medians = [median(r.bound_gap for r in records)]
    return (len(records), violations, min(margins) if margins else None, median(margins) if margins else None,
            sum(r.exact.degenerate for r in records), sum(r.failure is not None for r in records), edges,
            tuple(bucket_medians))


class TestSummarize:
    def test_empty_rejected(self):
        records, _ = run_experiment(exact_config(n_trials=1))
        with pytest.raises(ContractError):
            summarize(dataclasses.replace(records, trial_id=records.trial_id[:0]))

    @pytest.mark.parametrize("cfg", [
        exact_config(seed=8, n_trials=harness.CHUNK_TRIALS + 30, gamma_range=(0.1, 0.9)),
        exact_config(seed=1, n_trials=12, gamma_range=(0.0, 0.0)),
        exact_config(seed=1, n_trials=1),
        ExperimentConfig(seed=3, n_trials=60, shots=1),
        ExperimentConfig(seed=3, n_trials=60, shots=1000, gamma_range=(0.5, 0.99)),
    ], ids=["exact", "degenerate", "one-trial", "shots-1", "shots-1000"])
    def test_equals_record_by_record_oracle(self, cfg):
        records, summary = run_rows(cfg)
        assert dataclasses.astuple(summary) == reference_summary(records)
        assert all(type(n) is int for counts in summary.violations.values() for n in counts.values())

    def test_single_degenerate_trial(self):
        records, summary = run_rows(exact_config(gamma_range=(0.0, 0.0), n_trials=1))
        assert records[0].exact.degenerate
        assert summary.degenerate_trials == 1
        assert summary.violations["exact"]["tur"] == 0
        assert summary.margin_min is None

    def test_duplicate_records_stable(self):
        cfg = exact_config(seed=8, gamma_range=(0.3, 0.6))
        chunk = harness._evaluate_chunk(cfg, [0])
        s1 = summarize(chunk)
        s2 = summarize(harness._concatenate([chunk, chunk]))
        assert s1.margin_min == s2.margin_min == s2.margin_median

    def test_gap_buckets_are_half_open(self):
        records, _ = run_experiment(exact_config(seed=8, n_trials=3, gamma_range=(0.3, 0.6)))
        gammas, gaps = zip((0.0, 1.0), (math.nextafter(0.5, 0.0), 2.0), (1.0, 3.0))
        summary = summarize(dataclasses.replace(records, gamma=np.array(gammas), bound_gap=np.array(gaps)))
        assert summary.gap_bucket_edges == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert summary.gap_bucket_medians == (1.0, 2.0, None, 3.0)

    def test_min_margin_matches_brute_force(self):
        cfg = exact_config(seed=12, n_trials=12, gamma_range=(0.2, 0.7))
        records, summary = run_rows(cfg)
        margins = [r.tur_margin for r in records if not r.exact.degenerate and math.isfinite(r.tur_margin)]
        assert summary.margin_min == min(margins)
