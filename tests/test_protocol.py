import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import amplitude_damping, random_channel
from density_circuits import entry_state, separable_baseline

from turlab.channels import kraus_from_unitary
from turlab.errors import ContractError
from turlab.gates import SIGMA_X, SIGMA_Z
from turlab.harness import ExperimentConfig, generate_trial
from turlab.linalg import SubsystemLayout, _no_jump_factors, dag
from turlab.protocol import (
    PARTS,
    _ancilla_pullback,
    _entropy_words,
    _spawned_words,
    _stream_keys,
    _streams,
    correlator_bound,
    estimate_main_circuit,
    estimate_nested_circuit,
    exact_correlator,
    nested_premeasure_state,
    protocol_correlator,
    protocol_state,
    sample_shots,
    separable_tur_protocol_check,
    shot_rng,
)
from turlab.random_ops import random_density
from turlab.tur import P0_CUTOFF, check_general_tur, purify

SE = SubsystemLayout((2, 2))
IDENTITY_CH = kraus_from_unitary(np.eye(4, dtype=complex), SE)
KET1 = np.diag([0.0, 1.0]).astype(complex)


def family_setup(seed, i, gamma_lo=0.0, gamma_hi=0.75):
    cfg = ExperimentConfig(seed=seed, n_trials=1, shots=0, gamma_range=(gamma_lo, gamma_hi), variants=("exact",))
    return generate_trial(cfg, i)


def nested_probabilities(rho, ch, a, b):
    """The exact outcome probabilities of the nested circuit, over S2' (x) S' (x) S (x) E1 (x) E2."""
    state = nested_premeasure_state(rho, ch, a, b)
    return np.diag(state.matrix).real.reshape(state.layout.dims)


def nested_value(rho, ch, a, b):
    """The nested term Re Tr[rho^V0 G (V_0 V_0^dag)], estimated from the exact outcome probabilities."""
    return estimate_nested_circuit(nested_probabilities(rho, ch, a, b), ch.no_jump_index)


class TestExactCorrelator:
    def test_identity_channel_equal_observables(self, rng):
        rho = random_density(2, rng)
        c = exact_correlator(rho, IDENTITY_CH, SIGMA_Z, SIGMA_Z)
        assert abs(c - 1.0) <= 1e-12  # A(T) B = sz^2 = I

    def test_amplitude_damping_closed_form(self):
        # A(T) = diag(1, 2*gamma - 1), so C = <1| A(T) sz |1> = 1 - 2*gamma = 0
        c = exact_correlator(KET1, amplitude_damping(0.5), SIGMA_Z, SIGMA_Z)
        assert abs(c) <= 1e-12

    def test_non_unitary_observable_rejected(self, rng):
        with pytest.raises(ContractError):
            exact_correlator(random_density(2, rng), IDENTITY_CH, np.diag([1.0, 0.5]).astype(complex), SIGMA_Z)


class TestProtocolCorrelator:
    def test_identity_channel_equal_observables_real(self, rng):
        c = protocol_correlator(random_density(2, rng), IDENTITY_CH, SIGMA_X, SIGMA_X)
        assert abs(c.imag) <= 1e-10
        assert abs(c.real) <= 1.0 + 1e-10

    def test_matches_exact_on_family(self):
        for i in range(30):
            s = family_setup(11, i)
            c_direct = exact_correlator(s.rho, s.channel, s.a_op, s.b_op)
            c_proto = protocol_correlator(s.rho, s.channel, s.a_op, s.b_op)
            assert abs(c_direct - c_proto) <= 1e-10

    def test_matches_exact_on_random_qubit_channels(self, rng):
        paulis = [SIGMA_X, np.array([[0, -1j], [1j, 0]]), SIGMA_Z]
        for _ in range(10):
            ch = random_channel(2, 2, rng)
            rho = random_density(2, rng)
            a = paulis[rng.integers(3)]
            b = paulis[rng.integers(3)]
            assert abs(exact_correlator(rho, ch, a, b) - protocol_correlator(rho, ch, a, b)) <= 1e-10

    def test_defined_when_no_jump_outcome_has_zero_probability(self):
        # SWAP dilation: V0 = |0><0|, so from |1> the environment never ends in e0 (p0 = 0 exactly).
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        ch = kraus_from_unitary(swap, SE)
        c = protocol_correlator(KET1, ch, SIGMA_X, SIGMA_Z)
        assert abs(c - exact_correlator(KET1, ch, SIGMA_X, SIGMA_Z)) <= 1e-12

    def test_identity_b_gives_one_point_function(self, rng):
        from turlab.channels import heisenberg
        ch = random_channel(2, 2, rng)
        rho = random_density(2, rng)
        c = protocol_correlator(rho, ch, SIGMA_Z, np.eye(2, dtype=complex))
        want = np.trace(rho @ heisenberg(ch, SIGMA_Z))
        assert abs(c - want) <= 1e-10

    def test_stage_traces(self, rng):
        s = family_setup(5, 0)
        for stage in ("prepared", "after_UB", "after_channel", "after_UA", "premeasure"):
            st = protocol_state(s.rho, s.channel, s.a_op, s.b_op, stage=stage)
            assert abs(np.trace(st.matrix).real - 1.0) <= 1e-10
            assert st.stage == stage


class TestCorrelatorBound:
    def test_identity_channel_zero_width(self, rng):
        rho = random_density(2, rng)
        report = correlator_bound(rho, IDENTITY_CH, SIGMA_X, SIGMA_Z)
        assert abs(report.xi_b) <= 1e-10
        assert abs(report.upper - report.lower) <= 1e-9
        assert abs(report.correlator_real - report.q_ab) <= 1e-9
        assert report.holds

    def test_amplitude_damping_containment(self):
        # all terms in closed form: rho_B = |1><1|, p0 = 1 - gamma, Xi_B = gamma/(1-gamma)
        report = correlator_bound(KET1, amplitude_damping(0.5), SIGMA_Z, SIGMA_Z)
        assert abs(report.correlator_real) <= 1e-12
        assert abs(report.xi_b - 1.0) <= 1e-10
        assert report.lower - 1e-9 <= report.correlator_real <= report.upper + 1e-9

    @pytest.mark.parametrize("part", PARTS)
    def test_family_exact_always_contained(self, part):
        for i in range(25):
            s = family_setup(23, i)
            report = correlator_bound(s.rho, s.channel, s.a_op, s.b_op, variant="exact", part=part)
            assert report.holds

    def test_q_matches_general_baseline(self, rng):
        # the protocol's Q_{A,B} is the general no-cost baseline of the embedded observable
        from turlab.gates import I2
        from turlab.channels import KrausChannel
        for i in range(5):
            s = family_setup(31, i, gamma_lo=0.1)
            report = correlator_bound(s.rho, s.channel, s.a_op, s.b_op)
            sigma_pb = entry_state(s.rho, s.b_op)
            lifted = KrausChannel(
                tuple(np.kron(I2, v) for v in s.channel.operators),
                no_jump_index=s.channel.no_jump_index,
            )
            g_emb = np.kron(
                np.kron(np.eye(8), _ancilla_pullback(s.a_op, "real")), np.eye(2)
            )
            q_gen = check_general_tur(g_emb, purify(sigma_pb), lifted).q_baseline
            assert abs(report.q_ab - q_gen) <= 1e-9

    def test_width_capped_by_sqrt_xi(self):
        s = family_setup(7, 3)
        report = correlator_bound(s.rho, s.channel, s.a_op, s.b_op)
        assert abs((report.upper - report.lower) - 2.0 * np.sqrt(max(report.xi_b, 0.0))) <= 1e-12


class TestApproxBoundQuantities:
    def test_identity_channel(self, rng):
        rho = random_density(2, rng)
        approx = correlator_bound(rho, IDENTITY_CH, SIGMA_X, SIGMA_Z, variant="neumann1")
        xi_a, q_a = approx.xi_b, approx.q_ab
        exact = correlator_bound(rho, IDENTITY_CH, SIGMA_X, SIGMA_Z)
        assert abs(xi_a) <= 1e-12
        assert abs(q_a - exact.q_ab) <= 1e-10

    def test_gap_shrinks_with_interaction(self):
        def xi_gap(gamma, i):
            s = family_setup(41, i, gamma_lo=gamma, gamma_hi=gamma)
            exact = correlator_bound(s.rho, s.channel, s.a_op, s.b_op)
            xi_a = correlator_bound(s.rho, s.channel, s.a_op, s.b_op, variant="neumann1").xi_b
            return abs(xi_a - exact.xi_b)

        small = np.median([xi_gap(0.1, i) for i in range(10)])
        large = np.median([xi_gap(0.5, i) for i in range(10)])
        assert small < large

    def test_p0_factor_converges_faster_than_p0_squared(self):
        # arbitration of the second-term factor: the p0-linear reading tracks the
        # exact Q at the Neumann truncation rate, the p0^2 reading only first order
        gaps_p0, gaps_p0sq = [], []
        for i in range(10):
            s = family_setup(43, i, gamma_lo=0.05, gamma_hi=0.15)
            exact = correlator_bound(s.rho, s.channel, s.a_op, s.b_op)
            approx = correlator_bound(s.rho, s.channel, s.a_op, s.b_op, variant="neumann1")
            xi_a, q1 = approx.xi_b, approx.q_ab
            p0 = 1.0 - xi_a
            t2 = nested_value(s.rho, s.channel, s.a_op, s.b_op)
            q2 = q1 + p0 * (1.0 - p0) * t2   # 2 p0 T_1 - p0^2 T_2
            gaps_p0.append(abs(q1 - exact.q_ab))
            gaps_p0sq.append(abs(q2 - exact.q_ab))
        assert np.median(gaps_p0) < np.median(gaps_p0sq)


class TestNestedExpectation:
    def test_identity_channel_reduces_to_plain_expectation(self, rng):
        rho = random_density(2, rng)
        value = nested_value(rho, IDENTITY_CH, SIGMA_X, SIGMA_Z)
        sigma_pb = entry_state(rho, SIGMA_Z)
        want = np.trace(sigma_pb @ _ancilla_pullback(SIGMA_X, "real")).real
        assert abs(value - want) <= 1e-10

    def test_matches_direct_matrix_oracle(self):
        for i in range(10):
            s = family_setup(53, i, gamma_lo=0.1)
            value = nested_value(s.rho, s.channel, s.a_op, s.b_op)
            g_p = _ancilla_pullback(s.a_op, "real")
            v0 = s.channel.v0[None]
            sigma = entry_state(s.rho, s.b_op)[None]
            _, rho_v0, _ = separable_baseline(sigma, v0, _no_jump_factors(v0)[0], [g_p[None]])
            ww = np.kron(np.eye(2), s.channel.v0 @ dag(s.channel.v0))
            direct = np.trace(rho_v0[0] @ g_p @ ww).real
            assert abs(value - direct) <= 1e-9

    def test_postselection_chain_rule(self):
        s = family_setup(59, 2, gamma_lo=0.2)
        probs = nested_probabilities(s.rho, s.channel, s.a_op, s.b_op)
        e0 = s.channel.no_jump_index
        p_first = probs[:, :, :, e0].sum()                    # Pr[E_1 = e0]
        p_second = probs[:, :, :, e0, e0].sum() / p_first     # Pr[E_2 = e0 | E_1 = e0]
        # joint success rate from an independent two-projector evaluation
        from turlab.channels import ensure_dilation
        from turlab.gates import controlled
        from turlab.linalg import embed_operator, outer, basis_vector
        ch = ensure_dilation(s.channel)
        dil = ch.dilation
        dims = (2, 2, 4, 2, 2)
        plus = (basis_vector(2, 0) + basis_vector(2, 1)) / np.sqrt(2)
        env = outer(basis_vector(2, 0))
        sigma = np.kron(np.kron(outer(plus), entry_state(s.rho, s.b_op)), np.kron(env, env))
        for op, pos in (
            (dil.unitary, (2, 3)),
            (controlled(_ancilla_pullback(s.a_op, "real")), (0, 1, 2)),
            (dag(dil.unitary), (2, 4)),
        ):
            full = embed_operator(op, dims, pos)
            sigma = full @ sigma @ dag(full)
        proj = embed_operator(env, dims, (3,)) @ embed_operator(env, dims, (4,))
        joint = np.trace(sigma @ proj).real
        assert abs(p_first * p_second - joint) <= 1e-10


class TestSeparableTurProtocolCheck:
    def test_identity_channel_degenerate(self, rng):
        report = separable_tur_protocol_check(random_density(2, rng), IDENTITY_CH, SIGMA_X, SIGMA_Z)
        assert report.degenerate and report.holds

    @pytest.mark.parametrize("part", PARTS)
    def test_family_holds(self, part):
        for i in range(20):
            s = family_setup(61, i)
            report = separable_tur_protocol_check(s.rho, s.channel, s.a_op, s.b_op, part=part)
            assert report.holds

    def test_variance_is_one_minus_mean_squared(self):
        s = family_setup(67, 1)
        report = separable_tur_protocol_check(s.rho, s.channel, s.a_op, s.b_op)
        assert abs(report.variance - (1.0 - report.mean**2)) <= 1e-12


class TestSampleShots:
    def test_deterministic_state_single_outcome(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        st = protocol_state(rho, IDENTITY_CH, SIGMA_Z, SIGMA_Z, stage="premeasure")
        res = sample_shots(st, 500, seed=(1, 2))
        assert res.counts.shape == st.layout.dims
        assert res.counts.sum() == 500

    def test_uniform_qubit_three_sigma(self):
        # |+> on S' after readout rotation: P(0) = 0.5; 10^6 shots, 3 sigma band
        rho = np.diag([1.0, 0.0]).astype(complex)
        st = protocol_state(rho, IDENTITY_CH, SIGMA_Z, SIGMA_X, stage="premeasure")
        res = sample_shots(st, 10**6, seed=7)
        layout = st.layout
        assert res.counts.shape == layout.dims
        p_hat = res.counts[0].sum() / res.shots
        half = layout.dim // 2
        p_exact = float(np.sum(np.diag(st.matrix).real[:half]))  # S' is the slowest factor
        assert abs(p_exact - 0.5) <= 1e-10
        sigma = np.sqrt(p_exact * (1 - p_exact) / res.shots)
        assert abs(p_hat - p_exact) <= 3 * sigma + 1e-12

    def test_fixed_seed_bit_identical(self):
        s = family_setup(71, 0)
        st = protocol_state(s.rho, s.channel, s.a_op, s.b_op, stage="premeasure")
        r1 = sample_shots(st, 1000, seed=(3, 4, 5))
        r2 = sample_shots(st, 1000, seed=(3, 4, 5))
        assert r1.counts.shape == st.layout.dims
        assert np.array_equal(r1.counts, r2.counts)

    def test_numpy_integer_seed_equals_int_seed(self):
        s = family_setup(71, 0)
        st = protocol_state(s.rho, s.channel, s.a_op, s.b_op, stage="premeasure")
        r_np = sample_shots(st, 1000, seed=np.int64(3))
        r_int = sample_shots(st, 1000, seed=3)
        assert np.array_equal(r_np.counts, r_int.counts)
        assert r_np.seed == r_int.seed == (3,)

    def test_requires_premeasure_stage(self, rng):
        st = protocol_state(random_density(2, rng), IDENTITY_CH, SIGMA_X, SIGMA_Z, stage="after_UA")
        with pytest.raises(ContractError):
            sample_shots(st, 10, seed=0)

    def test_counts_sum_to_shots(self):
        s = family_setup(73, 1)
        st = protocol_state(s.rho, s.channel, s.a_op, s.b_op, stage="premeasure")
        res = sample_shots(st, 1234, seed=9)
        assert res.counts.shape == st.layout.dims
        assert res.counts.sum() == 1234


class TestCircuitEstimators:
    def test_counts_match_per_outcome_loop(self):
        # reference: one pass over the outcomes in Python integers, divided once
        s = family_setup(89, 2, gamma_lo=0.2, gamma_hi=0.8)
        main = sample_shots(protocol_state(s.rho, s.channel, s.a_op, s.b_op, stage="premeasure"), 2000, seed=5)
        nested = sample_shots(nested_premeasure_state(s.rho, s.channel, s.a_op, s.b_op), 2000, seed=6)
        sign = total = n_e0 = sign_e0 = 0
        for (s_p, _, e), n in np.ndenumerate(main.counts):
            sign += (1 - 2 * s_p) * int(n)
            total += int(n)
            if e == 0:
                n_e0 += int(n)
                sign_e0 += (1 - 2 * s_p) * int(n)
        assert estimate_main_circuit(main.counts) == (sign / total, n_e0 / total, sign_e0 / n_e0)
        n_e1 = acc = 0
        for (s2, _, _, e1, e2), n in np.ndenumerate(nested.counts):
            if e1 == 0:
                n_e1 += int(n)
                acc += (1 - 2 * s2) * int(n) * (e2 == 0)
        assert estimate_nested_circuit(nested.counts) == acc / n_e1

    def test_exact_probabilities_match_neumann1_bound(self):
        # the shot estimators applied to the exact outcome probabilities give
        # Re C, p0 = 1 - Xi_B(neumann1) and Q_AB(neumann1) = 2 p0 T_1 - p0 T_2
        for i in range(10):
            s = family_setup(83, i, gamma_lo=0.05, gamma_hi=0.9)
            main = protocol_state(s.rho, s.channel, s.a_op, s.b_op, stage="premeasure")
            nested = nested_premeasure_state(s.rho, s.channel, s.a_op, s.b_op)
            c, p0, t1 = estimate_main_circuit(np.diag(main.matrix).real.reshape(main.layout.dims))
            t2 = estimate_nested_circuit(np.diag(nested.matrix).real.reshape(nested.layout.dims))
            bound = correlator_bound(s.rho, s.channel, s.a_op, s.b_op, variant="neumann1")
            assert abs(c - bound.correlator_real) <= 1e-12
            assert abs(p0 - (1.0 - bound.xi_b)) <= 1e-12
            assert abs(2.0 * p0 * t1 - p0 * t2 - bound.q_ab) <= 1e-12


class TestSamplingConvergence:
    def test_error_shrinks_with_shots(self):
        from turlab.harness import estimate_main_circuit
        s = family_setup(79, 0, gamma_lo=0.3, gamma_hi=0.6)
        st = protocol_state(s.rho, s.channel, s.a_op, s.b_op, stage="premeasure")
        c_exact = exact_correlator(s.rho, s.channel, s.a_op, s.b_op).real

        def errs(shots, reps):
            out = []
            for r in range(reps):
                res = sample_shots(st, shots, seed=(101, shots, r))
                c_hat, _, _ = estimate_main_circuit(res.counts)
                out.append(abs(c_hat - c_exact))
            return np.median(out)

        e_small, e_large = errs(10**3, 15), errs(10**5, 15)
        assert e_large < 0.5 * e_small  # O(1/sqrt(shots)) gives ~0.1x


class TestDegenerateChannelPaths:
    def test_nested_degenerate_postselection(self):
        # full decay: V0 = |0><0| is singular -> no no-jump weight on |1>, so shots leave E1 = e0 empty
        ch = amplitude_damping(1.0)
        rho = np.diag([0.0, 1.0]).astype(complex)
        assert nested_probabilities(rho, ch, SIGMA_Z, SIGMA_Z)[:, :, :, 0].sum() <= P0_CUTOFF
        counts = sample_shots(nested_premeasure_state(rho, ch, SIGMA_Z, SIGMA_Z), 1000, seed=(5, 0)).counts
        with np.errstate(invalid="ignore"):
            assert np.isnan(estimate_nested_circuit(counts))


# Seeds of one word, and of several: at and above 2^32 and 2^64.
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**140))
TRIAL_IDS = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


def seed_sequence_keys(*args, **kwargs):
    return np.random.SeedSequence(*args, **kwargs).generate_state(2, np.uint64)


class TestStreamKeys:
    """_stream_keys and the re-keyed Philox against numpy's SeedSequence -> Philox streams."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(seed=SEEDS, trial_ids=st.lists(TRIAL_IDS, min_size=1, max_size=6), k=st.integers(0, 1))
    @example(seed=0, trial_ids=[0, 2**32 - 1], k=0)
    @example(seed=2**64 + 5, trial_ids=[0, 2**32 - 1], k=1)
    def test_keys_equal_seed_sequence_state(self, seed, trial_ids, k):
        spawned = _stream_keys(np.array([_spawned_words(seed, i) for i in trial_ids], dtype=np.uint32))
        flat = _stream_keys(np.array([_entropy_words(seed, i, k) for i in trial_ids], dtype=np.uint32))
        for i, got_spawned, got_flat in zip(trial_ids, spawned, flat, strict=True):
            assert np.array_equal(got_spawned, seed_sequence_keys(entropy=seed, spawn_key=(i,)))
            assert np.array_equal(got_flat, seed_sequence_keys((seed, i, k)))
        assert spawned.dtype == flat.dtype == np.uint64

    @settings(max_examples=40, deadline=None, database=None)
    @given(seed=SEEDS, trial_id=TRIAL_IDS, first=st.integers(0, 5))
    def test_rekeyed_generator_draws_like_a_fresh_one(self, seed, trial_id, first):
        rng = np.random.Generator(np.random.Philox(first))
        rng.integers(1, 16)   # a 64-bit output drawn, half of it buffered
        assert rng.bit_generator.state["has_uint32"] == 1
        rows = [_spawned_words(seed, trial_id), _entropy_words(seed, trial_id, 1)]
        entropies = [dict(entropy=seed, spawn_key=(trial_id,)), dict(entropy=(seed, trial_id, 1))]
        def draws(g):
            return g.integers(1, 16, size=3), g.uniform(size=3), g.integers(1, 16), g.multinomial(50, [0.2, 0.3, 0.5])

        for row, entropy in zip(rows, entropies, strict=True):
            stream = next(_streams([row], rng))
            assert stream is rng
            fresh = np.random.Generator(np.random.Philox(np.random.SeedSequence(**entropy)))
            for got, want in zip(draws(stream), draws(fresh), strict=True):
                assert np.array_equal(got, want)
            stream.integers(1, 16)   # leave a buffered half for the next re-key

    @pytest.mark.parametrize("seed", [(2**63, 0, 0), (2**64 - 1, 7), 2**63])
    def test_seed_words_at_and_above_2_63(self, seed):
        """numpy makes float64 of a tuple holding an integer in [2^63, 2^64); the seed's words must stay exact."""
        want = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).integers(0, 2**32, size=4)
        assert np.array_equal(shot_rng(seed).integers(0, 2**32, size=4), want)
        state = protocol_state(KET1, IDENTITY_CH, SIGMA_Z, SIGMA_Z, stage="premeasure")
        assert sample_shots(state, 10, seed).seed == (seed if isinstance(seed, tuple) else (seed,))

    @pytest.mark.parametrize("call", [
        lambda: _entropy_words(-1),
        lambda: _spawned_words(0, -1),
        lambda: _spawned_words(-1, 0),
        lambda: generate_trial(ExperimentConfig(shots=0), -1),
        lambda: sample_shots(nested_premeasure_state(KET1, IDENTITY_CH, SIGMA_Z, SIGMA_Z), 10, seed=(1, -2)),
    ])
    def test_negative_entropy_raises_value_error(self, call):
        with pytest.raises(ValueError, match="non-negative"):
            call()
