"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion with its runtime. Hardware point clouds are not bit-reproducible, so
the sampled-variant criterion is a qualitative comparison plus a determinism
check; everything else is property-based at fixed tolerances.
"""

import math
import time

import numpy as np
import pytest

from turlab.errors import SingularOperator
from turlab.gates import SIGMA_Z
from turlab.harness import (
    ExperimentConfig,
    generate_trial,
    run_experiment,
)
from turlab.linalg import SubsystemLayout
from turlab.channels import kraus_from_unitary
from turlab.protocol import correlator_bound, exact_correlator, protocol_correlator
from turlab.random_ops import random_density, random_hermitian
from turlab.serialize import trials_csv_text
from turlab.tur import (
    check_general_tur,
    purify,
    qfi,
    sld,
    survival_activity,
    survival_activity_moments,
    survival_activity_protocol_sim,
    survival_activity_series,
)

from conftest import perturbed_mean


def family(seed, i, lo=0.0, hi=0.75):
    cfg = ExperimentConfig(seed=seed, n_trials=1, shots=0, gamma_range=(lo, hi), variants=("exact",))
    return generate_trial(cfg, i)


def report(criterion, passed, elapsed, budget, detail):
    tag = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"\n[{tag}] criterion {criterion}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert passed
    assert elapsed < budget


class TestAcceptance:
    def test_01_qfi_survival_activity_identity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(100):
            s = family(101, i, lo=0.05)
            rho_mixed = random_density(4, rng)
            for rho in (s.rho, rho_mixed):
                gap = abs(qfi(s.channel, purify(rho)) - survival_activity(rho, s.channel))
                worst = max(worst, gap)
        elapsed = time.perf_counter() - start
        report(1, worst <= 1e-8, elapsed, 10.0, f"|J(0) - Xi| worst {worst:.2e} over 100 channels x 2 states")

    def test_02_scaling_identity(self):
        start = time.perf_counter()
        rng = np.random.default_rng(202)
        h, worst = 1e-5, 0.0
        for i in range(100):
            s = family(202, i, lo=0.05)
            ps = purify(random_density(4, rng))
            g = random_hermitian(4 * 4 * 2, rng)
            rep = check_general_tur(g, ps, s.channel)
            fd = (perturbed_mean(g, ps, s.channel, h) - perturbed_mean(g, ps, s.channel, -h)) / (2 * h)
            worst = max(worst, abs(fd - (rep.mean - rep.q_baseline)))
        elapsed = time.perf_counter() - start
        report(2, worst <= 1e-6, elapsed, 30.0, f"finite-difference scaling worst {worst:.2e} over 100 triples")

    def test_03_exact_soundness_500_trials(self):
        start = time.perf_counter()
        cfg = ExperimentConfig(seed=303, n_trials=500, shots=0, variants=("exact",))
        _, summary = run_experiment(cfg)
        exact = summary.violations["exact"]
        total = sum(exact.values())
        elapsed = time.perf_counter() - start
        report(3, total == 0, elapsed, 120.0,
               f"500 exact trials, violations {exact} (general TUR, separable TUR and "
               f"correlator bounds, real and imaginary)")

    def test_04_sld_saturation(self):
        start = time.perf_counter()
        rng = np.random.default_rng(404)
        worst = 0.0
        for i in range(20):
            s = family(404, i, lo=0.2)
            ps = purify(random_density(4, rng))
            l = sld(ps, s.channel)
            for g in (l, float(rng.uniform(0.5, 2.0)) * l + float(rng.uniform(-1, 1)) * np.eye(l.shape[0])):
                rep = check_general_tur(g, ps, s.channel)
                worst = max(worst, abs(rep.ratio - 1.0))
        elapsed = time.perf_counter() - start
        report(4, worst <= 1e-6, elapsed, 10.0,
               f"TUR ratio vs 1 worst {worst:.2e} for observables sharing the SLD eigenbasis")

    def test_05_protocol_equivalence(self):
        start = time.perf_counter()
        worst = 0.0
        for i in range(100):
            s = family(505, i)
            gap = abs(exact_correlator(s.rho, s.channel, s.a_op, s.b_op)
                      - protocol_correlator(s.rho, s.channel, s.a_op, s.b_op))
            worst = max(worst, gap)
        elapsed = time.perf_counter() - start
        report(5, worst <= 1e-10, elapsed, 30.0, f"|protocol - direct| worst {worst:.2e} over 100 instances")

    def test_06_series_and_protocol_moments(self):
        start = time.perf_counter()
        rng = np.random.default_rng(606)
        errors = {n: [] for n in range(1, 5)}
        worst_moment, worst_first = 0.0, 0.0
        for i in range(50):
            s = family(606, i, lo=0.1)
            rho = random_density(4, rng)
            xi = survival_activity(rho, s.channel)
            est = survival_activity_series(rho, s.channel, 4)
            for n, e in enumerate(est, start=1):
                errors[n].append(abs(e - xi))
            moments = survival_activity_moments(rho, s.channel, 4)
            sim = survival_activity_protocol_sim(rho, s.channel, 4)
            worst_moment = max(worst_moment, max(abs(a - b) for a, b in zip(moments, sim)))
            worst_first = max(worst_first, abs(est[0] - (1.0 - moments[1])))
        med = [float(np.median(errors[n])) for n in range(1, 5)]
        decreasing = all(med[k + 1] < med[k] for k in range(3))
        passed = decreasing and worst_moment <= 1e-10 and worst_first <= 1e-15
        elapsed = time.perf_counter() - start
        report(6, passed, elapsed, 30.0,
               f"median series errors N=1..4 {['%.2e' % m for m in med]}, "
               f"protocol-moment dev {worst_moment:.1e}, N=1 vs 1-p0 dev {worst_first:.1e}")

    def test_07_approximation_gap_trend(self):
        start = time.perf_counter()
        medians = []
        for gamma in (0.1, 0.3, 0.5, 0.75):
            gaps = []
            for i in range(40):
                s = family(707, i, lo=gamma, hi=gamma)
                exact = correlator_bound(s.rho, s.channel, s.a_op, s.b_op, variant="exact")
                approx = correlator_bound(s.rho, s.channel, s.a_op, s.b_op, variant="neumann1")
                gaps.append(abs(exact.upper - approx.upper))
            medians.append(float(np.median(gaps)))
        monotone = all(b > a for a, b in zip(medians, medians[1:]))
        elapsed = time.perf_counter() - start
        report(7, monotone, elapsed, 60.0,
               f"median |upper_exact - upper_neumann1| per gamma bucket "
               f"{['%.3e' % m for m in medians]} is monotone increasing")

    def test_08_shot_noise_realism_and_determinism(self):
        start = time.perf_counter()
        cfg = ExperimentConfig(seed=808, n_trials=50, shots=1000)
        records1, summary1 = run_experiment(cfg)
        records2, _ = run_experiment(cfg)
        deterministic = trials_csv_text(records1) == trials_csv_text(records2)
        sampled = summary1.violations["sampled"]
        count = sampled["tur"]
        small = count <= 15
        elapsed = time.perf_counter() - start
        report(8, deterministic and small, elapsed, 120.0,
               f"sampled separable-TUR violations {count}/50 at 1000 shots "
               f"(hardware reference: 4/50); repeated runs byte-identical: {deterministic}")

    def test_09_degenerate_and_error_handling(self):
        start = time.perf_counter()
        rng = np.random.default_rng(909)
        identity_ch = kraus_from_unitary(np.eye(8, dtype=complex), SubsystemLayout((4, 2)))
        rho = random_density(4, rng)
        rep = check_general_tur(random_hermitian(32, rng), purify(rho), identity_ch)
        degenerate_ok = rep.degenerate and rep.holds and math.isinf(rep.lhs)

        # full-decay amplitude damping: V0^dag V0 singular
        from conftest import amplitude_damping
        singular = amplitude_damping(1.0)
        raised = 0
        for call in (
            lambda: survival_activity(random_density(2, rng), singular),
            lambda: correlator_bound(random_density(2, rng), singular, SIGMA_Z, SIGMA_Z),
        ):
            try:
                call()
            except SingularOperator:
                raised += 1
        elapsed = time.perf_counter() - start
        report(9, degenerate_ok and raised == 2, elapsed, 10.0,
               "identity channel reports degenerate without dividing by zero; "
               "singular V0 raises SingularOperator")
