"""Work counts of a default `verify` run, the stacked suites against per-instance loops, its peak memory, and
non-finite deviations."""

import math
import sys
import tracemalloc
from collections import Counter
from statistics import median

import numpy as np
import pytest

from turlab import linalg
from turlab.channels import dv0_dtheta
from turlab.harness import ExperimentConfig, generate_trial
from turlab.protocol import exact_correlator, protocol_correlator
from turlab.random_ops import random_density, random_hermitian
from turlab.tur import (
    _branches,
    check_general_tur,
    final_joint_state,
    purify,
    qfi,
    sld,
    survival_activity,
    survival_activity_moments,
    survival_activity_protocol_sim,
    survival_activity_series,
)
from turlab.verify import (
    FD_STEP,
    SuiteResult,
    run_suites,
    suite_protocol,
    suite_qfi,
    suite_saturation,
    suite_scaling,
    suite_series,
)

from conftest import perturbed_mean, random_channel


def test_default_verify_decomposes_and_validates_each_input_once(monkeypatch):
    """Each V_0 is one row of one SVD (_no_jump_factors): that of each qfi/scaling instance (Xi, dV_0/dtheta, the
    baseline and both perturbed families share it) and of each saturation and series instance. Each suite input is
    validated once, a stacked validation counting one per row."""
    seen, validated = Counter(), Counter()

    def counting(name, original):
        def wrapper(m, *args, **kwargs):
            if name == "_no_jump_factors":
                seen.update((row.shape, row.tobytes()) for row in m)
            validated[name] += len(m) if np.ndim(m) == 3 else 1
            return original(m, *args, **kwargs)
        return wrapper

    for name in ("_no_jump_factors", "require_density", "require_hermitian"):
        original = getattr(linalg, name)
        wrapper = counting(name, original)
        for module in [m for n, m in sys.modules.items() if n.startswith("turlab")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    results = run_suites(trials=100, seed=2024)
    assert all(r.passed for r in results)
    assert len(seen) == 100 + 20 + 50 and set(seen.values()) == {1}
    # require_density checks Hermiticity itself: require_hermitian rows are A and B of protocol; each G the suites
    # build is Hermitian to the last bit ((Z + Z^dag) / 2, or scale L + offset I) and is not checked
    assert (validated["require_density"], validated["require_hermitian"]) == (270, 200)


def test_scaling_alone_validates_its_own_inputs(monkeypatch):
    """Each of the 10 states is validated once, a stacked validation counting one per row."""
    calls = Counter()
    original = linalg.require_density

    def counting(m, *args, **kwargs):
        calls["require_density"] += len(m) if np.ndim(m) == 3 else 1
        return original(m, *args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n.startswith("turlab")]:
        if getattr(module, "require_density", None) is original:
            monkeypatch.setattr(module, "require_density", counting)
    (result,) = run_suites(names=["scaling"], trials=10, seed=2024)
    assert result.passed and calls["require_density"] == 10


# The suites as they ran before stacking, one instance at a time through the public scalar functions.

def family_setups(seed, trial_ids, gamma_lo=0.1):
    cfg = ExperimentConfig(seed=seed, n_trials=1, shots=0, gamma_range=(gamma_lo, 0.75), variants=("exact",))
    return (generate_trial(cfg, i) for i in trial_ids)


def per_instance_inputs(seed, n):
    """qfi's and scaling's instances one at a time: a harness-family channel for even i, a generic one for odd i."""
    rng = np.random.default_rng(seed)
    family = family_setups(seed, range(0, n, 2))
    for i in range(n):
        if i % 2 == 0:
            setup = next(family)
            yield setup.channel, random_density(setup.channel.dim, rng)
        else:
            dim_s = int(rng.choice([2, 3, 4]))
            yield random_channel(dim_s, 2, rng), random_density(dim_s, rng)


def per_instance_qfi(trials, seed):
    worst = 0.0
    for ch, rho in per_instance_inputs(seed, trials):
        xi = survival_activity(rho, ch)
        worst = max(worst, abs(qfi(ch, purify(rho)) - xi))
    return SuiteResult("qfi", worst <= 1e-8, trials, worst, "max |J(0) - Xi|")


def per_instance_scaling(trials, seed, inject_fault=None):
    rng = np.random.default_rng(seed + 1)
    worst_fd, worst_an = 0.0, 0.0
    for ch, rho in per_instance_inputs(seed, trials):
        ps = purify(rho)
        g = random_hermitian(ps.dim_s * ps.dim_s * len(ch.operators), rng)
        report = check_general_tur(g, ps, ch)
        target = report.mean - report.q_baseline
        fd = (perturbed_mean(g, ps, ch, FD_STEP) - perturbed_mean(g, ps, ch, -FD_STEP)) / (2.0 * FD_STEP)
        d0 = -dv0_dtheta(ch) if inject_fault == "dv0-sign" else dv0_dtheta(ch)
        derivs = [d0 if i == ch.no_jump_index else 0.5 * v for i, v in enumerate(ch.operators)]
        dpsi = _branches(ps.joint_vector, np.array(derivs))
        an = 2.0 * float(np.vdot(dpsi, g @ final_joint_state(ps, ch)).real)
        worst_fd = max(worst_fd, abs(fd - target))
        worst_an = max(worst_an, abs(an - target))
    return SuiteResult("scaling", worst_fd <= 1e-6 and worst_an <= 1e-8, trials, max(worst_fd, worst_an),
                       f"max |fd - (mean - Q)| = {worst_fd:.3e}, analytic leg {worst_an:.3e}")


def per_instance_saturation(trials, seed):
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for setup in family_setups(seed + 3, range(trials), gamma_lo=0.2):
        ps = purify(random_density(setup.channel.dim, rng))
        l = sld(ps, setup.channel)
        scale = float(rng.uniform(0.5, 2.0))
        offset = float(rng.uniform(-1.0, 1.0))
        report = check_general_tur(scale * l + offset * np.eye(l.shape[0]), ps, setup.channel)
        worst = max(worst, abs(report.ratio - 1.0))
    return SuiteResult("saturation", worst <= 1e-6, trials, worst, "max |TUR ratio - 1| for G affine in L")


def per_instance_protocol(trials, seed):
    worst = 0.0
    for setup in family_setups(seed + 2, range(trials), gamma_lo=0.0):
        c_proto = protocol_correlator(setup.rho, setup.channel, setup.a_op, setup.b_op)
        c_direct = exact_correlator(setup.rho, setup.channel, setup.a_op, setup.b_op)
        worst = max(worst, abs(c_direct - c_proto))
    return SuiteResult("protocol", worst <= 1e-10, trials, worst, "max |protocol - direct|")


def per_instance_series(trials, seed):
    rng = np.random.default_rng(seed + 4)
    errors = {n: [] for n in range(1, 5)}
    worst_moment, worst_first = 0.0, 0.0
    for setup in family_setups(seed + 4, range(trials)):
        rho = random_density(setup.channel.dim, rng)
        estimates = survival_activity_series(rho, setup.channel, order=4)
        xi = survival_activity(rho, setup.channel)
        for n, est in enumerate(estimates, start=1):
            errors[n].append(abs(est - xi))
        moments = survival_activity_moments(rho, setup.channel, 4)
        sim = survival_activity_protocol_sim(rho, setup.channel, 4)
        worst_moment = max(worst_moment, max(abs(a - b) for a, b in zip(moments, sim)))
        worst_first = max(worst_first, abs(estimates[0] - (1.0 - moments[1])))
    medians = [median(errors[n]) for n in range(1, 5)]
    decreasing = all(medians[k + 1] < medians[k] for k in range(3))
    passed = decreasing and worst_moment <= 1e-10 and worst_first <= 1e-12
    note = (
        f"median errors N=1..4: {', '.join(f'{m:.2e}' for m in medians)}; "
        f"protocol-moment dev {worst_moment:.1e}; N=1 vs 1-p0 dev {worst_first:.1e}"
    )
    return SuiteResult("series", passed, trials, medians[-1], note)


def test_stacked_suites_match_per_instance_loops_across_passes():
    """300 instances are three stacked passes of CHUNK_TRIALS."""
    got, want = suite_protocol(300, 11), per_instance_protocol(300, 11)
    assert (got.passed, got.cases) == (want.passed, want.cases) and got.passed
    assert abs(got.worst - want.worst) <= 1e-15
    assert suite_series(300, 11) == per_instance_series(300, 11)


def test_perturbation_suites_match_per_instance_loops_across_passes():
    """300 instances are three blocks of CHUNK_TRIALS (128, 128, 44), each one pass per dim_S, for qfi and scaling
    and three passes for saturation; the stacked suites equal the per-instance loops to the last bit, and so does a
    tripped fault."""
    assert suite_qfi(300, 11) == per_instance_qfi(300, 11)
    assert suite_scaling(300, 11) == per_instance_scaling(300, 11)
    assert suite_saturation(300, 11) == per_instance_saturation(300, 11)
    tripped = suite_scaling(6, 2024, inject_fault="dv0-sign")
    assert tripped == per_instance_scaling(6, 2024, inject_fault="dv0-sign") and not tripped.passed


def test_perturbation_suites_build_no_channel_and_call_no_scalar_function(monkeypatch):
    from turlab import channels, tur

    def refuse(*args, **kwargs):
        raise AssertionError("called by a stacked suite")

    originals = [tur.qfi, tur.sld, tur.check_general_tur, channels.perturbed_kraus, channels.kraus_from_unitary]
    for module in [m for n, m in sys.modules.items() if n == "turlab" or n.startswith("turlab.")]:
        for attr, value in list(vars(module).items()):
            if any(value is f for f in originals):
                monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(channels.KrausChannel, "__post_init__", refuse)
    assert all(r.passed for r in run_suites(["qfi", "scaling", "saturation"], trials=40, seed=5))


def test_verify_peak_memory_stays_bounded():
    """Passes of CHUNK_TRIALS rows hold one stack of their D x D observables and slice the temporaries around it:
    the traced peak of 300 instances reads 2.44 MB, against 2.72 MB with 32-row passes and 6.37 MB with 128-row
    passes and whole-stack temporaries."""
    run_suites(trials=2, seed=2024)   # first-call allocations (imports, numpy's caches) are not the suites' own
    tracemalloc.start()
    try:
        run_suites(trials=300, seed=2024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.9e6


def _nan_at(where, original):
    """original with a NaN in the first, middle or last row of each stacked result."""
    def wrapper(*args, **kwargs):
        out = np.array(original(*args, **kwargs))
        out[{"first": 0, "middle": len(out) // 2, "last": -1}[where]] = np.nan
        return out
    return wrapper


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kernel, suites", [
    ("_survival_activity", ("qfi", "saturation", "series")),
    ("_perturbed_mean", ("scaling",)),
    ("_exact_correlator", ("protocol",)),
])
def test_a_nan_deviation_fails_its_suite(monkeypatch, kernel, suites, where):
    """A NaN in any row of a pass is the suite's worst and fails it; Python's max would drop it."""
    import turlab.verify as verify

    monkeypatch.setattr(verify, kernel, _nan_at(where, getattr(verify, kernel)))
    results = {r.name: r for r in run_suites(suites, trials=10, seed=1)}
    assert all(not r.passed and math.isnan(r.worst) for r in results.values()), results


def test_an_unknown_suite_name_raises_before_any_suite_runs(monkeypatch):
    import turlab.verify as verify

    def refuse(*args, **kwargs):
        raise AssertionError("ran a suite")

    for name in ("_perturbation_suites", "suite_protocol", "suite_saturation", "suite_series"):
        monkeypatch.setattr(verify, name, refuse)
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; choose from \('qfi', "):
        run_suites(["qfi", "series", "nope"], trials=100, seed=1)
