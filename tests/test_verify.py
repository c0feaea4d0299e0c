"""Work counts of a default `verify` run, and the stacked suites against per-instance loops."""

import sys
from collections import Counter
from statistics import median

import numpy as np

from turlab import linalg
from turlab.protocol import exact_correlator, protocol_correlator
from turlab.random_ops import random_density
from turlab.tur import (
    survival_activity,
    survival_activity_moments,
    survival_activity_protocol_sim,
    survival_activity_series,
)
from turlab.verify import SuiteResult, _family_setups, run_suites, suite_protocol, suite_series


def test_default_verify_decomposes_and_validates_each_input_once(monkeypatch):
    """Each distinct matrix reaches _spectral once (a channel caches its V_0^dag V_0 spectrum, and
    scaling shares qfi's channels; series inverts its stacks without _spectral); each suite input is
    validated once, a stacked validation counting one per row."""
    seen, validated = Counter(), Counter()

    def counting(name, original):
        def wrapper(m, *args, **kwargs):
            if name == "_spectral":
                seen[(m.shape, m.tobytes())] += 1
            validated[name] += len(m) if np.ndim(m) == 3 else 1
            return original(m, *args, **kwargs)
        return wrapper

    for name in ("_spectral", "require_density", "require_hermitian"):
        original = getattr(linalg, name)
        wrapper = counting(name, original)
        for module in [m for n, m in sys.modules.items() if n.startswith("turlab")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    results = run_suites(trials=100, seed=2024)
    assert all(r.passed for r in results)
    assert len(seen) == 320 and set(seen.values()) == {1}
    # require_density checks Hermiticity itself: require_hermitian rows are A and B of protocol, and each G
    assert (validated["require_density"], validated["require_hermitian"]) == (270, 320)


def test_scaling_alone_validates_its_own_inputs(monkeypatch):
    calls = Counter()
    original = linalg.require_density

    def counting(m, *args, **kwargs):
        calls["require_density"] += 1
        return original(m, *args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n.startswith("turlab")]:
        if getattr(module, "require_density", None) is original:
            monkeypatch.setattr(module, "require_density", counting)
    (result,) = run_suites(names=["scaling"], trials=10, seed=2024)
    assert result.passed and calls["require_density"] == 10


# The suites as they ran before stacking, one instance at a time through the public scalar functions.

def per_instance_protocol(trials, seed):
    worst = 0.0
    for setup in _family_setups(seed + 2, range(trials), gamma_lo=0.0):
        c_proto = protocol_correlator(setup.rho, setup.channel, setup.a_op, setup.b_op)
        c_direct = exact_correlator(setup.rho, setup.channel, setup.a_op, setup.b_op)
        worst = max(worst, abs(c_direct - c_proto))
    return SuiteResult("protocol", worst <= 1e-10, trials, worst, "max |protocol - direct|")


def per_instance_series(trials, seed):
    rng = np.random.default_rng(seed + 4)
    errors = {n: [] for n in range(1, 5)}
    worst_moment, worst_first = 0.0, 0.0
    for setup in _family_setups(seed + 4, range(trials)):
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
