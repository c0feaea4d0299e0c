"""Work counts of a default `verify` run, the stacked suites against per-instance loops, its peak memory, and
non-finite deviations."""

import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from turlab import linalg
from turlab.channels import KrausChannel, _no_jump_inverse, dv0_dtheta, kraus_from_unitary
from turlab.harness import CHUNK_TRIALS, generate_trial
from turlab.linalg import SubsystemLayout, dag
from turlab.protocol import exact_correlator, protocol_correlator
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
    _family_config,
    _instances,
    _mixed_passes,
    _suite_stream,
    run_suites,
    suite_protocol,
    suite_qfi,
    suite_saturation,
    suite_scaling,
    suite_series,
)

from conftest import perturbed_mean


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
    # build is Hermitian to the last bit ((X + X^T) / 2 + i (X - X^T) / 2, or scale L + offset I) and is not checked
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


# The suites as they ran before stacking, one instance at a time through the public scalar functions, on the
# instances of each suite's own draw.

def family_setups(seed, trial_ids, gamma_lo):
    return (generate_trial(_family_config(seed, gamma_lo), i) for i in trial_ids)


def per_instance_inputs(seed, n):
    """qfi's and scaling's instances one at a time: a harness-family channel for even i, a generic one for odd i."""
    for rho, v, g in _instances(seed, n):
        yield from ((KrausChannel(tuple(ops)), r, obs) for r, ops, obs in zip(rho, v, g))


def per_instance_qfi(trials, seed):
    worst = 0.0
    for ch, rho, _ in per_instance_inputs(seed, trials):
        xi = survival_activity(rho, ch)
        worst = max(worst, abs(qfi(ch, purify(rho)) - xi))
    return SuiteResult("qfi", worst <= 1e-8, trials, worst, "max |J(0) - Xi|")


def per_instance_scaling(trials, seed, inject_fault=None):
    worst_fd, worst_an = 0.0, 0.0
    for ch, rho, g in per_instance_inputs(seed, trials):
        ps = purify(rho)
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
    worst = 0.0
    for rng, rhos, _, v in _mixed_passes(seed, "saturation", trials, gamma_lo=0.2):
        scales, offsets = rng.uniform(0.5, 2.0, len(v)), rng.uniform(-1.0, 1.0, len(v))
        for rho, ops, scale, offset in zip(rhos, v, scales.tolist(), offsets.tolist()):
            ch, ps = KrausChannel(tuple(ops)), purify(rho)
            l = sld(ps, ch)
            report = check_general_tur(scale * l + offset * np.eye(l.shape[0]), ps, ch)
            worst = max(worst, abs(report.ratio - 1.0))
    return SuiteResult("saturation", worst <= 1e-6, trials, worst, "max |TUR ratio - 1| for G affine in L")


def per_instance_protocol(trials, seed):
    worst = 0.0
    for setup in family_setups(_suite_stream(seed, "protocol")[0], range(trials), gamma_lo=0.0):
        c_proto = protocol_correlator(setup.rho, setup.channel, setup.a_op, setup.b_op)
        c_direct = exact_correlator(setup.rho, setup.channel, setup.a_op, setup.b_op)
        worst = max(worst, abs(c_direct - c_proto))
    return SuiteResult("protocol", worst <= 1e-10, trials, worst, "max |protocol - direct|")


def per_instance_series(trials, seed):
    worst_rem, worst_rise, worst_moment, worst_first = 0.0, -math.inf, 0.0, 0.0
    passes = _mixed_passes(seed, "series", trials)
    for rho, u in ((r, w) for _, rhos, units, _ in passes for r, w in zip(rhos, units)):
        ch = kraus_from_unitary(u, SubsystemLayout((4, 2)))
        estimates = survival_activity_series(rho, ch, order=4)
        xi = survival_activity(rho, ch)
        v0, v0_inv = ch.v0, _no_jump_inverse(ch)
        step, rho_w = np.eye(len(v0)) - dag(v0) @ v0, rho @ v0_inv @ dag(v0_inv)
        remainder = [xi - est for est in estimates]
        for n, rem in enumerate(remainder, start=1):
            worst_rem = max(worst_rem, abs(rem - np.trace(rho_w @ np.linalg.matrix_power(step, n + 1)).real))
        worst_rise = max(worst_rise, *(later - earlier for earlier, later in zip(remainder, remainder[1:])))
        moments = survival_activity_moments(rho, ch, 4)
        sim = survival_activity_protocol_sim(rho, ch, 4)
        worst_moment = max(worst_moment, max(abs(a - b) for a, b in zip(moments, sim)))
        worst_first = max(worst_first, abs(estimates[0] - (1.0 - moments[1])))
    passed = worst_rem <= 1e-10 and worst_rise <= 0.0 and worst_moment <= 1e-10 and worst_first <= 1e-12
    note = (
        f"max |(Xi - Xi_N) - Tr[rho (I - W)^(N+1) W^-1]| over N=1..4 {worst_rem:.1e}; largest rise of Xi - Xi_N "
        f"with N {worst_rise:.1e}; protocol-moment dev {worst_moment:.1e}; N=1 vs 1-p0 dev {worst_first:.1e}"
    )
    return SuiteResult("series", passed, trials, worst_rem, note)


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


def test_an_offset_series_estimate_fails_the_series_suite(monkeypatch):
    """Xi_N + 0.01 for N >= 2 moves each remainder 0.01 off Tr[rho (I - W)^{N+1} W^-1]: the default request fails."""
    import turlab.verify as verify

    original = verify._series_estimates

    def offset(t):
        return [x + 0.01 * (n >= 1) for n, x in enumerate(original(t))]   # entry n is Xi_{n+1}

    monkeypatch.setattr(verify, "_series_estimates", offset)
    (result,) = run_suites(["series"], seed=2024)
    assert not result.passed and abs(result.worst - 0.01) <= 1e-10


def drawn(monkeypatch, suite, seed):
    """The states (as bytes) that one suite's run validates in verify, and the harness-family thetas it draws, by
    trial id."""
    import turlab.verify as verify

    states, thetas = set(), {}
    require_density, draw_stacked = verify.require_density, verify._draw_stacked

    def recording_density(m, *args, **kwargs):
        states.update(row.tobytes() for row in np.reshape(m, (-1,) + np.shape(m)[-2:]))
        return require_density(m, *args, **kwargs)

    def recording_draw(cfg, ids, *args):
        out = draw_stacked(cfg, ids, *args)
        thetas.update(zip(ids, map(bytes, out[0])))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(verify, "require_density", recording_density)
        patch.setattr(verify, "_draw_stacked", recording_draw)
        run_suites([suite], trials=20, seed=seed)
    return states, thetas


def test_no_two_seeds_or_suites_draw_the_same_instances(monkeypatch):
    """verify --seed s, s + 1 and s + 2 draw no common state, and no suite's family thetas equal another's for the
    same trial id. With suite generators and family seeds seed + k (k the suite's index), series at s drew
    saturation's states at s + 1, and qfi's and scaling's family at s + 2 was protocol's at s."""
    s = 2024
    draws = {(suite, seed): drawn(monkeypatch, suite, seed) for suite in ("qfi", "protocol", "saturation", "series")
             for seed in (s, s + 1, s + 2)}
    # protocol runs on the family's own pure states, which verify does not validate
    assert all(thetas and (states or suite == "protocol") for (suite, _), (states, thetas) in draws.items())
    assert max(Counter(state for states, _ in draws.values() for state in states).values()) == 1
    assert max(Counter(pair for _, thetas in draws.values() for pair in thetas.items()).values()) == 1


def test_instances_are_family_trial_i_over_2_for_even_i_and_of_their_drawn_dim_for_odd_i(monkeypatch):
    """Over two blocks, instance i is harness trial i // 2 of the suite's family seed for even i, of dim_S 4, and a
    generic channel of the dim_S drawn for it for odd i; each pass holds the rows of its dim_S in order of i."""
    import turlab.verify as verify

    family_seed, rng = _suite_stream(2024, "qfi")
    drawn = []

    class RecordingDims:
        def __getattr__(self, name):
            return getattr(rng, name)

        def integers(self, *args, **kwargs):
            drawn.append(rng.integers(*args, **kwargs))
            return drawn[-1]

    monkeypatch.setattr(verify, "_suite_stream", lambda seed, suite: (family_seed, RecordingDims()))
    n = CHUNK_TRIALS + 37
    passes = [v for _, v, _ in _instances(2024, n)]
    expected = []
    for block, start in enumerate(range(0, n, CHUNK_TRIALS)):
        ids = np.arange(start, min(n, start + CHUNK_TRIALS))
        dims = np.full(len(ids), 4)
        dims[ids % 2 == 1] = drawn[block]
        expected += [(d, ids[dims == d]) for d in (2, 3, 4) if (dims == d).any()]
    assert len(drawn) == 2 and {2, 3} <= set(np.concatenate(drawn))
    assert [v.shape for v in passes] == [(len(rows), 2, d, d) for d, rows in expected]
    cfg = _family_config(family_seed, 0.1)
    family = [(ops, i) for v, (_, rows) in zip(passes, expected) for ops, i in zip(v, rows) if i % 2 == 0]
    assert [i for _, i in family] == list(range(0, n, 2))
    for ops, i in family:
        assert np.array_equal(ops, np.stack(generate_trial(cfg, i // 2).channel.operators))


def test_a_first_run_imports_no_module():
    """numpy.random aside, which the first draw loads, a fresh interpreter's first run_suites imports no module, so
    no import lands in the first request (np.unique's first call imports numpy.ma, ~15 ms)."""
    code = ("import sys, numpy.random, turlab.verify as verify; before = set(sys.modules); "
            "verify.run_suites(trials=1); print(sorted(set(sys.modules) - before))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
