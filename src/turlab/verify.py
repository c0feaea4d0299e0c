"""Runtime property suites behind the `verify` command.

Each suite draws seeded random instances (harness-family circuits plus generic
random dilations) and checks one identity or invariant at its pinned tolerance:

  qfi         |J(0) - Xi| <= 1e-8
  scaling     finite difference of <G>_theta vs <G> - Q_G, step 1e-5, 1e-6;
              plus the closed-form derivative leg at 1e-8
  protocol    ancilla-protocol correlator vs direct Heisenberg value, 1e-10
  saturation  observables affine in the SLD give TUR ratio 1 within 1e-6
  series      truncated-series error decreases with order; first order equals
              1 - p0 exactly; protocol moments match matrix powers at 1e-10

protocol and series run each CHUNK_TRIALS pass of their harness-family instances as one stacked call of the kernels
whose one-row views are the scalar functions, after validating the pass's inputs once, row by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from statistics import median

import numpy as np

from .channels import KrausChannel, dv0_dtheta, perturbed_kraus
from .harness import CHUNK_TRIALS, _PAULI_PAIRS, ExperimentConfig, _checked_kraus, _draw_stacked, _trial_setups
from .linalg import _hermitian_inverses, dag, require_density
from .protocol import _exact_correlator, _main_vectors, _protocol_correlators, _require_inputs
from .random_ops import random_channel, random_density, random_hermitian
from .tur import (
    PurifiedState,
    _branches,
    _purifications,
    _purify,
    _series_estimates,
    _survival_activity,
    _survival_activity_moments,
    _survival_activity_protocol_sim,
    check_general_tur,
    final_joint_state,
    purify,
    qfi,
    sld,
    survival_activity,
)

SUITES = ("qfi", "scaling", "protocol", "saturation", "series")
FD_STEP = 1e-5


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    cases: int
    worst: float
    note: str


def _family_chunks(seed: int, trial_ids: range, gamma_lo: float):
    """(config, ids) of each CHUNK_TRIALS stacked pass over harness-family ids; their draws use no suite rng."""
    cfg = ExperimentConfig(seed=seed, n_trials=1, shots=0, gamma_range=(gamma_lo, 0.75), variants=("exact",))
    return [(cfg, trial_ids[k:k + CHUNK_TRIALS]) for k in range(0, len(trial_ids), CHUNK_TRIALS)]


def _family_passes(seed: int, trial_ids: range, gamma_lo: float = 0.1):
    """The instances of each pass as stacks: rho, A, B, the dilation unitaries and their Kraus operators
    (N, M, d, d), checked as an experiment chunk checks them."""
    for cfg, ids in _family_chunks(seed, trial_ids, gamma_lo):
        _, a_k, b_k, _, rho, u = _draw_stacked(cfg, ids)
        yield rho, _PAULI_PAIRS[a_k], _PAULI_PAIRS[b_k], u, _checked_kraus(u, lambda n: f"trial {ids[n]}")


def _family_setups(seed: int, trial_ids: range, gamma_lo: float = 0.1):
    """The instances one at a time, as generate_trial's TrialSetups with their channels."""
    return chain.from_iterable(_trial_setups(cfg, ids) for cfg, ids in _family_chunks(seed, trial_ids, gamma_lo))


def _instances(seed: int, n: int):
    """Alternate harness-family and generic random channels with mixed states."""
    rng = np.random.default_rng(seed)
    family = _family_setups(seed, range(0, n, 2))
    for i in range(n):
        if i % 2 == 0:
            setup = next(family)
            yield setup.channel, random_density(setup.channel.dim, rng)
        else:
            dim_s = int(rng.choice([2, 3, 4]))
            yield random_channel(dim_s, 2, rng), random_density(dim_s, rng)


def perturbed_mean(g: np.ndarray, ps: PurifiedState, ch: KrausChannel, theta: float) -> float:
    """<G> over the joint state evolved by the theta-perturbed Kraus family."""
    psi = _branches(ps.joint_vector, np.array(perturbed_kraus(ch, theta)))
    return float(np.vdot(psi, g @ psi).real)


def analytic_scaling(g: np.ndarray, ps: PurifiedState, ch: KrausChannel, flip_dv0_sign: bool = False) -> float:
    """d<G>/dtheta at theta = 0 from the operator derivatives dV_m/dtheta."""
    d0 = dv0_dtheta(ch)
    if flip_dv0_sign:
        d0 = -d0
    derivs = [d0 if i == ch.no_jump_index else 0.5 * v for i, v in enumerate(ch.operators)]
    dpsi = _branches(ps.joint_vector, np.array(derivs))
    psi_t = final_joint_state(ps, ch)
    return 2.0 * float(np.vdot(dpsi, g @ psi_t).real)


def suite_qfi(trials: int, seed: int, instances=None) -> SuiteResult:
    worst = 0.0
    for ch, rho in _instances(seed, trials) if instances is None else instances:
        xi = survival_activity(rho, ch)
        worst = max(worst, abs(qfi(ch, _purify(rho)) - xi))
    return SuiteResult("qfi", worst <= 1e-8, trials, worst, "max |J(0) - Xi|")


def suite_scaling(trials: int, seed: int, inject_fault: str | None = None, instances=None) -> SuiteResult:
    """Given instances are suite_qfi's, whose rho it validated; drawn ones are validated here."""
    rng = np.random.default_rng(seed + 1)
    worst_fd, worst_an = 0.0, 0.0
    for ch, rho in _instances(seed, trials) if instances is None else instances:
        ps = purify(rho) if instances is None else _purify(rho)
        n_env = len(ch.operators)
        dim = ps.dim_s * ps.dim_s * n_env
        g = random_hermitian(dim, rng)
        report = check_general_tur(g, ps, ch)
        target = report.mean - report.q_baseline
        fd = (perturbed_mean(g, ps, ch, FD_STEP) - perturbed_mean(g, ps, ch, -FD_STEP)) / (2.0 * FD_STEP)
        an = analytic_scaling(g, ps, ch, flip_dv0_sign=(inject_fault == "dv0-sign"))
        worst_fd = max(worst_fd, abs(fd - target))
        worst_an = max(worst_an, abs(an - target))
    passed = worst_fd <= 1e-6 and worst_an <= 1e-8
    return SuiteResult(
        "scaling", passed, trials,
        max(worst_fd, worst_an),
        f"max |fd - (mean - Q)| = {worst_fd:.3e}, analytic leg {worst_an:.3e}",
    )


def suite_protocol(trials: int, seed: int) -> SuiteResult:
    worst = 0.0
    for rho, a, b, u, v in _family_passes(seed + 2, range(trials), gamma_lo=0.0):
        rho, a, b = _require_inputs(rho, 4, a, b)   # the family's system has dimension 4, its environment starts in 0
        c_proto = _protocol_correlators(_main_vectors(_purifications(rho)[2].reshape(rho.shape), u, 0, a, b))
        c_direct = _exact_correlator(rho, v.swapaxes(0, 1), a, b)
        worst = max(worst, *map(abs, (c_direct - c_proto).tolist()))   # Python's complex abs, not numpy's hypot
    return SuiteResult("protocol", worst <= 1e-10, trials, worst, "max |protocol - direct|")


def suite_saturation(trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for setup in _family_setups(seed + 3, range(trials), gamma_lo=0.2):
        ps = purify(random_density(setup.channel.dim, rng))
        l = sld(ps, setup.channel)
        scale = float(rng.uniform(0.5, 2.0))
        offset = float(rng.uniform(-1.0, 1.0))
        g = scale * l + offset * np.eye(l.shape[0])
        report = check_general_tur(g, ps, setup.channel)
        worst = max(worst, abs(report.ratio - 1.0))
    return SuiteResult("saturation", worst <= 1e-6, trials, worst, "max |TUR ratio - 1| for G affine in L")


def suite_series(trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed + 4)
    errors = []   # |Xi_N - Xi| of each pass, (4, N)
    worst_moment, worst_first = 0.0, 0.0
    for _, _, _, u, v in _family_passes(seed + 4, range(trials)):
        rho = require_density(np.stack([random_density(v.shape[-1], rng) for _ in v]))
        v0 = v[:, 0]
        moments = np.array(_survival_activity_moments(rho, v0, 4))
        estimates = np.array(_series_estimates(moments))
        xi = _survival_activity(rho, _hermitian_inverses(dag(v0) @ v0))
        errors.append(np.abs(estimates - xi))
        sim = _survival_activity_protocol_sim(rho, u, 0, 4)
        worst_moment = max(worst_moment, float(np.abs(moments - sim).max()))
        worst_first = max(worst_first, float(np.abs(estimates[0] - (1.0 - moments[1])).max()))
    medians = [median(row) for row in np.concatenate(errors, axis=1).tolist()]
    decreasing = all(medians[k + 1] < medians[k] for k in range(3))
    passed = decreasing and worst_moment <= 1e-10 and worst_first <= 1e-12
    note = (
        f"median errors N=1..4: {', '.join(f'{m:.2e}' for m in medians)}; "
        f"protocol-moment dev {worst_moment:.1e}; N=1 vs 1-p0 dev {worst_first:.1e}"
    )
    return SuiteResult("series", passed, trials, medians[-1], note)


def run_suites(names=None, trials: int = 100, seed: int = 2024, inject_fault: str | None = None):
    names = SUITES if names is None else tuple(names)
    # qfi and scaling check the same instances: drawn once (~11 kB each), scaling reuses qfi's cached spectra.
    shared = list(_instances(seed, trials)) if {"qfi", "scaling"} <= set(names) else None
    results = []
    for name in names:
        if name == "qfi":
            results.append(suite_qfi(trials, seed, instances=shared))
        elif name == "scaling":
            results.append(suite_scaling(trials, seed, inject_fault=inject_fault, instances=shared))
        elif name == "protocol":
            results.append(suite_protocol(trials, seed))
        elif name == "saturation":
            results.append(suite_saturation(max(20, trials // 5), seed))
        elif name == "series":
            results.append(suite_series(max(20, trials // 2), seed))
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return results
