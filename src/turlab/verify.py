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

Each pass of at most CHUNK_TRIALS instances, one per dim_S, is one stacked call of the kernels whose one-row views are
the scalar functions, its inputs validated once, row by row. D x D observables are Hermitian by construction and formed
a slice of rows at a time. A NaN deviation fails its suite and is its worst (max and statistics.median drop it).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from statistics import median

import numpy as np

from .channels import _checked_kraus, _kraus_derivatives, _perturbed_kraus
from .harness import CHUNK_TRIALS, _PAULI_PAIRS, ExperimentConfig, _draw_stacked
from .linalg import _invertible_factors, _row_slices, require_density
from .protocol import _exact_correlator, _main_vectors, _protocol_correlators, _require_inputs
from .random_ops import random_density, random_dilation, random_hermitian
from .tur import (PurifiedState, _branches, _general_tur_terms, _inner, _joint_states, _purifications, _qfi,
                  _series_estimates, _sld, _survival_activity, _survival_activity_moments,
                  _survival_activity_protocol_sim, _tur_report)

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
    """(config, ids) of each stacked pass of CHUNK_TRIALS harness-family ids; their draws use no suite rng."""
    cfg = ExperimentConfig(seed=seed, n_trials=1, shots=0, gamma_range=(gamma_lo, 0.75), variants=("exact",))
    return [(cfg, trial_ids[k:k + CHUNK_TRIALS]) for k in range(0, len(trial_ids), CHUNK_TRIALS)]


def _family_passes(seed: int, trial_ids: range, gamma_lo: float = 0.1):
    """The instances of each pass of CHUNK_TRIALS ids as stacks: rho, A, B, the dilation unitaries and their Kraus
    operators (N, M, d, d), checked as an experiment chunk checks them."""
    for cfg, ids in _family_chunks(seed, trial_ids, gamma_lo):
        *_, a_k, b_k, _, rho, u = _draw_stacked(cfg, ids)
        v = _checked_kraus(u, rho.shape[-1], lambda n: f"trial {ids[n]}")
        yield rho, _PAULI_PAIRS[a_k], _PAULI_PAIRS[b_k], u, v


def _instances(seed: int, n: int):
    """Passes (rho, Kraus operators (N, M, d, d), G): each block of CHUNK_TRIALS instances, one pass per d.

    Instance i is a harness-family channel (trial i) for even i and a generic
    random one for odd i, both with M = 2 (dim_E 2), a mixed state and a
    random observable G on R (x) S (x) E, drawn in instance order (a block's
    G last, from their own generator, each into the stack of its pass). A
    pass's states are validated and its dilations checked once.
    """
    rng, g_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)
    family = chain.from_iterable(_draw_stacked(cfg, ids)[-1] for cfg, ids in _family_chunks(seed, range(0, n, 2), 0.1))
    for start in range(0, n, CHUNK_TRIALS):
        slots, passes = [], {}   # slots: (d, row in its pass) of each instance; passes: d -> its (i, rho, u)
        for i in range(start, min(n, start + CHUNK_TRIALS)):
            d = 4 if i % 2 == 0 else 2 + int(rng.integers(3))
            u = next(family) if i % 2 == 0 else random_dilation(d, 2, rng)
            slots.append((d, len(passes.setdefault(d, []))))
            passes[d].append((i, random_density(d, rng), u))
        g = {d: np.empty((len(rows), 2 * d * d, 2 * d * d), dtype=complex) for d, rows in passes.items()}
        for d, k in slots:
            g[d][k] = random_hermitian(2 * d * d, g_rng)
        for d, rows in passes.items():
            ids, rho, u = zip(*rows)
            v = _checked_kraus(np.stack(u), d, lambda k: f"instance {ids[k]}")
            yield require_density(np.stack(rho)), v, g.pop(d)


def _perturbed_mean(g: np.ndarray, joint: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """<G> over the joint state each row's Kraus family ops (N, M, d, d) leaves, of stacks G and joint vectors."""
    psi = _branches(joint, ops)
    return _inner(psi, (g @ psi[..., None])[..., 0])


def _perturbation_suites(trials: int, seed: int, inject_fault: str | None = None) -> dict[str, SuiteResult]:
    """The qfi and scaling suites (suite_qfi and suite_scaling report one each) over one draw of the instances.

    The two suites share each pass and the one _invertible_factors of its V_0,
    from which Xi, dV_0/dtheta, the baseline and both perturbed families are
    taken. scaling's finite difference and analytic leg check
    d<G>/dtheta = <G> - Q_G at theta = 0.
    """
    worst_j, worst_fd, worst_an = 0.0, 0.0, 0.0
    for rho, v, g in _instances(seed, trials):
        factors = _invertible_factors(v[:, 0])
        v0_inv = factors[0]
        ps = PurifiedState(*_purifications(rho))
        derivs = _kraus_derivatives(v, 0, v0_inv)
        j = _qfi(v, derivs, ps.rho())
        worst_j = float(np.maximum(worst_j, np.abs(j - _survival_activity(rho, v0_inv)).max()))
        psi_t, tilde = _joint_states(ps.joint_vector, v, 0, v0_inv)
        g_psi = (g @ psi_t[..., None])[..., 0]
        mean, _, q = _general_tur_terms(psi_t, g_psi, tilde)
        fd = (_perturbed_mean(g, ps.joint_vector, _perturbed_kraus(v, 0, FD_STEP, factors))
              - _perturbed_mean(g, ps.joint_vector, _perturbed_kraus(v, 0, -FD_STEP, factors))) / (2.0 * FD_STEP)
        if inject_fault == "dv0-sign":
            derivs[:, 0] = -derivs[:, 0]
        an = 2.0 * _inner(_branches(ps.joint_vector, derivs), g_psi)
        worst_fd = float(np.maximum(worst_fd, np.abs(fd - (mean - q)).max()))
        worst_an = float(np.maximum(worst_an, np.abs(an - (mean - q)).max()))
    return {
        "qfi": SuiteResult("qfi", worst_j <= 1e-8, trials, worst_j, "max |J(0) - Xi|"),
        "scaling": SuiteResult(
            "scaling", worst_fd <= 1e-6 and worst_an <= 1e-8, trials, float(np.maximum(worst_fd, worst_an)),
            f"max |fd - (mean - Q)| = {worst_fd:.3e}, analytic leg {worst_an:.3e}",
        ),
    }


def suite_qfi(trials: int, seed: int) -> SuiteResult:
    return _perturbation_suites(trials, seed)["qfi"]


def suite_scaling(trials: int, seed: int, inject_fault: str | None = None) -> SuiteResult:
    return _perturbation_suites(trials, seed, inject_fault)["scaling"]


def suite_protocol(trials: int, seed: int) -> SuiteResult:
    worst = 0.0
    for rho, a, b, u, v in _family_passes(seed + 2, range(trials), gamma_lo=0.0):
        rho, a, b = _require_inputs(rho, 4, a, b)   # the family's system has dimension 4, its environment starts in 0
        c_proto = _protocol_correlators(_main_vectors(_purifications(rho)[2].reshape(rho.shape), u, 0, a, b))
        c_direct = _exact_correlator(rho, v.swapaxes(0, 1), a, b)
        worst = float(np.max([worst, *map(abs, (c_direct - c_proto).tolist())]))   # Python's abs, not numpy's hypot
    return SuiteResult("protocol", worst <= 1e-10, trials, worst, "max |protocol - direct|")


def suite_saturation(trials: int, seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _, _, _, _, v in _family_passes(seed + 3, range(trials), gamma_lo=0.2):
        draws = [(random_density(v.shape[-1], rng), rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)) for _ in v]
        rho, scale, offset = (np.array(x) for x in zip(*draws))
        ps = PurifiedState(*_purifications(require_density(rho)))
        v0_inv = _invertible_factors(v[:, 0])[0]
        psi_t, tilde = _joint_states(ps.joint_vector, v, 0, v0_inv)
        g = np.empty(psi_t.shape + psi_t.shape[-1:], dtype=complex)   # G = scale L + offset I, a slice at a time
        for s in _row_slices(g):
            g[s] = scale[s, None, None] * _sld(psi_t[s], tilde[s]) + offset[s, None, None] * np.eye(g.shape[-1])
        g_psi = (g @ psi_t[..., None])[..., 0]
        del g   # drawing the next pass then holds no stack of this one's observables
        report = _tur_report(*_general_tur_terms(psi_t, g_psi, tilde), _survival_activity(ps.rho(), v0_inv))
        worst = float(np.maximum(worst, np.abs(report.ratio - 1.0).max()))
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
        xi = _survival_activity(rho, _invertible_factors(v0)[0])
        errors.append(np.abs(estimates - xi))
        sim = _survival_activity_protocol_sim(_purifications(rho)[2].reshape(rho.shape), u, 0, 4)
        worst_moment = float(np.maximum(worst_moment, np.abs(moments - sim).max()))
        worst_first = float(np.maximum(worst_first, np.abs(estimates[0] - (1.0 - moments[1])).max()))
    medians = [median(row) if np.isfinite(sum(row)) else np.nan for row in np.concatenate(errors, axis=1).tolist()]
    decreasing = all(medians[k + 1] < medians[k] for k in range(3))
    passed = decreasing and worst_moment <= 1e-10 and worst_first <= 1e-12
    note = (
        f"median errors N=1..4: {', '.join(f'{m:.2e}' for m in medians)}; "
        f"protocol-moment dev {worst_moment:.1e}; N=1 vs 1-p0 dev {worst_first:.1e}"
    )
    return SuiteResult("series", passed, trials, medians[-1], note)


def run_suites(names=None, trials: int = 100, seed: int = 2024, inject_fault: str | None = None):
    names = SUITES if names is None else tuple(names)
    if unknown := [name for name in names if name not in SUITES]:
        raise ValueError(f"unknown suite {unknown[0]!r}; choose from {SUITES}")
    # qfi and scaling check the same instances: one draw, one pass loop for both
    perturbation = _perturbation_suites(trials, seed, inject_fault) if {"qfi", "scaling"} & set(names) else {}
    results = []
    for name in names:
        if name in ("qfi", "scaling"):
            results.append(perturbation[name])
        elif name == "protocol":
            results.append(suite_protocol(trials, seed))
        elif name == "saturation":
            results.append(suite_saturation(max(20, trials // 5), seed))
        else:
            results.append(suite_series(max(20, trials // 2), seed))
    return results
