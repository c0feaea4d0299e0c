"""Runtime property suites behind the `verify` command.

Each suite draws seeded random instances (harness-family circuits plus generic
random dilations) from its own stream, keyed by (seed, suite), and checks one
identity or invariant at its pinned tolerance:

  qfi         |J(0) - Xi| <= 1e-8
  scaling     finite difference of <G>_theta vs <G> - Q_G, step 1e-5, 1e-6;
              plus the closed-form derivative leg at 1e-8
  protocol    ancilla-protocol correlator vs direct Heisenberg value, 1e-10
  saturation  observables affine in the SLD give TUR ratio 1 within 1e-6
  series      Xi - Xi_N = Tr[rho (I - W)^{N+1} W^-1] at 1e-10, not rising with N;
              Xi_1 = 1 - p0 at 1e-12; protocol moments vs matrix powers, 1e-10

Each pass of at most CHUNK_TRIALS instances, one per dim_S, is one stacked call of the kernels whose one-row views are
the scalar functions, its inputs drawn a pass at a time (random_ops) and validated once, row by row. D x D observables
are Hermitian by construction and formed a slice of rows at a time. A NaN deviation fails its suite and is its worst
(Python's max would drop it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import _checked_kraus, _kraus_derivatives, _perturbed_kraus
from .harness import CHUNK_TRIALS, _PAULI_PAIRS, ExperimentConfig, _draw_stacked
from .linalg import _invertible_factors, _psd_sqrt, _row_slices, dag, require_density
from .protocol import _exact_correlator, _main_vectors, _protocol_correlators, _require_inputs
from .random_ops import densities, dilations, hermitians
from .tur import (_branches, _general_tur_terms, _inner, _joint, _joint_states, _qfi, _series_estimates, _sld,
                  _survival_activity, _survival_activity_moments, _survival_activity_protocol_sim, _tur_report)

SUITES = ("qfi", "scaling", "protocol", "saturation", "series")
FD_STEP = 1e-5


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    cases: int
    worst: float
    note: str


def _suite_stream(seed: int, suite: str) -> tuple[int, np.random.Generator]:
    """(the seed of the suite's harness-family passes, the generator of its other draws), both from the stream keyed
    by (seed, suite), so that no two (seed, suite) pairs draw the same instances. qfi and scaling share qfi's."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(SUITES.index(suite),)))
    return int(rng.bit_generator.random_raw()), rng


def _family_config(seed: int, gamma_lo: float) -> ExperimentConfig:
    """The harness family of the suites; its draws come from each trial's own stream, not from a suite's generator."""
    return ExperimentConfig(seed=seed, n_trials=1, shots=0, gamma_range=(gamma_lo, 0.75), variants=("exact",))


def _family_passes(seed: int, trial_ids: range, gamma_lo: float = 0.1):
    """The instances of each pass of CHUNK_TRIALS ids as stacks: rho, A, B, the dilation unitaries and their Kraus
    operators (N, M, d, d), checked as an experiment chunk checks them."""
    cfg = _family_config(seed, gamma_lo)
    for k in range(0, len(trial_ids), CHUNK_TRIALS):
        ids = trial_ids[k:k + CHUNK_TRIALS]
        *_, a_k, b_k, _, rho, u = _draw_stacked(cfg, ids)
        v = _checked_kraus(u, rho.shape[-1], lambda n: f"trial {ids[n]}")
        yield rho, _PAULI_PAIRS[a_k], _PAULI_PAIRS[b_k], u, v


def _mixed_passes(seed: int, suite: str, trials: int, gamma_lo: float = 0.1):
    """The suite's harness-family passes with a random mixed state per row in place of the family's pure one:
    (rng, rho, u, v), each pass's states one draw from the suite's generator rng, validated once."""
    family_seed, rng = _suite_stream(seed, suite)
    for *_, u, v in _family_passes(family_seed, range(trials), gamma_lo):
        yield rng, require_density(densities(len(v), v.shape[-1], rng)), u, v


def _instances(seed: int, n: int):
    """Passes (rho, Kraus operators (N, M, d, d), G): each block of CHUNK_TRIALS instances, one pass per d.

    Instance i is a harness-family channel (trial i // 2) for even i and a
    generic random one for odd i, both with M = 2 (dim_E 2), a mixed state and
    a random observable G on R (x) S (x) E. A block draws the dim_S of its
    generic instances in one call, then, for each d, the generic dilations,
    the states and the G of its pass in one call each, all from the stream
    keyed by (seed, qfi). A pass's states are validated and its dilations
    checked once.
    """
    family_seed, rng = _suite_stream(seed, "qfi")
    cfg = _family_config(family_seed, 0.1)
    for start in range(0, n, CHUNK_TRIALS):
        ids = np.arange(start, min(n, start + CHUNK_TRIALS))
        generic = ids % 2 == 1
        dims = np.full(len(ids), 4)
        dims[generic] = rng.integers(2, 5, size=int(generic.sum()))
        family_u = _draw_stacked(cfg, range(start // 2, (ids[-1] + 2) // 2))[-1]
        for d in (2, 3, 4):
            rows, odd = ids[dims == d], generic[dims == d]
            if not len(rows):
                continue
            u = np.empty((len(rows), 2 * d, 2 * d), dtype=complex)
            u[odd] = dilations(int(odd.sum()), d, 2, rng)
            if not odd.all():   # the family's rows, of dimension 4
                u[~odd] = family_u[(rows[~odd] - start) // 2]
            rho, g = densities(len(rows), d, rng), hermitians(len(rows), 2 * d * d, rng)
            yield require_density(rho), _checked_kraus(u, d, lambda k: f"instance {rows[k]}"), g


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
        joint = _joint(_psd_sqrt(rho)[1])
        derivs = _kraus_derivatives(v, 0, v0_inv)
        j = _qfi(v, derivs, rho)
        worst_j = float(np.maximum(worst_j, np.abs(j - _survival_activity(rho, v0_inv)).max()))
        psi_t, tilde = _joint_states(joint, v, 0, v0_inv)
        g_psi = (g @ psi_t[..., None])[..., 0]
        mean, _, q = _general_tur_terms(psi_t, g_psi, tilde)
        fd = (_perturbed_mean(g, joint, _perturbed_kraus(v, 0, FD_STEP, factors))
              - _perturbed_mean(g, joint, _perturbed_kraus(v, 0, -FD_STEP, factors))) / (2.0 * FD_STEP)
        if inject_fault == "dv0-sign":
            derivs[:, 0] = -derivs[:, 0]
        an = 2.0 * _inner(_branches(joint, derivs), g_psi)
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
    for rho, a, b, u, v in _family_passes(_suite_stream(seed, "protocol")[0], range(trials), gamma_lo=0.0):
        rho, a, b = _require_inputs(rho, 4, a, b)   # the family's system has dimension 4, its environment starts in 0
        c_proto = _protocol_correlators(_main_vectors(_psd_sqrt(rho)[1], u, 0, a, b))
        c_direct = _exact_correlator(rho, v.swapaxes(0, 1), a, b)
        worst = float(np.max([worst, *map(abs, (c_direct - c_proto).tolist())]))   # Python's abs, not numpy's hypot
    return SuiteResult("protocol", worst <= 1e-10, trials, worst, "max |protocol - direct|")


def suite_saturation(trials: int, seed: int) -> SuiteResult:
    worst = 0.0
    for rng, rho, _, v in _mixed_passes(seed, "saturation", trials, gamma_lo=0.2):
        scale, offset = rng.uniform(0.5, 2.0, len(v)), rng.uniform(-1.0, 1.0, len(v))
        v0_inv = _invertible_factors(v[:, 0])[0]
        psi_t, tilde = _joint_states(_joint(_psd_sqrt(rho)[1]), v, 0, v0_inv)
        g = np.empty(psi_t.shape + psi_t.shape[-1:], dtype=complex)   # G = scale L + offset I, a slice at a time
        for s in _row_slices(g):
            g[s] = scale[s, None, None] * _sld(psi_t[s], tilde[s]) + offset[s, None, None] * np.eye(g.shape[-1])
        g_psi = (g @ psi_t[..., None])[..., 0]
        del g   # drawing the next pass then holds no stack of this one's observables
        report = _tur_report(*_general_tur_terms(psi_t, g_psi, tilde), _survival_activity(rho, v0_inv))
        worst = float(np.maximum(worst, np.abs(report.ratio - 1.0).max()))
    return SuiteResult("saturation", worst <= 1e-6, trials, worst, "max |TUR ratio - 1| for G affine in L")


def suite_series(trials: int, seed: int) -> SuiteResult:
    """With W = V_0^dag V_0, Xi_N = Tr[rho sum_{k<=N} (I - W)^k] - 1 (hockey-stick identity on the binomial sum), so
    each instance's remainder Xi - Xi_N is Tr[rho (I - W)^{N+1} W^-1] >= 0 and does not increase with N."""
    worst_rem, worst_rise, worst_moment, worst_first = 0.0, -np.inf, 0.0, 0.0
    for _, rho, u, v in _mixed_passes(seed, "series", trials):
        v0 = v[:, 0]
        v0_inv = _invertible_factors(v0)[0]
        moments = np.array(_survival_activity_moments(rho, v0, 4))
        estimates = np.array(_series_estimates(moments))
        remainder = _survival_activity(rho, v0_inv) - estimates   # Xi - Xi_N, (4, N)
        step, rho_w = np.eye(v0.shape[-1]) - dag(v0) @ v0, rho @ v0_inv @ dag(v0_inv)   # I - W, rho W^-1
        closed = [np.trace(rho_w @ np.linalg.matrix_power(step, n + 1), axis1=1, axis2=2).real for n in range(1, 5)]
        worst_rem = float(np.maximum(worst_rem, np.abs(remainder - closed).max()))
        worst_rise = float(np.maximum(worst_rise, (remainder[1:] - remainder[:-1]).max()))
        sim = _survival_activity_protocol_sim(_psd_sqrt(rho)[1], u, 0, 4)
        worst_moment = float(np.maximum(worst_moment, np.abs(moments - sim).max()))
        worst_first = float(np.maximum(worst_first, np.abs(estimates[0] - (1.0 - moments[1])).max()))
    passed = worst_rem <= 1e-10 and worst_rise <= 0.0 and worst_moment <= 1e-10 and worst_first <= 1e-12
    note = (
        f"max |(Xi - Xi_N) - Tr[rho (I - W)^(N+1) W^-1]| over N=1..4 {worst_rem:.1e}; largest rise of Xi - Xi_N "
        f"with N {worst_rise:.1e}; protocol-moment dev {worst_moment:.1e}; N=1 vs 1-p0 dev {worst_first:.1e}"
    )
    return SuiteResult("series", passed, trials, worst_rem, note)


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
