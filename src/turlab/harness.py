"""Randomized two-qubit-system / one-qubit-environment experiment family.

Each trial draws twelve rotation angles and an interaction strength gamma:

  * preparation: |00> -> (RY(t2) RX(t1) (x) RY(t4) RX(t3)) |00>  (pure rho_S(0));
  * channel dilation on S1 (x) S2 (x) E:
      layer of RY(t6) RX(t5), RY(t8) RX(t7) on S, then a controlled-RY(pi*gamma)
      with control S1 and target E, then a layer of RY(t10) RX(t9),
      RY(t12) RX(t11) on S;
  * observables A = sigma_i (x) sigma_j and B = sigma_k (x) sigma_l drawn
    uniformly from the fifteen non-identity Pauli pairs.

Every trial is a deterministic function of (seed, trial_id): its inputs come from numpy's SeedSequence -> Philox
stream keyed by (seed, trial_id), its main and nested circuits' shots from those keyed by (seed, trial_id, 0) and
(seed, trial_id, 1). A chunk's streams are keyed in one vectorized pass, numpy's SeedSequence kept as the test oracle;
a trial's thirteen uniforms are one raw read of its stream, scaled as numpy's uniform scales them.
The inputs have one formula, _stacked_inputs over a stack of trials; generate_trial is its one-row view. A record has
one evaluation path too: _evaluate_chunk composes the stacked kernels of tur and protocol, and evaluate_trial, the
replay of one trial of a run, is its one-row view.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from statistics import median

import numpy as np

from .channels import KrausChannel, _checked_kraus, kraus_from_unitary
from .errors import ContractError
from .gates import I2, PAULIS, controlled, pauli_pair
from .linalg import SubsystemLayout, _invertible_factors, kron, require_hermitian
from .protocol import (
    PARTS,
    _ancilla_pullback,
    _approx_bound_quantities,
    _entropy_words,
    _entry_state,
    _exact_correlator,
    _main_vectors,
    _multinomial_counts,
    _nested_vectors,
    _on_factors,
    _spawned_words,
    _streams,
    correlator_interval,
    estimate_main_circuit,
    estimate_nested_circuit,
)
from .tur import (
    _branches,
    _general_tur_terms,
    _marginal,
    _survival_activity,
    _tilde_operators,
    _tur_report,
    separable_baseline,
)

VARIANTS = ("exact", "neumann1", "sampled")
_SE_LAYOUT = SubsystemLayout((4, 2))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_trials: int = 50
    shots: int = 1000
    gamma_range: tuple[float, float] = (0.0, 0.75)
    theta_range: tuple[float, float] = (0.0, math.pi)
    variants: tuple[str, ...] = VARIANTS

    def __post_init__(self):
        lo, hi = self.gamma_range
        if not (0.0 <= lo <= hi < 1.0):
            raise ContractError(f"gamma_range must lie in [0, 1), got {self.gamma_range}")
        tlo, thi = self.theta_range
        if not (0.0 <= tlo <= thi <= 2.0 * math.pi):
            raise ContractError(f"theta_range must lie in [0, 2*pi], got {self.theta_range}")
        if self.n_trials < 1:
            raise ContractError("n_trials must be >= 1")
        if self.shots < 0:
            raise ContractError("shots must be >= 0")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        variants = tuple(self.variants)
        unknown = set(variants) - set(VARIANTS)
        if unknown:
            raise ContractError(f"unknown variants {sorted(unknown)}")
        object.__setattr__(self, "variants", variants)
        object.__setattr__(self, "gamma_range", (float(lo), float(hi)))
        object.__setattr__(self, "theta_range", (float(tlo), float(thi)))


@dataclass(frozen=True)
class TrialSetup:
    trial_id: int
    gamma: float
    thetas: tuple[float, ...]
    a_idx: tuple[int, int]
    b_idx: tuple[int, int]
    rho: np.ndarray
    channel: KrausChannel
    a_op: np.ndarray
    b_op: np.ndarray


def generate_trial(config: ExperimentConfig, trial_id: int) -> TrialSetup:
    """Deterministic trial inputs for (config.seed, trial_id): the one-row view of _draw_stacked."""
    ((thetas, gamma, a_idx, b_idx),), a_k, b_k, _, rho, u = _draw_stacked(config, [trial_id])
    return TrialSetup(
        trial_id=trial_id, gamma=gamma, thetas=thetas, a_idx=a_idx, b_idx=b_idx, rho=rho[0],
        channel=kraus_from_unitary(u[0], _SE_LAYOUT), a_op=_PAULI_PAIRS[a_k[0]], b_op=_PAULI_PAIRS[b_k[0]],
    )


@dataclass(frozen=True)
class VariantValues:
    """One variant's view of the correlator bound and the separable trade-off."""

    c_real: float
    xi_b: float
    q_ab: float
    lower: float
    upper: float
    tur_lhs: float
    contained: bool
    tur_violated: bool
    degenerate: bool = False


@dataclass(frozen=True)
class TrialRecord:
    trial_id: int
    gamma: float
    thetas: tuple[float, ...]
    a_idx: tuple[int, int]
    b_idx: tuple[int, int]
    exact: VariantValues
    approx: VariantValues
    sampled: VariantValues | None
    shots: int
    postselect_p0: float
    general_tur_holds: bool
    contained_imag: bool
    sep_tur_holds_imag: bool
    tur_margin: float
    bound_gap: float          # |upper_exact - upper_approx|
    failure: str | None = None


def _variant_values(c_part, xi, q) -> tuple[list[VariantValues], list[float]]:
    """VariantValues of each element of the 1-d arrays c_part, xi, q, and their trade-off margins."""
    lower, upper, contained, report = correlator_interval(c_part, q, xi)
    columns = (c_part, xi, q, lower, upper, report.lhs, contained, ~report.holds, report.degenerate)
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    return [VariantValues(*row) for row in rows], report.margin.tolist()


def _sampled_variants(main_counts: np.ndarray, nested_counts: np.ndarray) -> tuple[list, list]:
    """Sampled variants of stacked shot counts, and why a trial has none: the empty postselection, main one first."""
    with np.errstate(invalid="ignore"):   # nan marks an empty postselection
        (c, p0, t1), t2 = estimate_main_circuit(main_counts), estimate_nested_circuit(nested_counts)
    failures = np.where(np.isnan(t1), "no shots survived the E = e0 postselection",
                        np.where(np.isnan(t2), "no shots survived the E1 = e0 postselection", None)).tolist()
    values, _ = _variant_values(c, 1.0 - p0, 2.0 * p0 * t1 - p0 * t2)
    return [v if f is None else None for v, f in zip(values, failures)], failures


def evaluate_trial(config: ExperimentConfig, trial_id: int) -> TrialRecord:
    """The record of trial (config.seed, trial_id), as run_experiment writes it: the one-row view of _evaluate_chunk."""
    return _evaluate_chunk(config, [trial_id])[0]


# run_experiment evaluates trials in chunks of CHUNK_TRIALS ids. A chunk builds its inputs as stacked arrays and
# passes them once through the stacked kernels of tur and protocol (the sampled stage through protocol's state-vector
# circuits, a pure preparation its own root), whose one-row views are the scalar functions that `bound` and `verify`
# call. A kernel's row equals its one-row call to the last bit, so a record does not depend on the chunk, and
# evaluate_trial replays it. The scalar composition of those functions and the density-matrix circuits are kept in
# tests/ as the oracle.

CHUNK_TRIALS = 128   # fixed so that peak memory does not grow with --trials

# sigma_i (x) sigma_j at row len(PAULIS) i + j; TrialSetup.a_op and b_op are views of its read-only rows
_PAULI_PAIRS = np.stack([pauli_pair(i, j) for i in range(len(PAULIS)) for j in range(len(PAULIS))])
_PAULI_PAIRS.setflags(write=False)
_PULLBACKS = {part: require_hermitian(_ancilla_pullback(_PAULI_PAIRS, part), name="observable G") for part in PARTS}


def _qubit_gates(thetas: np.ndarray) -> np.ndarray:
    """RY(t_{2k+2}) RX(t_{2k+1}) for the six angle pairs of each trial: (N, 12) -> (N, 6, 2, 2)."""
    half = thetas.reshape(-1, 6, 2) / 2
    c, s = np.cos(half), np.sin(half)
    x_rot = np.empty(half.shape[:2] + (2, 2), dtype=complex)
    x_rot[..., 0, 0] = x_rot[..., 1, 1] = c[..., 0]
    x_rot[..., 0, 1] = x_rot[..., 1, 0] = -1j * s[..., 0]
    y_rot = np.empty_like(x_rot)
    y_rot[..., 0, 0] = y_rot[..., 1, 1] = c[..., 1]
    y_rot[..., 0, 1] = -s[..., 1]
    y_rot[..., 1, 0] = s[..., 1]
    return y_rot @ x_rot


def _stacked_inputs(thetas: np.ndarray, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked preparation vectors (N, d), their density matrices (N, d, d) and dilation unitaries (N, d d_E, d d_E)."""
    g = _qubit_gates(thetas)
    psi = kron(g[:, 0, :, :1], g[:, 1, :, :1])[..., 0]
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    half = np.pi * gammas / 2
    ry_e = np.empty((len(gammas), 2, 2), dtype=complex)
    ry_e[:, 0, 0] = ry_e[:, 1, 1] = np.cos(half)
    ry_e[:, 0, 1] = -np.sin(half)
    ry_e[:, 1, 0] = np.sin(half)
    layer1 = kron(kron(g[:, 2], g[:, 3]), I2)
    layer2 = kron(kron(g[:, 4], g[:, 5]), I2)
    return psi, rho, layer2 @ controlled(kron(I2, ry_e)) @ layer1


def _draw_stacked(config: ExperimentConfig, trial_ids, rng: np.random.Generator | None = None):
    """Each id's (thetas, gamma, a_idx, b_idx) from stream (seed, id), the Pauli-pair rows of A, B, _stacked_inputs."""
    n = len(trial_ids)
    words, pairs = np.empty((n, 13), dtype=np.uint64), np.empty((n, 2), dtype=np.int64)
    seed = _spawned_words(config.seed)
    for k, stream in enumerate(_streams([seed + _entropy_words(i) for i in trial_ids], rng)):
        words[k] = stream.bit_generator.random_raw(13)
        pairs[k] = stream.integers(1, len(_PAULI_PAIRS)), stream.integers(1, len(_PAULI_PAIRS))   # row 0 is I (x) I
    # numpy's uniform(lo, hi) of a raw word w is lo + (hi - lo) * ((w >> 11) * 2^-53)
    uniforms = (words >> np.uint64(11)) * 2.0**-53
    (tlo, thi), (glo, ghi) = config.theta_range, config.gamma_range
    thetas, gammas = tlo + (thi - tlo) * uniforms[:, :12], glo + (ghi - glo) * uniforms[:, 12]
    draws = [(tuple(t), g, divmod(a, len(PAULIS)), divmod(b, len(PAULIS)))
             for t, g, (a, b) in zip(thetas.tolist(), gammas.tolist(), pairs.tolist())]
    return (draws, pairs[:, 0], pairs[:, 1]) + _stacked_inputs(thetas, gammas)


def _evaluate_chunk(config: ExperimentConfig, trial_ids) -> list[TrialRecord]:
    """The record of each id, from one pass of the stacked kernels over the chunk's trials.

    C(T), Xi, p0 and the baselines are those of correlator_bound, exact and
    neumann1, real and imaginary part; the general trade-off is that of
    G = I_R (x) G_P (x) I_E over the purification of the state entering the
    channel, G_P the real pullback of A on P = S' (x) S. That state is pure, so
    the trade-off runs on its vector U_B^c (|+> (x) psi), R of dimension 1.
    """
    rng = np.random.Generator(np.random.Philox(0))   # re-keyed to each stream of the chunk
    draws, a_k, b_k, psi, rho, u = _draw_stacked(config, trial_ids, rng)
    d, d_e = _SE_LAYOUT.dims
    a, b = _PAULI_PAIRS[a_k], _PAULI_PAIRS[b_k]
    g_re, g_im = _PULLBACKS["real"][a_k], _PULLBACKS["imag"][a_k]

    def label(n):
        return f"trial {trial_ids[n]}"

    v = _checked_kraus(u, d, label)   # (N, M, d, d)
    v0 = v[:, 0]

    c = _exact_correlator(rho, v.swapaxes(0, 1), a, b)
    sigma = _entry_state(rho, b)
    v0_inv = _invertible_factors(v0, label, "no-jump operator V_0 is singular")[0]
    p0, rho_v0, (q_re, q_im) = separable_baseline(sigma, v0, v0_inv, (g_re, g_im), label)
    xi = _survival_activity(_marginal(sigma, d), v0_inv)
    xi_approx, q_approx = _approx_bound_quantities(p0, rho_v0, g_re, v0)
    entry = _main_vectors(psi[:, :, None], u, 0, a, b, "after_UB")[:, :, :, 0, 0].reshape(len(psi), -1)
    psi_t = _branches(entry, kron(I2, v))   # on P (x) E, the channel lifted to act on S of P
    tilde = _branches(entry, _tilde_operators(kron(I2, v0_inv), d_e, 0))
    g_psi = _on_factors(g_re, psi_t, (2 * d, d_e), (0,))
    general_holds = _tur_report(*_general_tur_terms(psi_t, g_psi, tilde), xi).holds.tolist()

    exact, margins = _variant_values(c.real, xi, q_re)
    approx, _ = _variant_values(c.real, xi_approx, q_approx)
    _, _, contained_imag, sep_imag = correlator_interval(c.imag, q_im, xi)
    contained_imag, sep_holds_imag = contained_imag.tolist(), sep_imag.holds.tolist()
    sampled, failures = [None] * len(draws), [None] * len(draws)
    if "sampled" in config.variants and config.shots > 0:
        # trial i draws its main circuit's shots from stream (seed, i, 0), its nested circuit's from (seed, i, 1)
        seed, x = _entropy_words(config.seed), psi[:, :, None]   # psi is its own root, R of dimension 1
        circuits = _main_vectors(x, u, 0, a, b, "premeasure"), _nested_vectors(x, u, 0, g_re, b)
        counts = [_multinomial_counts((np.abs(amp) ** 2).sum(axis=-1), config.shots,
                                      _streams([seed + _entropy_words(i, k) for i in trial_ids], rng))
                  for k, amp in enumerate(circuits)]
        sampled, failures = _sampled_variants(*counts)
    return [
        TrialRecord(
            trial_id=trial_id, gamma=gamma, thetas=thetas, a_idx=a_idx, b_idx=b_idx,
            exact=exact[n], approx=approx[n], sampled=sampled[n],
            shots=config.shots if sampled[n] is not None else 0, postselect_p0=p0_n,
            general_tur_holds=general_holds[n],
            contained_imag=contained_imag[n],
            sep_tur_holds_imag=sep_holds_imag[n],
            tur_margin=margins[n],
            bound_gap=abs(exact[n].upper - approx[n].upper),
            failure=failures[n],
        )
        for n, (trial_id, (thetas, gamma, a_idx, b_idx), p0_n) in enumerate(zip(trial_ids, draws, p0.tolist()))
    ]


@dataclass(frozen=True)
class RunSummary:
    n_trials: int
    violations: dict
    margin_min: float | None
    margin_median: float | None
    degenerate_trials: int
    failed_trials: int
    gap_bucket_edges: tuple[float, ...]
    gap_bucket_medians: tuple[float | None, ...]


def summarize(records: list[TrialRecord]) -> RunSummary:
    """Aggregate violation counts, margins and approximation gaps (stable in trial order)."""
    if not records:
        raise ContractError("summarize needs at least one trial record")
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
        # Half-open buckets [e_k, e_{k+1}); the last one also takes gamma = hi.
        buckets: list[list[float]] = [[] for _ in range(4)]
        for r in records:
            buckets[min(bisect_right(edges, r.gamma) - 1, 3)].append(r.bound_gap)
        bucket_medians = [median(b) if b else None for b in buckets]
    else:
        bucket_medians = [median(r.bound_gap for r in records)]
    return RunSummary(
        n_trials=len(records),
        violations=violations,
        margin_min=min(margins) if margins else None,
        margin_median=median(margins) if margins else None,
        degenerate_trials=sum(r.exact.degenerate for r in records),
        failed_trials=sum(r.failure is not None for r in records),
        gap_bucket_edges=edges,
        gap_bucket_medians=tuple(bucket_medians),
    )


def run_experiment(config: ExperimentConfig) -> tuple[list[TrialRecord], RunSummary]:
    """Evaluate every trial of the configured family, CHUNK_TRIALS trials per stacked pass."""
    ids = range(config.n_trials)
    records = [
        r for k in range(0, config.n_trials, CHUNK_TRIALS) for r in _evaluate_chunk(config, ids[k:k + CHUNK_TRIALS])
    ]
    return records, summarize(records)
