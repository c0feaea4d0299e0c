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
The inputs have one formula, _stacked_inputs over a stack of trials; generate_trial is its one-row view. The records
have one evaluation path too: run_experiment passes CHUNK_TRIALS trials at a time through the stacked kernels of tur
and protocol (_evaluate_chunk: the bound's one composition _bound_terms, of which `bound` is the one-row view and whose
terms give the general trade-off too, and the one neumann1 formula _neumann1, also of the shot estimates), and keeps a
run's records as columns (TrialColumns, no object per trial). evaluate_trial, the replay of one trial of a run, is
their one-row view, a TrialRecord. tests/ keeps the density-matrix bound and circuits as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from statistics import median

import numpy as np

from .channels import KrausChannel, _checked_kraus, kraus_from_unitary
from .errors import ContractError
from .gates import I2, PAULIS, controlled, pauli_pair
from .linalg import SubsystemLayout, kron, require_hermitian
from .protocol import (
    PARTS,
    _ancilla_pullback,
    _bound_terms,
    _entropy_words,
    _main_vectors,
    _multinomial_counts,
    _nested_vectors,
    _neumann1,
    _spawned_words,
    _streams,
    correlator_interval,
    estimate_main_circuit,
    estimate_nested_circuit,
)
from .tur import _roots, _tur_report

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
    thetas, gammas, a_k, b_k, _, rho, u = _draw_stacked(config, [trial_id])
    return TrialSetup(
        trial_id=trial_id, gamma=gammas.item(), thetas=tuple(thetas[0].tolist()), a_idx=divmod(a_k.item(), len(PAULIS)),
        b_idx=divmod(b_k.item(), len(PAULIS)), rho=rho[0], channel=kraus_from_unitary(u[0], _SE_LAYOUT),
        a_op=_PAULI_PAIRS[a_k[0]], b_op=_PAULI_PAIRS[b_k[0]],
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


class _Columns:
    """Mixin of the records of a run as columns, one array per field with one entry per trial."""

    def row(self, n: int):
        """Row n in the record type this subclasses, of Python values: evaluate_trial's record of trial_id[n]."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, x in values.items():
            x = x.row(n) if isinstance(x, _Columns) else None if x is None else np.asarray(x[n]).tolist()
            values[name] = tuple(x) if isinstance(x, list) else x   # a row of a 2-d column as a tuple
        if not values.get("shots", True):   # a trial without shots has no sampled variant
            values["sampled"] = None
        return type(self).__bases__[0](**values)


@dataclass(frozen=True)
class VariantColumns(VariantValues, _Columns):
    """The VariantValues of a run's trials as columns."""


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


@dataclass(frozen=True)
class TrialColumns(TrialRecord, _Columns):
    """A run's records as columns (a row per trial in thetas, a_idx and b_idx; failure an object array). sampled is
    None when sampling is off; else a trial has a sampled variant iff its shots are nonzero."""


def _concatenate(parts: list):
    """The columns of consecutive chunks as one set of columns."""
    first = parts[0]
    if len(parts) == 1 or first is None:
        return first
    if isinstance(first, _Columns):
        return type(first)(*(_concatenate([getattr(p, f.name) for p in parts]) for f in fields(first)))
    return np.concatenate(parts)


def _variant_values(c_part, xi, q) -> tuple[VariantColumns, np.ndarray]:
    """The VariantColumns of the 1-d arrays c_part, xi, q, and their trade-off margins."""
    lower, upper, contained, report = correlator_interval(c_part, q, xi)
    return VariantColumns(c_part, xi, q, lower, upper, report.lhs, contained, ~report.holds, report.degenerate), \
        report.margin


def _sampled_variants(main_counts: np.ndarray, nested_counts: np.ndarray) -> tuple[VariantColumns, np.ndarray]:
    """Sampled variants of stacked counts, and why a trial has none (else None): the empty postselection, main first."""
    with np.errstate(invalid="ignore"):   # nan marks an empty postselection
        (c, p0, t1), t2 = estimate_main_circuit(main_counts), estimate_nested_circuit(nested_counts)
    failures = np.where(np.isnan(t1), "no shots survived the E = e0 postselection",
                        np.where(np.isnan(t2), "no shots survived the E1 = e0 postselection", None))
    return _variant_values(c, *_neumann1(p0, t1, t2))[0], failures


def evaluate_trial(config: ExperimentConfig, trial_id: int) -> TrialRecord:
    """The record of trial (config.seed, trial_id), as run_experiment writes it: the one-row view of _evaluate_chunk."""
    return _evaluate_chunk(config, [trial_id]).row(0)


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
    """Each id's angles (N, 12) and gamma from stream (seed, id), the Pauli-pair rows of A and B, _stacked_inputs."""
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
    return (thetas, gammas, pairs[:, 0], pairs[:, 1]) + _stacked_inputs(thetas, gammas)


def _evaluate_chunk(config: ExperimentConfig, trial_ids) -> TrialColumns:
    """The records of the ids as columns, from one pass of the stacked kernels over the chunk's trials.

    C(T), Xi, p0, the baselines (those of correlator_bound: exact and neumann1,
    real and imaginary part) and the general trade-off of G = I_R (x) G_P (x) I_E,
    G_P the real pullback of A on P = S' (x) S, are the terms of one _bound_terms
    on the root of rho that `bound` takes too (_roots: one column, rho pure).
    """
    rng = np.random.Generator(np.random.Philox(0))   # re-keyed to each stream of the chunk
    thetas, gammas, a_k, b_k, psi, rho, u = _draw_stacked(config, trial_ids, rng)
    a, b = _PAULI_PAIRS[a_k], _PAULI_PAIRS[b_k]
    g_re = _PULLBACKS["real"][a_k]

    def label(n):
        return f"trial {trial_ids[n]}"

    v = _checked_kraus(u, _SE_LAYOUT.dims[0], label)   # (N, M, d, d)
    p0, xi, ((c_re, var_re, q_re), (c_im, _, q_im)), (xi_approx, q_approx) = _bound_terms(
        rho, _roots(rho), v, 0, b, (g_re, _PULLBACKS["imag"][a_k]), label)
    general = _tur_report(c_re, var_re, q_re, xi)

    exact, margins = _variant_values(c_re, xi, q_re)
    approx, _ = _variant_values(c_re, xi_approx, q_approx)
    _, _, contained_imag, sep_imag = correlator_interval(c_im, q_im, xi)
    sampled, failures = None, np.full(len(psi), None)
    if "sampled" in config.variants and config.shots > 0:
        # trial i draws its main circuit's shots from stream (seed, i, 0), its nested circuit's from (seed, i, 1)
        seed, x = _entropy_words(config.seed), psi[:, :, None]   # psi is its own root, R of dimension 1
        circuits = _main_vectors(x, u, 0, a, b, "premeasure"), _nested_vectors(x, u, 0, g_re, b)
        counts = [_multinomial_counts((np.abs(amp) ** 2).sum(axis=-1), config.shots,
                                      _streams([seed + _entropy_words(i, k) for i in trial_ids], rng))
                  for k, amp in enumerate(circuits)]
        sampled, failures = _sampled_variants(*counts)
    return TrialColumns(
        np.asarray(trial_ids), gammas, thetas, *(np.stack(np.divmod(k, len(PAULIS)), axis=1) for k in (a_k, b_k)),
        exact, approx, sampled, np.where(failures.astype(bool) | (sampled is None), 0, config.shots), p0,
        general.holds, contained_imag, sep_imag.holds, margins, np.abs(exact.upper - approx.upper), failures)


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


def summarize(records: TrialColumns) -> RunSummary:
    """Aggregate violation counts, margins and approximation gaps of a run's columns (independent of row order)."""
    if not len(records.trial_id):
        raise ContractError("summarize needs at least one trial record")
    exact, approx, sampled = records.exact, records.approx, records.shots > 0
    violations = {
        "exact": {"tur": exact.tur_violated, "containment": ~exact.contained, "tur_imag": ~records.sep_tur_holds_imag,
                  "containment_imag": ~records.contained_imag, "general": ~records.general_tur_holds},
        "neumann1": {"tur": approx.tur_violated, "containment": ~approx.contained},
    }
    if sampled.any():
        violations["sampled"] = {"tur": records.sampled.tur_violated & sampled,
                                 "containment": ~records.sampled.contained & sampled, "n": sampled}
    margins = records.tur_margin[~exact.degenerate & np.isfinite(records.tur_margin)].tolist()
    gammas, gaps = records.gamma, records.bound_gap
    lo, hi = gammas.min().item(), gammas.max().item()
    if hi > lo:
        edges = tuple(lo + (hi - lo) * k / 4.0 for k in range(5))
        # Half-open buckets [e_k, e_{k+1}); the last one also takes gamma = hi.
        bucket = np.minimum(np.searchsorted(edges, gammas, side="right") - 1, 3)
        buckets = [gaps[bucket == k].tolist() for k in range(4)]
    else:
        edges, buckets = (lo, hi), [gaps.tolist()]
    return RunSummary(
        n_trials=len(records.trial_id),
        violations={v: {k: int(np.count_nonzero(flags)) for k, flags in c.items()} for v, c in violations.items()},
        margin_min=min(margins) if margins else None,
        margin_median=median(margins) if margins else None,
        degenerate_trials=int(np.count_nonzero(exact.degenerate)),
        failed_trials=int(np.count_nonzero(records.failure.astype(bool))),
        gap_bucket_edges=edges,
        gap_bucket_medians=tuple(median(b) if b else None for b in buckets),
    )


def run_experiment(config: ExperimentConfig) -> tuple[TrialColumns, RunSummary]:
    """Evaluate every trial of the configured family, CHUNK_TRIALS trials per stacked pass; its records as columns."""
    ids = range(config.n_trials)
    records = _concatenate([_evaluate_chunk(config, ids[k:k + CHUNK_TRIALS])
                            for k in range(0, config.n_trials, CHUNK_TRIALS)])
    return records, summarize(records)
