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
(seed, trial_id, 1). A chunk's streams are keyed in one vectorized pass, numpy's SeedSequence kept as the test oracle.
The inputs have one formula, _stacked_inputs over a stack of trials; generate_trial is its one-row view.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from statistics import median

import numpy as np

from .channels import COMPLETENESS_ATOL, KrausChannel, kraus_from_unitary
from .errors import ContractError, DegenerateChannel, SingularOperator
from .gates import HADAMARD, I2, controlled, pauli_pair
from .linalg import (
    EIGENVALUE_GROUP_TOL,
    HERMITIAN_ATOL,
    UNITARY_ATOL,
    SubsystemLayout,
    _raise_first_failure,
    dag,
    kron,
    outer,
)
from .protocol import (
    PARTS,
    _ancilla_pullback,
    _bound_and_tradeoff,
    _entry_state,
    _entropy_words,
    _main_gates,
    _multinomial_counts,
    _nested_gates,
    _spawned_words,
    _streams,
    correlator_bound,
    correlator_interval,
    estimate_main_circuit,
    estimate_nested_circuit,
    nested_premeasure_state,
    protocol_state,
    sample_shots,
)
from .tur import P0_CUTOFF, _tur_report, check_general_tur, purify

VARIANTS = ("exact", "neumann1", "sampled")
_SE_LAYOUT = SubsystemLayout((4, 2), ("S", "E"))


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
    """Deterministic trial inputs for (config.seed, trial_id)."""
    return _trial_setups(config, [trial_id])[0]


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


def _sampled_values(rho, ch: KrausChannel, a, b, config: ExperimentConfig, trial_id: int):
    """(sampled variant, None), (None, reason its postselection came up empty), or (None, None) if off."""
    if "sampled" not in config.variants or config.shots == 0:
        return None, None
    main = sample_shots(protocol_state(rho, ch, a, b, stage="premeasure"), config.shots, (config.seed, trial_id, 0))
    nested = sample_shots(nested_premeasure_state(rho, ch, a, b), config.shots, (config.seed, trial_id, 1))
    (sampled,), (failure,) = _sampled_variants(main.counts[None], nested.counts[None])
    return sampled, failure


def evaluate_trial(setup: TrialSetup, config: ExperimentConfig) -> TrialRecord:
    rho, ch, a, b = setup.rho, setup.channel, setup.a_op, setup.b_op

    bound = correlator_bound(rho, ch, a, b, variant="exact", part="real")
    (exact,), (margin,) = _variant_values([bound.correlator_real], [bound.xi_b], [bound.q_ab])

    (bound_i, sep_i), = _bound_and_tradeoff(rho, ch, a, b, ("exact",), "imag")

    approx_bound = correlator_bound(rho, ch, a, b, variant="neumann1", part="real")
    (approx,), _ = _variant_values([approx_bound.correlator_real], [approx_bound.xi_b], [approx_bound.q_ab])

    # General trade-off instance: the protocol observable embedded on R+P+E.
    sigma_pb = _entry_state(rho, b)
    lifted = KrausChannel(
        tuple(kron(I2, v) for v in ch.operators),
        no_jump_index=ch.no_jump_index,
    )
    g_emb = kron(kron(np.eye(sigma_pb.shape[0]), _ancilla_pullback(a, "real")), np.eye(len(ch.operators)))
    general = check_general_tur(g_emb, purify(sigma_pb), lifted)

    p0 = 1.0 - approx_bound.xi_b
    sampled, failure = _sampled_values(rho, ch, a, b, config, setup.trial_id)

    return TrialRecord(
        trial_id=setup.trial_id, gamma=setup.gamma, thetas=setup.thetas,
        a_idx=setup.a_idx, b_idx=setup.b_idx,
        exact=exact, approx=approx, sampled=sampled,
        shots=config.shots if sampled is not None else 0, postselect_p0=p0,
        general_tur_holds=general.holds,
        contained_imag=bound_i.holds,
        sep_tur_holds_imag=sep_i.holds,
        tur_margin=margin,
        bound_gap=abs(bound.upper - approx_bound.upper),
        failure=failure,
    )


# Batched evaluation. run_experiment evaluates trials in chunks of CHUNK_TRIALS
# ids: a chunk's inputs are built as stacked arrays and every exact quantity of
# evaluate_trial is computed once per chunk with batched matmul and eigh.
# evaluate_trial and the bound functions it calls stay the reference that the
# batched values are tested against, and the path of `verify` and `bound`.

CHUNK_TRIALS = 128   # fixed so that peak memory does not grow with --trials

_PAULI_PAIRS = np.stack([pauli_pair(k // 4, k % 4) for k in range(16)])   # row 4 i + j
_PAULI_PAIRS.setflags(write=False)   # TrialSetup.a_op and b_op are views of its rows
_CONTROLLED_PAIRS = np.stack([controlled(p) for p in _PAULI_PAIRS])
_PULLBACKS = {part: np.stack([_ancilla_pullback(p, part) for p in _PAULI_PAIRS]) for part in PARTS}
_CONTROLLED_PULLBACKS = np.stack([controlled(g) for g in _PULLBACKS["real"]])
_PLUS = outer(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


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
    """Stacked preparation vectors (N, 4), their density matrices (N, 4, 4) and dilation unitaries (N, 8, 8)."""
    g = _qubit_gates(thetas)
    psi = kron(g[:, 0, :, :1], g[:, 1, :, :1])[..., 0]
    rho = psi[:, :, None] * psi.conj()[:, None, :]
    half = np.pi * gammas / 2
    ry_e = np.empty((len(gammas), 2, 2), dtype=complex)
    ry_e[:, 0, 0] = ry_e[:, 1, 1] = np.cos(half)
    ry_e[:, 0, 1] = -np.sin(half)
    ry_e[:, 1, 0] = np.sin(half)
    coupling = np.zeros((len(gammas), 8, 8), dtype=complex)
    coupling[:, :4, :4] = np.eye(4)
    coupling[:, 4:, 4:] = kron(I2, ry_e)
    layer1 = kron(kron(g[:, 2], g[:, 3]), I2)
    layer2 = kron(kron(g[:, 4], g[:, 5]), I2)
    return psi, rho, layer2 @ coupling @ layer1


def _draw_stacked(config: ExperimentConfig, trial_ids, rng: np.random.Generator | None = None):
    """Each id's (thetas, gamma, a_idx, b_idx) from stream (seed, id), the Pauli-pair rows of A, B, _stacked_inputs."""
    n = len(trial_ids)
    thetas, gammas, pairs = np.empty((n, 12)), np.empty(n), np.empty((n, 2), dtype=np.int64)
    seed = _spawned_words(config.seed)
    for k, stream in enumerate(_streams([seed + _entropy_words(i) for i in trial_ids], rng)):
        thetas[k] = stream.uniform(*config.theta_range, size=12)
        gammas[k] = stream.uniform(*config.gamma_range)
        pairs[k] = stream.integers(1, 16), stream.integers(1, 16)   # row 4 i + j of _PAULI_PAIRS; 1..15 skip I (x) I
    draws = [(tuple(t), g, divmod(a, 4), divmod(b, 4))
             for t, g, (a, b) in zip(thetas.tolist(), gammas.tolist(), pairs.tolist())]
    return (draws, pairs[:, 0], pairs[:, 1]) + _stacked_inputs(thetas, gammas)


def _trial_setups(config: ExperimentConfig, trial_ids) -> list[TrialSetup]:
    """generate_trial(config, i) for each id, the inputs of all of them built in one stacked pass."""
    draws, a_k, b_k, _, rho, u = _draw_stacked(config, trial_ids)
    return [
        TrialSetup(
            trial_id=trial_id, gamma=gamma, thetas=thetas, a_idx=a_idx, b_idx=b_idx, rho=rho[n],
            channel=kraus_from_unitary(u[n], _SE_LAYOUT, env_initial=0),
            a_op=_PAULI_PAIRS[a_k[n]], b_op=_PAULI_PAIRS[b_k[n]],
        )
        for n, (trial_id, (thetas, gamma, a_idx, b_idx)) in enumerate(zip(trial_ids, draws))
    ]


def _stacked_hermitian_inverse(m: np.ndarray) -> np.ndarray:
    """linalg.hermitian_inverse over a stack, operation for operation.

    Eigenvalues closer than EIGENVALUE_GROUP_TOL share their mean, as in
    linalg.spectral. Repeating the scalar arithmetic makes Xi come out as the
    scalar path computes it, to the last bit on one numpy build; that matters
    because the interval half-width sqrt(Xi) turns an ulp of Xi near zero into
    ~1e-8. Singular input is the caller's check.
    """
    w, v = np.linalg.eigh((m + dag(m)) / 2.0)
    splits = np.abs(w[:, -2::-1] - w[:, :0:-1]) > EIGENVALUE_GROUP_TOL   # descending neighbours
    out = np.empty_like(m)
    patterns, which = np.unique(splits, axis=0, return_inverse=True)
    for k, pattern in enumerate(patterns):
        rows = np.flatnonzero(which.ravel() == k)
        w_k, v_k = w[rows][:, ::-1], v[rows][:, :, ::-1]
        edges = [0, *(np.flatnonzero(pattern) + 1), m.shape[-1]]
        acc = 0
        for i, j in zip(edges, edges[1:]):
            block = v_k[:, :, i:j]
            acc = acc + (1.0 / np.mean(w_k[:, i:j], axis=1))[:, None, None] * (block @ dag(block))
        out[rows] = acc
    return out


def _general_tur_terms(sigma, v, v0_inv, g):
    """<G>, Var[G] and Q_G over the joint state for G = I_R (x) G_P (x) I_E.

    The purification of each entry state comes from a batched eigh; G is
    applied by contraction over the P index, so no R+P+E matrix is built.
    """
    w, e = np.linalg.eigh(sigma)
    w, e = np.maximum(w[:, ::-1], 0.0), e[:, :, ::-1]
    w = w / w.sum(axis=1, keepdims=True)
    joint = ((e * np.sqrt(w)[:, None, :]) @ e.swapaxes(1, 2)).reshape(-1, 16, 4)   # [(R, S'), S]
    psi = (joint[:, None] @ v.swapaxes(-1, -2)).reshape(-1, 2, 8, 8)             # [E, R, P]
    g_psi = psi @ g.swapaxes(-1, -2)[:, None]
    tilde = (joint @ v0_inv.conj()).reshape(-1, 8, 8)                            # E = e0 block
    mean = np.sum(psi.conj() * g_psi, axis=(1, 2, 3)).real
    second = np.sum(np.abs(g_psi) ** 2, axis=(1, 2, 3))
    q = np.sum(tilde.conj() * g_psi[:, 0], axis=(1, 2)).real
    return mean, second - mean * mean, q


def _on_factors_stacked(u: np.ndarray, psi: np.ndarray, dims: tuple[int, ...], targets: tuple[int, ...]):
    """u (one gate or a stack of N) on the register factors ``targets`` of each vector of psi (N, prod(dims))."""
    order = [0] + [k + 1 for k in targets] + [k + 1 for k in range(len(dims)) if k not in targets]
    t = psi.reshape((-1,) + dims).transpose(order)
    t = (u @ t.reshape(len(psi), u.shape[-1], -1)).reshape(t.shape)
    return t.transpose(np.argsort(order)).reshape(psi.shape)


def _premeasure_probabilities(psi: np.ndarray, u: np.ndarray, a_k: np.ndarray, b_k: np.ndarray):
    """Outcome probabilities of the real-part main (N, 2, 4, 2) and nested (N, 2, 2, 4, 2, 2) circuits.

    The gate lists of protocol_state(stage="premeasure") and
    nested_premeasure_state run on stacked state vectors: every preparation
    of the family is pure, so |amp|^2 is the diagonal the scalar path reads
    off its density matrices.
    """
    n = len(psi)
    cb = _CONTROLLED_PAIRS[b_k]
    main = np.zeros((n, 2, 4, 2), dtype=complex)
    main[:, 0, :, 0] = psi
    main = main.reshape(n, 16)
    for g, targets in _main_gates(cb, u, _CONTROLLED_PAIRS[a_k], HADAMARD):
        main = _on_factors_stacked(g, main, (2, 4, 2), targets)
    # |+> (x) U_B^c (|+> (x) psi) (x) |e0 e0>, the two 1/sqrt(2) in one division
    entry = cb @ np.concatenate([psi, psi], axis=1)[..., None] / 2.0
    nested = np.zeros((n, 2, 8, 2, 2), dtype=complex)
    nested[:, :, :, 0, 0] = entry[:, None, :, 0]
    nested = nested.reshape(n, 64)
    for g, targets in _nested_gates(u, dag(u), _CONTROLLED_PULLBACKS[a_k]):
        nested = _on_factors_stacked(g, nested, (2, 2, 4, 2, 2), targets)
    return np.abs(main.reshape(n, 2, 4, 2)) ** 2, np.abs(nested.reshape(n, 2, 2, 4, 2, 2)) ** 2


def _evaluate_chunk(config: ExperimentConfig, trial_ids) -> list[TrialRecord]:
    """evaluate_trial(generate_trial(config, i), config) for each id, in one stacked pass.

    Xi, p0 and the baselines follow the scalar formulas operation for
    operation, so the records match evaluate_trial's to the last bit, not
    just within a tolerance.
    """
    rng = np.random.Generator(np.random.Philox(0))   # re-keyed to each stream of the chunk
    draws, a_k, b_k, psi, rho, u = _draw_stacked(config, trial_ids, rng)
    v = np.ascontiguousarray(u.reshape(-1, 4, 2, 4, 2)[..., 0].transpose(0, 2, 1, 3))   # [m, S, S]
    v0 = v[:, 0]
    w = dag(v0) @ v0
    cb = _CONTROLLED_PAIRS[b_k]
    sigma = cb @ kron(_PLUS, rho) @ dag(cb)          # entry state on P = S' (x) S
    rho_sb = sigma[:, :4, :4] + sigma[:, 4:, 4:]
    p0 = _trace(rho_sb @ dag(v0) @ v0).real
    g_re, g_im = _PULLBACKS["real"][a_k], _PULLBACKS["imag"][a_k]

    unitary_err = np.abs(dag(u) @ u - np.eye(8)).max(axis=(1, 2))
    complete_err = np.abs((dag(v) @ v).sum(axis=1) - np.eye(4)).max(axis=(1, 2))
    w_min = np.linalg.eigvalsh(w)[:, 0]
    g_err = np.abs(g_re - dag(g_re)).max(axis=(1, 2))
    _raise_first_failure([
        (unitary_err > UNITARY_ATOL, lambda n: ContractError(
            f"dilation unitary is not unitary: max |M^dag M - I| = {unitary_err[n]:.3e}")),
        (complete_err > COMPLETENESS_ATOL, lambda n: ContractError(
            f"completeness violated: max |sum V^dag V - I| = {complete_err[n]:.3e}")),
        (w_min <= P0_CUTOFF, lambda n: SingularOperator(
            "no-jump operator V_0 is singular", eigenvalue=float(w_min[n]))),
        (p0 <= P0_CUTOFF, lambda n: DegenerateChannel(
            f"no-jump probability {p0[n]:.3e} is numerically zero")),
        (g_err > HERMITIAN_ATOL, lambda n: ContractError(
            f"observable G is not Hermitian: max |M - M^dag| = {g_err[n]:.3e}")),
    ], lambda n: f"trial {trial_ids[n]}")

    a, b = _PAULI_PAIRS[a_k], _PAULI_PAIRS[b_k]
    c = _trace(rho @ (dag(v) @ a[:, None] @ v).sum(axis=1) @ b)    # Tr[rho A(T) B]
    w_inv = _stacked_hermitian_inverse(w)
    xi = _trace(rho_sb @ w_inv).real - 1.0
    lift = kron(I2, v0)
    rho_v0 = lift @ sigma @ dag(lift) / p0[:, None, None]
    ww = kron(I2, v0 @ dag(v0))
    ww_inv = kron(I2, _stacked_hermitian_inverse(v0 @ dag(v0)))
    q_re, q_im = (p0 * _trace(rho_v0 @ (0.5 * (g @ ww_inv + ww_inv @ g))).real for g in (g_re, g_im))
    q_approx = 2.0 * p0 * _trace(rho_v0 @ g_re).real - p0 * _trace(rho_v0 @ g_re @ ww).real
    mean, var, q_g = _general_tur_terms(sigma, v, w_inv @ dag(v0), g_re)

    exact, margins = _variant_values(c.real, xi, q_re)
    approx, _ = _variant_values(c.real, 1.0 - p0, q_approx)
    _, _, contained_imag, sep_imag = correlator_interval(c.imag, q_im, xi)
    contained_imag, sep_holds_imag = contained_imag.tolist(), sep_imag.holds.tolist()
    general_holds = _tur_report(mean, var, q_g, xi).holds.tolist()
    sampled, failures = [None] * len(draws), [None] * len(draws)
    if "sampled" in config.variants and config.shots > 0:
        # trial i draws its main circuit's shots from stream (seed, i, 0), its nested circuit's from (seed, i, 1)
        seed = _entropy_words(config.seed)
        counts = [_multinomial_counts(p, config.shots, _streams([seed + _entropy_words(i, k) for i in trial_ids], rng))
                  for k, p in enumerate(_premeasure_probabilities(psi, u, a_k, b_k))]
        sampled, failures = _sampled_variants(*counts)
    return [
        TrialRecord(
            trial_id=trial_id, gamma=gamma, thetas=thetas, a_idx=a_idx, b_idx=b_idx,
            exact=exact[n], approx=approx[n], sampled=sampled[n],
            shots=config.shots if sampled[n] is not None else 0, postselect_p0=1.0 - approx[n].xi_b,
            general_tur_holds=general_holds[n],
            contained_imag=contained_imag[n],
            sep_tur_holds_imag=sep_holds_imag[n],
            tur_margin=margins[n],
            bound_gap=abs(exact[n].upper - approx[n].upper),
            failure=failures[n],
        )
        for n, (trial_id, (thetas, gamma, a_idx, b_idx)) in enumerate(zip(trial_ids, draws))
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
