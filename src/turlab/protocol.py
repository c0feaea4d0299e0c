"""Ancilla-based measurement protocol for two-point correlators and its bounds.

The protocol estimating C(T) = Tr[rho A(T) B(0)] for Hermitian unitary A, B:

  1. ancilla S' starts in |0>;
  2. Hadamard on S' to reach |+>;
  3. controlled-B on S' + S;
  4. the channel acts on S (dilation unitary on S + E, E starting in |e0>);
  5. controlled-A on S' + S;
  6. sigma_x and sigma_y on S' give Re C(T) and Im C(T).

The sigma_x readout is realized as Hadamard-then-sigma_z, sigma_y as
(S-dagger, Hadamard)-then-sigma_z. Each circuit is a list of gates on their own
register factors, and a stage is a prefix of that list. The circuits run exactly
on state vectors, a mixed rho entering through its purification (a last factor R
that no gate touches); shot noise enters only through multinomial sampling.

The bound Q - sqrt(Xi) <= Re C(T) <= Q + sqrt(Xi) has one composition, _bound_terms over stacks of instances, on the
state vectors of the entry root (tur._roots of rho), with Q_G's one formula tur._general_tur_terms: the experiment
chunk calls it on its trials, correlator_bound and `bound` on one row. Its first-order surrogates have one formula,
_neumann1, fed the exact traces here and the shot estimates in the experiment's sampled variant.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, _heisenberg, ensure_dilation
from .errors import ContractError, DegenerateChannel, LayoutError
from .gates import HADAMARD, S_GATE, SIGMA_X, SIGMA_Y, controlled
from .linalg import (
    SubsystemLayout,
    _invertible_factors,
    _psd_sqrt,
    _raise_first_failure,
    dag,
    kron,
    require_density,
    require_hermitian,
    require_unitary,
)
from .tur import (P0_CUTOFF, TUR_SLACK, TurReport, _general_tur_terms, _inner, _joint, _joint_states, _roots,
                  _survival_activity, _tur_report)

STAGES = ("prepared", "after_UB", "after_channel", "after_UA", "premeasure")
_STAGE_GATES = dict(zip(STAGES, (0, 2, 3, 4, 5)))   # gates of protocol_state's list applied by each stage
PARTS = ("real", "imag")


def _require_inputs(rho, dim: int, a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, A, B), or stacks (N, d, d) of them, checked as density matrices and Hermitian unitaries on dim."""
    checked = [require_density(rho)]
    checked += [require_unitary(require_hermitian(m, name=name), name=name) for m, name in ((a, "A"), (b, "B"))]
    if any(m.shape[-1] != dim for m in checked):
        raise LayoutError("rho, A, B must act on the channel's system")
    return tuple(checked)


@dataclass(frozen=True)
class ProtocolState:
    """Density matrix of the protocol register at a named stage."""

    layout: SubsystemLayout
    matrix: np.ndarray
    stage: str

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ContractError(f"unknown stage {self.stage!r}")
        self.layout.require_matches(self.matrix)
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > 1e-10:
            raise ContractError(f"protocol state trace {tr:.12g} != 1")


def _on_factors(u: np.ndarray, psi: np.ndarray, dims: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """u psi for each state of psi (N, ...), u (one gate or a stack of N) acting on the register factors ``targets``
    (in u's factor order) of dims, the leading factors of a state; the rest (a purifying factor) is left alone."""
    n = len(dims)
    order = [0] + [k + 1 for k in targets] + [k + 1 for k in range(n) if k not in targets] + [n + 1]
    t = psi.reshape((len(psi),) + dims + (-1,)).transpose(order)
    return (u @ t.reshape(len(t), u.shape[-1], -1)).reshape(t.shape).transpose(np.argsort(order)).reshape(psi.shape)


def _circuit_inputs(rho, ch: KrausChannel, a, b) -> tuple:
    """The arguments of the circuits for one instance, validated: the root x = sqrt(rho) (1, d, d), the dilation
    unitary and e0, A and B."""
    rho, a, b = _require_inputs(rho, ch.dim, a, b)
    dil = ensure_dilation(ch).dilation
    return _psd_sqrt(rho[None])[1], dil.unitary, dil.env_initial, a, b


def _state(psi: np.ndarray, stage: str) -> ProtocolState:
    """The ProtocolState of one register vector psi (dims..., r) of the circuits: M M^dag, M psi as (D, r)."""
    m = psi.reshape(-1, psi.shape[-1])
    return ProtocolState(SubsystemLayout(psi.shape[:-1]), m @ dag(m), stage)


def _readout_rotation(part: str) -> np.ndarray:
    # H sigma_z H = sigma_x;  (H S^dag) rotates sigma_y onto sigma_z.
    if part == "real":
        return HADAMARD
    if part == "imag":
        return HADAMARD @ dag(S_GATE)
    raise ContractError(f"part must be one of {PARTS}, got {part!r}")


def _main_gates(b_gate, unitary, a_gate, readout) -> list:
    """The main circuit as (gate, target factors) on S' (x) S (x) E; a gate may be a stack, one per trial."""
    return [(HADAMARD, (0,)), (b_gate, (0, 1)), (unitary, (1, 2)), (a_gate, (0, 1)), (readout, (0,))]


def _nested_gates(unitary, unitary_dag, g_gate) -> list:
    """The nested circuit as (gate, target factors) on S2' (x) S' (x) S (x) E1 (x) E2 after its entry state."""
    return [(unitary, (2, 3)), (g_gate, (0, 1, 2)), (unitary_dag, (2, 4)), (HADAMARD, (0,))]


def _main_vectors(x, unitary, env_initial: int, a, b, stage: str = "after_UA", part: str = "real") -> np.ndarray:
    """The register S' (x) S (x) E (x) R of the main circuit at a stage, (N, 2, d, d_E, r), of each row of stacks of
    roots x (N, d, r) of rho, A, B (N, d, d) and dilation unitaries (N, d d_E, d d_E); A, B or the unitary may also
    be one matrix for all rows. protocol_state is its one-row view."""
    n, d, r = x.shape
    d_e = unitary.shape[-1] // d
    psi = np.zeros((n, 2, d, d_e, r), dtype=complex)
    psi[:, 0, :, env_initial] = x
    for u, targets in _main_gates(controlled(b), unitary, controlled(a), _readout_rotation(part))[:_STAGE_GATES[stage]]:
        psi = _on_factors(u, psi, (2, d, d_e), targets)
    return psi


def protocol_state(
    rho: np.ndarray,
    ch: KrausChannel,
    a: np.ndarray,
    b: np.ndarray,
    stage: str = "after_UA",
    part: str = "real",
) -> ProtocolState:
    """Evolve the protocol register up to the requested stage."""
    if stage not in STAGES:
        raise ContractError(f"unknown stage {stage!r}")
    return _state(_main_vectors(*_circuit_inputs(rho, ch, a, b), stage, part)[0], stage)


def exact_correlator(rho: np.ndarray, ch: KrausChannel, a: np.ndarray, b: np.ndarray) -> complex:
    """C(T) = Tr[rho A(T) B] with A(T) the Heisenberg-evolved observable."""
    rho, a, b = _require_inputs(rho, ch.dim, a, b)
    return _exact_correlator(rho, ch.operators, a, b)


def _exact_correlator(rho, ops, a, b):
    """C(T) of one instance, or of each row of stacks rho, A, B and Kraus operators ops[m] (N, d, d)."""
    c = np.trace(rho @ _heisenberg(ops, a) @ b, axis1=-2, axis2=-1)
    return complex(c) if c.ndim == 0 else c


def _protocol_correlators(psi: np.ndarray) -> np.ndarray:
    """C(T) of each after_UA register of _main_vectors: the mean sign of S' after the real and the imaginary readout."""
    # Not estimate_main_circuit: C(T) stays defined when the E = e0 outcome has probability 0.
    re, im = ((np.abs(_on_factors(_readout_rotation(p), psi, psi.shape[1:4], (0,))) ** 2).reshape(len(psi), 2, -1)
              .sum(axis=2) for p in PARTS)
    return (re[:, 0] - re[:, 1]) + 1j * (im[:, 0] - im[:, 1])


def protocol_correlator(rho: np.ndarray, ch: KrausChannel, a: np.ndarray, b: np.ndarray) -> complex:
    """C(T) from the ancilla protocol: the mean sign of S' after the real and the imaginary readout."""
    return complex(_protocol_correlators(_main_vectors(*_circuit_inputs(rho, ch, a, b)))[0])


def _ancilla_pullback(a: np.ndarray, part: str) -> np.ndarray:
    """G = U_A^c-dag (sigma_readout (x) I_S) U_A^c on S' (x) S, of one A or of each of a stack."""
    uca = controlled(a)
    readout = SIGMA_X if part == "real" else SIGMA_Y
    if part not in PARTS:
        raise ContractError(f"part must be one of {PARTS}, got {part!r}")
    return dag(uca) @ kron(readout, np.eye(a.shape[-1])) @ uca


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the correlator bound Q - sqrt(Xi_B) <= Re C <= Q + sqrt(Xi_B).

    ``correlator_real`` holds the bounded component of C(T): its real part for
    part="real", its imaginary part for part="imag".
    """

    correlator_real: float
    q_ab: float
    xi_b: float
    lower: float
    upper: float
    holds: bool
    approx_variant: str
    part: str = "real"


def correlator_interval(c, q, xi) -> tuple[float, float, bool, TurReport]:
    """(lower, upper, contained, trade-off) for one component c of C(T).

    The interval is Q -+ sqrt(Xi) and contains c within TUR_SLACK. The
    trade-off is the separable one of the protocol observable G, which is
    Hermitian and unitary, so Var[G] = 1 - c^2. Like _tur_report, it takes
    floats or equal-shape arrays and returns Python values or arrays.
    """
    c, q, xi = (np.asarray(x, dtype=float) for x in (c, q, xi))
    half = np.sqrt(np.maximum(xi, 0.0))
    lower, upper = q - half, q + half
    contained = (lower - TUR_SLACK <= c) & (c <= upper + TUR_SLACK)
    report = _tur_report(c, 1.0 - c * c, q, xi)
    if c.ndim == 0:
        return lower.item(), upper.item(), contained.item(), report
    return lower, upper, contained, report


def _neumann1(p0, t1, t2):
    """The first-order (truncated Neumann series) surrogates (Xi, Q) of p_0, T_1 = Tr[rho^V0 G] and
    T_2 = Re Tr[rho^V0 G V_0 V_0^dag], exact or estimated: (V_0^dag V_0)^-1 ~ 2 - V_0^dag V_0 gives
    Xi ~ 1 - p_0 and Q ~ 2 p_0 T_1 - p_0 T_2."""
    return 1.0 - p0, 2.0 * p0 * t1 - p0 * t2


def _bound_terms(rho, x, v, e0: int, b, gs, label=None):
    """(p_0, Xi, [(<G>, Var[G], Q_G) of each G of gs], the neumann1 (Xi, Q) of gs[0]) of each row of stacks rho, B
    (N, d, d), roots x (N, d, r) of rho, Kraus operators v (N, M, d, d) with no-jump index e0 and ancilla pullbacks
    gs (N, 2d, 2d) on S' (x) S. The terms are _general_tur_terms over R (x) S' (x) S (x) E from the entry root
    U_B^c (|+> (x) x) = (|0> (x) x + |1> (x) B x) / sqrt(2), so <G_re> + i <G_im> is C(T); p_0 and Xi are those of
    the entry's S marginal (rho + B rho B^dag) / 2, free of the root's rounding. A singular V_0 or a zero p_0 raises,
    labelled by label(row)."""
    (n, d, r), m = x.shape, v.shape[1]
    v0 = v[:, e0]
    v0_inv = _invertible_factors(v0, label, "no-jump operator V_0 is singular")[0]
    rho_b = (rho + b @ rho @ dag(b)) / 2.0
    p0 = np.trace(rho_b @ dag(v0) @ v0, axis1=1, axis2=2).real
    _raise_first_failure([(p0 <= P0_CUTOFF, lambda k: DegenerateChannel(
        f"no-jump probability {p0[k]:.3e} is numerically zero"))], label)
    joint = _joint(np.concatenate([x, b @ x], axis=1) / math.sqrt(2.0))   # R (x) S' (x) S
    psi, tilde = _joint_states(joint, v, e0, v0_inv)
    psi = psi.reshape(n, r, 2 * d, m)
    g_psi = [g[:, None] @ psi for g in gs]
    # neumann1's traces over rho^V0 from the e0 branch w = (I (x) V_0) y: p_0 T_1 = <w|G w> and
    # p_0 T_2 = Re <G w|(I (x) V_0 V_0^dag) w>
    w, g_w = psi[..., e0].reshape(n, 2 * r, d), g_psi[0][..., e0].reshape(n, -1)
    t1, t2 = (_inner(z.reshape(n, -1), g_w) / p0 for z in (w, w @ (v0 @ dag(v0)).swapaxes(1, 2)))
    terms = [_general_tur_terms(psi.reshape(n, -1), gp.reshape(n, -1), tilde) for gp in g_psi]
    return p0, _survival_activity(rho_b, v0_inv), terms, _neumann1(p0, t1, t2)


def correlator_bound(
    rho: np.ndarray,
    ch: KrausChannel,
    a: np.ndarray,
    b: np.ndarray,
    variant: str = "exact",
    part: str = "real",
) -> BoundReport:
    """Thermodynamic bound on one component of C(T).

    exact: Xi_B = Tr[rho_S^B (V_0^dag V_0)^-1] - 1 with rho_S^B the S marginal
    of the state entering the channel, and Q_{A,B} the separable baseline
    with G the ancilla pullback of the readout Pauli. neumann1: the
    first-order surrogates of _neumann1. The interval half-width
    is sqrt(Xi_B) (variance of the unitary-Hermitian G capped at 1).
    """
    return _bound_and_tradeoff(rho, ch, a, b, variant, part)[0]


def _bound_and_tradeoff(rho, ch: KrausChannel, a, b, variant: str, part: str) -> tuple[BoundReport, TurReport]:
    """(correlator_bound of the variant, separable trade-off of the exact interval): the inputs validated once and
    one row of _bound_terms."""
    if variant not in ("exact", "neumann1"):
        raise ContractError(f"unknown variant {variant!r}")
    rho, a, b = _require_inputs(rho, ch.dim, a, b)
    _, xi, ((c, _, q),), approx = _bound_terms(rho[None], _roots(rho[None]), np.stack(ch.operators)[None],
                                               ch.no_jump_index, b[None], [_ancilla_pullback(a, part)[None]])
    c_part = c.item()
    exact = correlator_interval(c_part, q[0], xi[0])
    (xi_b,), (q_b,) = (xi, q) if variant == "exact" else approx
    lower, upper, holds, _ = exact if variant == "exact" else correlator_interval(c_part, q_b, xi_b)
    return BoundReport(c_part, float(q_b), float(xi_b), lower, upper, holds, variant, part), exact[3]


def separable_tur_protocol_check(
    rho: np.ndarray,
    ch: KrausChannel,
    a: np.ndarray,
    b: np.ndarray,
    part: str = "real",
) -> TurReport:
    """Separable trade-off for the protocol observable G (Var[G] = 1 - <G>^2)."""
    return _bound_and_tradeoff(rho, ch, a, b, "exact", part)[1]


def nested_premeasure_state(
    rho: np.ndarray,
    ch: KrausChannel,
    a: np.ndarray,
    b: np.ndarray,
    part: str = "real",
) -> ProtocolState:
    """Full nested register (both environments kept) ready for sampling.

    The nested circuit measures Re Tr[rho^V0 G (V_0 V_0^dag)]: postselecting
    E1 = e0 after the dilation forms rho^V0, a fresh ancilla S2' in |+> applies
    controlled-G, and the inverse dilation on E2 realizes V_0^dag. Register
    order S2' (x) S' (x) S (x) E1 (x) E2. The estimator of the nested term,
    estimate_nested_circuit, is the mean of sign(S2') * [E2 = e0] over the
    outcomes with E1 = e0.
    """
    x, unitary, env_initial, a, b = _circuit_inputs(rho, ch, a, b)
    return _state(_nested_vectors(x, unitary, env_initial, _ancilla_pullback(a, part), b)[0], "premeasure")


def _nested_vectors(x, unitary, env_initial: int, g, b) -> np.ndarray:
    """The register S2' (x) S' (x) S (x) E1 (x) E2 (x) R of the nested circuit before measurement,
    (N, 2, 2, d, d_E, d_E, r), of each row of the stacks (as _main_vectors), g the ancilla pullback of A."""
    n, d, r = x.shape
    d_e = unitary.shape[-1] // d
    psi = np.zeros((n, 2, 2 * d, d_e, d_e, r), dtype=complex)
    # |+> (x) U_B^c (|+> (x) x) (x) |e0 e0>, the two 1/sqrt(2) in one division
    psi[:, :, :, env_initial, env_initial] = (controlled(b) @ np.concatenate([x, x], axis=1) / 2.0)[:, None]
    psi = psi.reshape(n, 2, 2, d, d_e, d_e, r)
    for u, targets in _nested_gates(unitary, dag(unitary), controlled(g)):
        psi = _on_factors(u, psi, (2, 2, d, d_e, d_e), targets)
    return psi


@dataclass(frozen=True)
class ShotResult:
    """Multinomial counts over computational-basis outcomes of a premeasure state.

    ``counts`` is an integer array of shape ``layout.dims``, one axis per
    layout factor, slowest factor first.
    """

    counts: np.ndarray
    shots: int
    seed: tuple[int, ...]


# Random streams: numpy's Generator(Philox(SeedSequence(words))) of rows of uint32 entropy words. A Philox stream is
# its 128-bit key and a zero counter, so _stream_keys replays SeedSequence's hash for many rows at once. _philox_words
# then runs the stream's first words for all rows in one pass; a Generator, where one is needed (multinomial), is one
# Philox re-keyed per stream. numpy's SeedSequence and Philox stay the test oracles.

_ZERO4 = np.zeros(4, dtype=np.uint64)
_OTHER_WORDS = [np.array([d for d in range(4) if d != src]) for src in range(4)]
_LO32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64-10 (Random123): the round multipliers (M0, M1), also as 32-bit limbs, and what each of the ten rounds
# adds to the key, r (W0, W1) mod 2^64 in round r
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_M_LIMBS = _PHILOX_M & _LO32, _PHILOX_M >> _32
_PHILOX_KEY_STEPS = np.arange(10, dtype=np.uint64)[:, None, None, None] * np.array(
    [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]


def _entropy_words(*values) -> list[int]:
    """SeedSequence's entropy words of non-negative integers: 32 bits each, least significant first."""
    values = [operator.index(v) for v in values]
    if any(v < 0 for v in values):
        raise ValueError("expected non-negative integer")
    return [(v >> s) & 0xFFFFFFFF for v in values for s in range(0, max(v.bit_length(), 1), 32)]


def _spawned_words(seed: int, *spawn_key: int) -> list[int]:
    """The words of SeedSequence(entropy=seed, spawn_key=spawn_key): the seed's, padded with 0 to 4, then the key's."""
    words = _entropy_words(seed)
    return words + [0] * (4 - len(words)) + _entropy_words(*spawn_key)


def _hashmix(v: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of v[..., j] as the call that moves the multiplier from before[j] to after[j]."""
    v = (v ^ before) * after
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
    return r ^ (r >> 16)


def _multipliers(state: int, factor: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiplier states before and after each of n successive hash calls (uint32 products wrap mod 2^32)."""
    m = np.cumprod(np.array([state] + [factor] * n, dtype=np.uint32), dtype=np.uint32)
    return m[:-1], m[1:]


def _stream_keys(words: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(2, np.uint64) of each row of words (N, L) uint32, all rows in one pass.

    numpy's pool of four words: each filled by one hashmix, then every word
    mixed into every other, then each word past the fourth into all four. The
    multiplier states do not depend on the data, so the rows share them.
    """
    words = np.asarray(words, dtype=np.uint32)
    n_rows, n_words = words.shape
    before, after = _multipliers(0x43B0D7E5, 0x931E8875, 16 + 4 * max(n_words - 4, 0))
    pool = np.zeros((n_rows, 4), dtype=np.uint32)   # a pool word without an entropy word hashes 0
    pool[:, :n_words] = words[:, :4]
    pool = _hashmix(pool, before[:4], after[:4])
    for src, dst in enumerate(_OTHER_WORDS):
        calls = slice(4 + 3 * src, 7 + 3 * src)
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], before[calls], after[calls]))
    for j in range(4, n_words):
        calls = slice(4 * j, 4 * j + 4)
        pool = _mix(pool, _hashmix(words[:, j, None], before[calls], after[calls]))
    state = _hashmix(pool, *_multipliers(0x8B51F9DD, 0x58F38DED, 4))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit halves of the 128-bit products _PHILOX_M * x; the high half from 32-bit limbs, no sum
    of which passes 2^64 (Hacker's Delight's mulhu)."""
    (m0, m1), x0, x1 = _PHILOX_M_LIMBS, x & _LO32, x >> _32
    t = x1 * m0 + ((x0 * m0) >> _32)
    w1 = x0 * m1 + (t & _LO32)
    return x1 * m1 + (t >> _32) + (w1 >> _32), x * _PHILOX_M


def _philox_words(keys: np.ndarray, blocks: int) -> np.ndarray:
    """numpy's Philox(key=k).random_raw(4 * blocks) of each key k of keys (N, 2) uint64, all rows in one pass.

    A fresh numpy Philox has a zero 256-bit counter and increments it before
    each block of four words, so the blocks are Philox4x64-10 of counters
    1..blocks. A round maps the counter (c0, c1, c2, c3) under the key
    (k0, k1) to (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1,
    lo(M0 c0)), with M0 = 0xD2E7470EE14C6C93 and M1 = 0xCA5A826395121157,
    and round r = 0..9 takes the key plus r (W0, W1), with
    W0 = 0x9E3779B97F4A7C15 and W1 = 0xBB67AE8584CAA73B. The pass keeps the
    state as two stacks (2, N, blocks): the multiplied words (c0, c2) and the
    xored words (c1, c3).
    """
    keys = np.asarray(keys, dtype=np.uint64)
    mult = np.zeros((2, len(keys), blocks), dtype=np.uint64)
    mult[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    xored = np.zeros_like(mult)
    for key in keys.T[:, :, None] + _PHILOX_KEY_STEPS:   # (k0, k1) of each round, (2, N, 1)
        hi, lo = _mulhilo(mult)
        mult, xored = hi[::-1] ^ xored ^ key, lo[::-1]
    return np.stack([mult[0], xored[0], mult[1], xored[1]], axis=-1).reshape(len(keys), 4 * blocks)


def _streams(rows):
    """One Generator, at the start of the stream of each row of entropy words (all of one length) in turn.

    Re-keying gives the Philox a fresh one's state: zero counter, empty buffer, no buffered 32-bit half.
    """
    rng = np.random.Generator(np.random.Philox(0))
    for key in _stream_keys(np.array(rows, dtype=np.uint32)):
        rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _ZERO4, "key": key},
                                   "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield rng


def shot_rng(seed) -> np.random.Generator:
    """numpy's Generator(Philox(SeedSequence(seed))) for an integer seed or a sequence of them."""
    return next(_streams([_entropy_words(*np.ravel(np.array(seed, dtype=object)).tolist())]))


def sample_shots(state: ProtocolState, shots: int, seed) -> ShotResult:
    """Deterministic multinomial draw over the premeasure outcome distribution."""
    if state.stage != "premeasure":
        raise ContractError(f"sampling requires a premeasure state, got stage {state.stage!r}")
    if shots < 1:
        raise ContractError("shots must be >= 1")
    entropy = tuple(map(operator.index, np.ravel(np.array(seed, dtype=object)).tolist()))
    probs = np.diag(state.matrix).real.reshape((1,) + state.layout.dims)
    return ShotResult(counts=_multinomial_counts(probs, shots, [shot_rng(entropy)])[0], shots=int(shots), seed=entropy)


def _multinomial_counts(probs: np.ndarray, shots: int, rngs) -> np.ndarray:
    """Counts of ``shots`` draws from each row of probs (N, ...), clipped at 0 and renormalised, by the n-th of rngs."""
    p = np.clip(probs, 0.0, None).reshape(len(probs), -1)
    p = p / p.sum(axis=1, keepdims=True)
    return np.array([rng.multinomial(shots, row) for rng, row in zip(rngs, p)]).reshape(probs.shape)


# The estimators take outcome weights over a premeasure layout, or over a stack
# of them on leading axes: shot counts, or exact outcome probabilities. Each sums
# the raw weights and divides once; over an empty postselection it is 0 / 0 = nan.

def estimate_main_circuit(weights: np.ndarray, e0: int = 0):
    """(c_hat, p0_hat, t1_hat) from weights over S' (x) S (x) E.

    c_hat: mean sign of S'; p0_hat: share of E = e0; t1_hat: mean sign of
    S' over the E = e0 outcomes.
    """
    signed = weights[..., 0, :, :] - weights[..., 1, :, :]
    n_e0 = weights[..., e0].sum(axis=(-2, -1))
    n = weights.sum(axis=(-3, -2, -1))
    return signed.sum(axis=(-2, -1)) / n, n_e0 / n, signed[..., e0].sum(axis=-1) / n_e0


def estimate_nested_circuit(weights: np.ndarray, e0: int = 0):
    """Mean of sign(S2') * [E2 = e0] over the E1 = e0 outcomes of S2' (x) S' (x) S (x) E1 (x) E2."""
    kept = weights[..., e0, :]
    both = kept[..., e0].sum(axis=-1)   # over S, one entry per (S2', S')
    return (both[..., 0, :].sum(axis=-1) - both[..., 1, :].sum(axis=-1)) / kept.sum(axis=(-4, -3, -2, -1))
