"""Dense complex linear algebra on small Hilbert spaces.

Matrices are plain ``numpy.ndarray`` of dtype complex128, row-major. The tensor
order convention is fixed globally: the first factor of a layout is the
slowest-varying (leftmost) Kronecker factor. TUR computations use R (x) S (x) E;
protocol circuits use S' (x) S (x) E with further environments appended.

All operations are pure functions; nothing here mutates its arguments. kron is
the package's one Kronecker product, of vectors, matrices and stacks of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, LayoutError, SingularOperator

# Tolerances (absolute, entrywise max-norm unless stated). All quantities in
# this package are O(1), so absolute comparisons are appropriate.
HERMITIAN_ATOL = 1e-10
UNITARY_ATOL = 1e-10
EIGENVALUE_GROUP_TOL = 1e-9   # degenerate eigenvalues closer than this share a projector
SINGULAR_CUTOFF = 1e-12       # eigenvalues at or below this count as zero
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of a matrix or of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ContractError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise ContractError(f"{name} must be square, got shape {m.shape}")
    return m


def _raise_first_failure(checks, label=None) -> None:
    """Raise the error of the lowest failing row at its first failing check. ``checks`` lists (failed mask over the
    rows, error factory taking a row index) in check order; label(row), if given, prefixes the message, and by
    default the row index does if there are several rows."""
    # as lists: numpy's any and argmax cost more than the check itself on the one-row masks of scalar calls
    hits = [(rows.index(True), k) for k, rows in enumerate(failed.tolist() for failed, _ in checks) if True in rows]
    if hits:
        n, k = min(hits)
        exc = checks[k][1](n)
        if label is not None:
            exc.args = (f"{label(n)}: {exc.args[0]}",)
        elif len(checks[k][0]) > 1:
            exc.args = (f"row {n}: {exc.args[0]}",)
        raise exc


def _square_rows(m: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray, Callable | None]:
    """(m, m as a stack, the row label of its failures): m is a square matrix or a stack (N, d, d) of them."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 3 and m.shape[1] == m.shape[2]:
        return m, m, lambda n: f"row {n}"
    return m, require_square(m, name)[None], None


def _hermitian_check(rows: np.ndarray, name: str, atol: float = HERMITIAN_ATOL):
    err = np.abs(rows - dag(rows)).max(axis=(1, 2), initial=0.0)
    return err > atol, lambda n: ContractError(f"{name} is not Hermitian: max |M - M^dag| = {err[n]:.3e} > {atol:.1e}")


def require_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL, name: str = "matrix") -> np.ndarray:
    """m checked Hermitian; a stack (N, d, d) raises the message of its first failing row, with the row index."""
    m, rows, label = _square_rows(m, name)
    _raise_first_failure([_hermitian_check(rows, name, atol)], label)
    return m


def _unitary_check(rows: np.ndarray, atol: float, name: str):
    err = np.abs(dag(rows) @ rows - np.eye(rows.shape[-1])).max(axis=(1, 2), initial=0.0)
    return err > atol, lambda n: ContractError(f"{name} is not unitary: max |M^dag M - I| = {err[n]:.3e} > {atol:.1e}")


def require_unitary(m: np.ndarray, atol: float = UNITARY_ATOL, name: str = "matrix") -> np.ndarray:
    """m checked unitary, or each matrix of a stack as require_hermitian."""
    m, rows, label = _square_rows(m, name)
    _raise_first_failure([_unitary_check(rows, atol, name)], label)
    return m


def require_density(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate a density matrix, or each of a stack as require_hermitian: Hermitian, PSD and trace one."""
    rho, rows, label = _square_rows(rho, name)
    tr = np.trace(rows, axis1=1, axis2=2)
    lo = np.linalg.eigvalsh(rows)[:, 0]
    _raise_first_failure([
        _hermitian_check(rows, name),
        (np.abs(tr - 1.0) > TRACE_ATOL,
         lambda n: ContractError(f"{name} must have unit trace, got {complex(tr[n]):.12g}")),
        (lo < -PSD_ATOL, lambda n: ContractError(f"{name} is not positive semidefinite: min eigenvalue {lo[n]:.3e}")),
    ], label)
    return rho


def basis_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product (``a`` slow) of two vectors or two (broadcast stacks of) matrices, bitwise numpy's kron."""
    # The operands take numpy's kron shapes, of equal rank: numpy multiplies complex arrays in a
    # SIMD (FMA) loop or a scalar one by operand layout, and the two can differ in the last bit.
    if a.ndim == 1 and b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    if a.ndim != b.ndim:
        a, b = (x.reshape((1,) * (max(a.ndim, b.ndim) - x.ndim) + x.shape) for x in (a, b))
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def outer(v: np.ndarray) -> np.ndarray:
    """|v><v|, of a vector or of each row of a stack (N, D); np.outer's bits."""
    return v[..., :, None] * v.conj()[..., None, :]


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered tensor factors of a composite space; ``dims[0]`` is the slowest-varying (leftmost) Kronecker factor."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise LayoutError(f"factor dimensions must be positive, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def nfactors(self) -> int:
        return len(self.dims)

    def require_matches(self, m: np.ndarray) -> np.ndarray:
        m = require_square(m, "matrix")
        if m.shape[0] != self.dim:
            raise LayoutError(f"matrix dimension {m.shape[0]} != layout product {self.dim} {self.dims}")
        return m


def partial_trace(m: np.ndarray, layout: SubsystemLayout, keep: Iterable[int]) -> np.ndarray:
    """Trace out all factors not in ``keep``; kept factors stay in layout order."""
    m = layout.require_matches(m)
    n = layout.nfactors
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= n for k in keep):
        raise LayoutError(f"keep indices {keep} out of range for {n} factors")
    traced = [i for i in range(n) if i not in keep]
    t = m.reshape(layout.dims + layout.dims)
    nrow = n
    for f in sorted(traced, reverse=True):
        t = np.trace(t, axis1=f, axis2=f + nrow)
        nrow -= 1
    d = prod(layout.dims[k] for k in keep) if keep else 1
    return np.asarray(t).reshape(d, d)


def embed_operator(u: np.ndarray, dims: Sequence[int], positions: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on the given factors (ascending, possibly nonadjacent).

    ``u`` must act on the tensor product of ``dims[p]`` for p in ``positions``,
    in that order; identity everywhere else.
    """
    dims = tuple(int(d) for d in dims)
    positions = tuple(int(p) for p in positions)
    n = len(dims)
    if sorted(set(positions)) != list(positions):
        raise LayoutError(f"positions must be strictly ascending, got {positions}")
    if positions and (positions[0] < 0 or positions[-1] >= n):
        raise LayoutError(f"positions {positions} out of range for {n} factors")
    u = require_square(u, "embedded operator")
    dop = prod(dims[p] for p in positions)
    if u.shape[0] != dop:
        raise LayoutError(f"operator dim {u.shape[0]} != product of target dims {dop}")
    rest = [i for i in range(n) if i not in positions]
    drest = prod(dims[r] for r in rest) if rest else 1
    full = kron(u, np.eye(drest, dtype=complex))
    # kron axis order: (targets..., rest...) on both row and column sides.
    tdims = [dims[p] for p in positions] + [dims[r] for r in rest]
    t = full.reshape(tdims + tdims)
    src = list(positions) + rest  # register axis -> current axis position
    perm = [src.index(i) for i in range(n)]
    t = t.transpose(perm + [n + p for p in perm])
    d = prod(dims)
    return t.reshape(d, d)


def _spectra(m: np.ndarray) -> list:
    """Spectral decompositions of each matrix of a stack (N, d, d), Hermitian up to rounding (it is symmetrised).

    Eigenvalues run descending, and neighbours closer than EIGENVALUE_GROUP_TOL
    share one projector and their mean. Lists each pattern of groups that
    occurs with its rows, the group means (one (n,) array per group) and the
    projectors (one (n, d, d) array per group).
    """
    w, v = np.linalg.eigh((m + dag(m)) / 2.0)
    w, v = w[..., ::-1], v[..., ::-1]
    rows_of: dict[tuple, list[int]] = {}
    for n, splits in enumerate((w[..., :-1] - w[..., 1:] > EIGENVALUE_GROUP_TOL).tolist()):
        rows_of.setdefault(tuple(splits), []).append(n)
    spectra = []
    for splits, rows in rows_of.items():
        edges = [0, *(k + 1 for k, split in enumerate(splits) if split), m.shape[-1]]
        w_k, v_k = (w, v) if len(rows_of) == 1 else (w[rows], v[rows])
        groups = list(zip(edges, edges[1:]))
        # sum / count: np.mean's bits, without its call; the sum of one eigenvalue is that eigenvalue
        means = [w_k[..., i] if j == i + 1 else w_k[..., i:j].sum(axis=-1) / (j - i) for i, j in groups]
        spectra.append((rows, means, [v_k[..., i:j] @ dag(v_k[..., i:j]) for i, j in groups]))
    return spectra


def _spectral_map(spectra: list, f: Callable) -> np.ndarray:
    """sum_k f(z_k) P_k of each row of a stack from its _spectra, f mapping the means (n,) of a group elementwise.

    The one map from which inverses, inverse square roots and square roots are
    taken. Each row equals its one-row call to the last bit only because all
    of them hand numpy the same operand layouts: numpy multiplies complex
    arrays in a SIMD (FMA) loop or in a scalar one by layout, and the two can
    differ in the last bit. The interval half-width sqrt(Xi) turns an ulp of
    Xi near zero into ~1e-8.
    """
    out = np.empty((sum(len(rows) for rows, _, _ in spectra),) + spectra[0][2][0].shape[1:], dtype=complex)
    for rows, values, projectors in spectra:
        out[rows] = sum(f(z)[:, None, None] * p for z, p in zip(values, projectors))
    return out


def _eigenvalue(spectra: list, pick: Callable) -> np.ndarray:
    """pick(z) of each row of a stack from its _spectra, z the group means (k, n) of a pattern's rows, descending."""
    out = np.empty(sum(len(rows) for rows, _, _ in spectra))
    for rows, values, _ in spectra:
        out[rows] = pick(np.array(values))
    return out


def _hermitian_inverses(m, label=None, message: str = "matrix is singular, inverse undefined"):
    """The inverse of each matrix of a stack (N, d, d), Hermitian up to rounding, or of the stack given by its _spectra.

    A row whose eigenvalue nearest zero is within SINGULAR_CUTOFF of it raises
    SingularOperator(message), labelled as by _raise_first_failure.
    """
    spectra = m if isinstance(m, list) else _spectra(m)
    smallest = _eigenvalue(spectra, lambda z: z[np.abs(z).argmin(axis=0), np.arange(z.shape[1])])   # nearest 0
    _raise_first_failure([(np.abs(smallest) <= SINGULAR_CUTOFF, lambda n: SingularOperator(
        message, eigenvalue=float(smallest[n])))], label)
    return _spectral_map(spectra, lambda z: 1.0 / z)


def hermitian_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian matrix; SingularOperator if any eigenvalue is ~0."""
    return _hermitian_inverses(require_hermitian(m)[None])[0]
