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
SINGULAR_CUTOFF = 1e-12       # eigenvalues at or below this count as zero
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
SLICE_ENTRIES = 1 << 13       # entries of a stack that a sliced step's temporaries hold at once (128 KB complex)


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


def _row_slices(rows: np.ndarray) -> list[slice]:
    """Slices of consecutive rows of a nonempty stack, each of at most SLICE_ENTRIES entries (or of one row)."""
    step = max(1, SLICE_ENTRIES // rows[0].size)
    return [slice(k, k + step) for k in range(0, len(rows), step)]


def _hermitian_check(rows: np.ndarray, name: str, atol: float = HERMITIAN_ATOL):
    err = (np.abs(rows - dag(rows)).max(axis=(1, 2), initial=0.0) if rows.size <= SLICE_ENTRIES else   # max is exact
           np.concatenate([np.abs(rows[s] - dag(rows[s])).max(axis=(1, 2), initial=0.0) for s in _row_slices(rows)]))
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


def _no_jump_factors(v0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(V_0^-1, the unitary polar factor U_V, lowest) of each matrix of a stack v0 (N, d, d), from one SVD
    V_0 = U S W^dag: V_0^-1 = W S^-1 U^dag, U_V = U W^dag and lowest = S_min^2, the least eigenvalue of V_0^dag V_0.

    The other inverses are products of these: (V_0^dag V_0)^-1 = V_0^-1 V_0^-dag
    and (V_0 V_0^dag)^-1 = V_0^-dag V_0^-1. A row with lowest <= SINGULAR_CUTOFF
    has no inverse: _invertible_factors raises its error, or a caller with
    earlier checks raises _singular_rows' after them, so its S is clamped to
    keep the row finite.
    """
    u, s, wh = np.linalg.svd(v0)
    v0_inv = (dag(wh) / np.maximum(s, SINGULAR_CUTOFF)[..., None, :]) @ dag(u)
    return v0_inv, u @ wh, s[..., -1] ** 2


def _singular_rows(lowest: np.ndarray, message: str):
    """The _raise_first_failure check of the rows whose lowest (of _no_jump_factors) is at or below SINGULAR_CUTOFF."""
    return lowest <= SINGULAR_CUTOFF, lambda n: SingularOperator(message, eigenvalue=float(lowest[n]))


def _invertible_factors(v0: np.ndarray, label=None, message: str = "matrix is singular, inverse undefined"):
    """_no_jump_factors(v0), a singular row raising SingularOperator(message), labelled as by _raise_first_failure."""
    factors = _no_jump_factors(v0)
    _raise_first_failure([_singular_rows(factors[2], message)], label)
    return factors


def hermitian_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian matrix; SingularOperator if any eigenvalue is ~0."""
    w, v = np.linalg.eigh(require_hermitian(m))
    nearest = w[np.abs(w).argmin()]
    if abs(nearest) <= SINGULAR_CUTOFF:
        raise SingularOperator("matrix is singular, inverse undefined", eigenvalue=float(nearest))
    return (v / w) @ dag(v)
