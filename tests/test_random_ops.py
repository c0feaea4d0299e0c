"""The stacked ensembles of random_ops: their defining properties, and rows reproducible from one generator state."""

import numpy as np
import pytest

from turlab import random_ops
from turlab.channels import _extract_kraus
from turlab.linalg import UNITARY_ATOL, dag, require_density
from turlab.random_ops import MIN_NO_JUMP_EIG, densities, dilations, haar_unitaries, hermitians


@pytest.mark.parametrize("dim_s, dim_e", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_dilations_are_unitary_and_redraw_only_their_rejected_rows(monkeypatch, dim_s, dim_e):
    """Every row is unitary and its V_0^dag V_0 has no eigenvalue below MIN_NO_JUMP_EIG; each round after the first
    draws only the rows the previous round rejected, and one generator state gives one stack."""
    rounds = []

    def counting(n, dim, rng):
        rounds.append(n)
        return haar_unitaries(n, dim, rng)

    monkeypatch.setattr(random_ops, "haar_unitaries", counting)
    u = dilations(200, dim_s, dim_e, np.random.default_rng(5))
    assert np.abs(dag(u) @ u - np.eye(dim_s * dim_e)).max() <= UNITARY_ATOL
    v0 = _extract_kraus(u, dim_s, dim_e, 0)[:, 0]
    assert np.linalg.eigvalsh(dag(v0) @ v0)[:, 0].min() >= MIN_NO_JUMP_EIG
    assert rounds[0] == 200 and len(rounds) > 1 and all(later < earlier for earlier, later in zip(rounds, rounds[1:]))
    assert np.array_equal(u, dilations(200, dim_s, dim_e, np.random.default_rng(5)))


def test_dilations_give_up_after_max_tries(monkeypatch):
    monkeypatch.setattr(random_ops, "MIN_NO_JUMP_EIG", 1.5)   # above every eigenvalue of V_0^dag V_0
    with pytest.raises(RuntimeError, match=f"in {random_ops.MAX_TRIES} draws"):
        dilations(3, 2, 2, np.random.default_rng(0))


def test_hermitians_are_exactly_hermitian_with_gue_variances():
    """2,000 draws of 10 x 10: 20,000 diagonal entries, 90,000 off-diagonal real and imaginary parts, of variance 1
    and 1/2 and uncorrelated, as in (Z + Z^dag) / 2 of Ginibre Z. The sample variance of N draws of N(0, s2) has
    standard error s2 sqrt(2 / N), the sample mean sqrt(s2 / N), and the mean product of independent N(0, 1/2)
    parts 1 / (2 sqrt(N)); each statistic must lie within five standard errors."""
    h = hermitians(2000, 10, np.random.default_rng(7))
    assert np.array_equal(h, dag(h))
    rows, cols = np.tril_indices(10, -1)
    off = h[:, rows, cols]
    for part, var in [(np.diagonal(h, axis1=1, axis2=2).real, 1.0), (off.real, 0.5), (off.imag, 0.5)]:
        n = part.size
        assert abs(part.mean()) <= 5 * np.sqrt(var / n)
        assert abs(part.var() - var) <= 5 * var * np.sqrt(2 / n)
    assert abs((off.real * off.imag).mean()) <= 5 / (2 * np.sqrt(off.size))


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_densities_have_unit_trace_and_are_psd_of_full_rank(dim):
    rho = require_density(densities(300, dim, np.random.default_rng(11)))
    assert np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0).max() <= 1e-12
    w = np.linalg.eigvalsh(rho)
    assert w.min() >= -1e-12
    assert np.all((w > 1e-10).sum(axis=1) == dim)


@pytest.mark.parametrize("draw", [
    lambda n, rng: haar_unitaries(n, 5, rng),
    lambda n, rng: densities(n, 3, rng),
    lambda n, rng: hermitians(n, 32, rng),   # 8 rows a slice: 20 rows are three slices
], ids=["haar_unitaries", "densities", "hermitians"])
def test_rows_are_the_one_row_draws_of_one_generator_state(draw):
    """A stack of 20 rows is, to the last bit, 20 one-row draws in turn from the same generator state."""
    stacked = draw(20, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    assert np.array_equal(stacked, np.concatenate([draw(1, rng) for _ in range(20)]))
