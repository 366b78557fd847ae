"""Shared fixtures: the default scenario, a small grid family, and the
frozen infeasible instance used by the constrained-solver tests.

BLAS runs on one thread unless the environment says otherwise, as in
``bench/`` and ``tools/digest.py``: the products the tests run are small,
and on a few cores a second BLAS thread slows them down.  numpy reads the
setting when it is first imported, which is below.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from specprecode import (DataGrid, EvmConstraint, FrequencyGrid,  # noqa: E402
                         LogBarrierProblem, OfdmNumerology, ScenarioConfig, SpectralKernel,
                         build_kernel, logbarrier_solve)


@pytest.fixture(scope="session")
def default_cfg():
    return ScenarioConfig.from_dict({})


@pytest.fixture(scope="session")
def default_kernel(default_cfg):
    return build_kernel(default_cfg.numerology, default_cfg.freq_grid)


def small_numerology():
    return OfdmNumerology.centered(fft_size=16, cp_len=2, scs_hz=15e3,
                                   n_active=8, prb_size=4)


def qpsk_grid(numerology, n_tx, seed):
    """Deterministic unit-power QPSK fill of the active band."""
    rng = np.random.default_rng(seed)
    sym = np.zeros((n_tx, numerology.fft_size), dtype=complex)
    bits = rng.integers(0, 2, (2, n_tx, numerology.n_active)) * 2 - 1
    sym[:, numerology.active_bins] = (bits[0] + 1j * bits[1]) / np.sqrt(2)
    return DataGrid(symbols=sym, numerology=numerology)


def random_kernel(rng, m_pts):
    """M random complex leakage rows on the small numerology."""
    num = small_numerology()
    matrix = (rng.standard_normal((m_pts, num.fft_size))
              + 1j * rng.standard_normal((m_pts, num.fft_size)))
    grid = FrequencyGrid(points=np.arange(m_pts) + 10.5)
    return SpectralKernel(matrix=matrix, freq_grid=grid, numerology=num)


def total_oob(kernel, values):
    """Total sampled out-of-band power over all points and antennas."""
    proj = np.einsum("mk,jk->mj", kernel.active_rows, np.atleast_2d(values))
    return float(np.sum(np.abs(proj) ** 2))


class InfeasibleCase:
    """A 16-bin, two-point instance whose mask and error budget cannot both
    be met: the budget radius is half the distance from the grid to the mask
    set, so the joint-feasibility scale sits near 2.
    """

    def __init__(self):
        num = small_numerology()
        rng = np.random.default_rng(7)
        sym = np.zeros((1, num.fft_size), dtype=complex)
        bits = rng.integers(0, 2, (2, 1, num.n_active)) * 2 - 1
        sym[:, num.active_bins] = (bits[0] + 1j * bits[1]) / np.sqrt(2)
        self.grid = DataGrid(symbols=sym, numerology=num)

        edge = (num.n_active / 2 + 1.3) * num.scs_hz
        freqs = np.array([edge, edge + 0.95 * num.scs_hz])
        self.kernel = build_kernel(num, FrequencyGrid.from_hz(freqs, num.scs_hz))
        u = self.kernel.active_rows.conj()
        base = np.abs(u.conj() @ sym[0]) ** 2
        self.gamma = base * 0.3 * np.array([1.0, 3.0])

        problem = LogBarrierProblem(objective="least_squares", reference=sym,
                                    rank1=[(u[m], self.gamma[m]) for m in range(2)])
        closest = logbarrier_solve(problem).solution
        dist = float(np.linalg.norm(closest - sym))
        self.eps_fraction = 0.5 * dist / float(np.linalg.norm(sym))
        self.evm = EvmConstraint(mode="wideband", eps_avg=self.eps_fraction)


@pytest.fixture(scope="session")
def infeasible_case():
    return InfeasibleCase()
