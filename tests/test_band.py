"""The consensus loop on the active band, over fuzzed numerologies.

ADMM and EADMM gather the active columns in bin order, iterate on them and
scatter the result back.  Numerologies without a cyclic prefix, with a
single mask point, with points exactly on subcarriers and with a null at
DC (a non-contiguous active set) must keep the solvers' invariants.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from specprecode import (AdmmConfig, DataGrid, EvmConstraint, FrequencyGrid, OfdmNumerology,
                         admm_precode, build_kernel, eadmm_precode, oobe_power)

EPS = np.finfo(float).eps


@st.composite
def band_cases(draw):
    """A numerology, a kernel, a QPSK block and a random generator."""
    n = draw(st.integers(8, 64))
    cp_len = draw(st.sampled_from([0, draw(st.integers(1, n - 1))]))
    n_active = draw(st.integers(2, n - 4))
    first = -(n_active // 2)
    offsets = np.arange(first, first + n_active)
    if draw(st.booleans()) and offsets.size > 2:
        offsets = offsets[offsets != 0]                # a null at DC
    num = OfdmNumerology(fft_size=n, cp_len=cp_len, scs_hz=15e3,
                         active_offsets=offsets, prb_size=1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m_pts = draw(st.integers(1, 6))
    # points 1-3 subcarriers outside the band, on subcarriers or between them
    side = rng.choice([-1, 1], m_pts)
    points = np.where(side < 0, offsets.min(), offsets.max()) + side * rng.integers(1, 4, m_pts)
    if not draw(st.booleans()):
        points = points + rng.uniform(-0.5, 0.5, m_pts)
    kernel = build_kernel(num, FrequencyGrid(points=np.unique(points)))
    n_sym = draw(st.integers(1, 4))
    n_tx = draw(st.integers(1, 4))
    symbols = np.zeros((n_sym, n_tx, n), dtype=complex)
    bits = rng.integers(0, 2, (2, n_sym, n_tx, offsets.size)) * 2 - 1
    symbols[..., num.active_bins] = (bits[0] + 1j * bits[1]) / np.sqrt(2)
    return rng, kernel, DataGrid(symbols, num)


def precode(solver, grid, kernel, gamma, evm, cfg):
    if solver == "admm":
        return admm_precode(grid.symbols, kernel, gamma, cfg)
    out, reports = eadmm_precode(grid, kernel, gamma, evm, cfg)
    return out.symbols, reports


def budget(rng, kind, num):
    if kind == "wideband":
        return EvmConstraint(mode="wideband", eps_avg=float(rng.uniform(0.05, 0.6)))
    return EvmConstraint(mode="frequency_selective", eps=rng.uniform(0.05, 0.6, num.n_active))


class TestBandLoop:
    @settings(max_examples=60, deadline=None)
    @given(band_cases(), st.sampled_from(["admm", "eadmm"]),
           st.sampled_from(["wideband", "frequency_selective"]))
    def test_guard_bins_budget_and_finite(self, case, solver, kind):
        rng, kernel, grid = case
        num = grid.numerology
        level = oobe_power(grid, kernel).max(axis=(0, 2))
        gamma = rng.uniform(0.05, 0.5, kernel.n_points) * level
        evm = budget(rng, kind, num)
        out, _ = precode(solver, grid, kernel, gamma, evm, AdmmConfig(iters=30))
        assert np.all(np.isfinite(out))
        assert not out[..., num.guard_bins].any()
        if solver == "eadmm":
            for ref, sym in zip(grid.symbols, out):
                assert evm.violation(grid.with_symbols(ref), sym) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(band_cases(), st.sampled_from(["admm", "eadmm"]))
    def test_feasible_input_is_a_fixed_point(self, case, solver):
        # no set projection moves a feasible input: the primal residual is
        # exactly zero, and the consensus average of M equal local
        # variables gives the input back up to the rounding of that mean
        rng, kernel, grid = case
        gamma = 2.0 * oobe_power(grid, kernel).max(axis=(0, 2))
        evm = budget(rng, "frequency_selective", grid.numerology)
        out, reports = precode(solver, grid, kernel, gamma, evm, AdmmConfig(iters=10))
        assert all(np.all(rep.primal_trace == 0.0) for rep in reports)
        assert np.abs(out - grid.symbols).max() <= 8 * EPS
        assert not out[..., grid.numerology.guard_bins].any()
