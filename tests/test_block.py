"""Block precoding: S symbols in one call against S single-symbol calls.

Every per-symbol quantity of a block is computed by the same operations as
for a block of one, so outputs and reports must match bitwise, including
when symbols stop at different iterations and leave the block early.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specprecode
from specprecode import (AdmmConfig, DataGrid, EsspConfig, EvmConstraint, SspConfig,
                         admm_precode, eadmm_precode, essp_precode, oobe_power, ssp_precode)
from specprecode.constrained import _essp_block
from specprecode.unconstrained import (_BandDeviations, _SpanDeviations, _row_products,
                                       consensus_admm)

from conftest import qpsk_grid, random_kernel


def make_block(seed, n_sym, n_tx, m_pts, mask_scale=(0.05, 0.3)):
    """A random kernel, an (S, n_tx, N) QPSK block and mask bounds at a
    random fraction of the block's weakest row level per point."""
    rng = np.random.default_rng(seed)
    kern = random_kernel(rng, m_pts)
    num = kern.numerology
    block = DataGrid(np.stack([qpsk_grid(num, n_tx, seed=1000 * seed + s).symbols
                               for s in range(n_sym)]), num)
    level = oobe_power(block, kern).min(axis=(0, 2))
    gamma = rng.uniform(*mask_scale, m_pts) * level
    return rng, kern, block, gamma


def budget(rng, kind, num):
    if kind == "wideband":
        return EvmConstraint(mode="wideband", eps_avg=float(rng.uniform(0.05, 0.6)))
    return EvmConstraint(mode="frequency_selective", eps=rng.uniform(0.05, 0.6, num.n_active))


def same_report(block_rep, single_rep):
    assert block_rep.iterations == single_rep.iterations
    assert block_rep.stopped_early == single_rep.stopped_early
    assert block_rep.returned_iteration == single_rep.returned_iteration
    for name in ("evm_trace", "oob_trace", "primal_trace", "dual_trace"):
        assert np.array_equal(getattr(block_rep, name), getattr(single_rep, name)), name
    if single_rep.multipliers is not None:
        assert np.array_equal(block_rep.multipliers, single_rep.multipliers)


def check_invariants(block, out, kern, evm=None):
    """Guard bins stay exactly zero and no symbol exceeds its budget."""
    guard = ~block.numerology.active_mask()
    assert not out.symbols[..., guard].any()
    if evm is not None:
        for ref, sym in zip(block.symbols, out.symbols):
            assert evm.violation(block.with_symbols(ref), sym) == 0.0


def run_block_and_singles(precode, block):
    """precode(grid) on the block and on each of its symbols alone."""
    out, reports = precode(block)
    assert len(reports) == block.symbols.shape[0]
    for s, sym in enumerate(block.symbols):
        one_out, one_rep = precode(block.with_symbols(sym))
        assert np.array_equal(out.symbols[s], one_out.symbols)
        same_report(reports[s], one_rep)
    return out, reports


sizes = dict(seed=st.integers(0, 2**16), n_sym=st.integers(1, 7),
             n_tx=st.integers(1, 3), m_pts=st.integers(1, 8))


class TestBlockInvariance:
    @settings(max_examples=20, deadline=None)
    @given(**sizes, sweeps=st.integers(1, 4))
    def test_ssp(self, seed, n_sym, n_tx, m_pts, sweeps):
        _, kern, block, gamma = make_block(seed, n_sym, n_tx, m_pts, (0.05, 1.5))
        cfg = SspConfig(sweeps=sweeps)

        def precode(grid):
            vals, rep = ssp_precode(grid.symbols, kern, gamma, cfg)
            return grid.with_symbols(vals), rep
        out, _ = run_block_and_singles(precode, block)
        check_invariants(block, out, kern)

    @settings(max_examples=15, deadline=None)
    @given(**sizes, tol=st.sampled_from([None, 1e-2, 1e-3]))
    def test_admm(self, seed, n_sym, n_tx, m_pts, tol):
        _, kern, block, gamma = make_block(seed, n_sym, n_tx, m_pts, (0.05, 1.5))
        cfg = AdmmConfig(iters=60, residual_tol=tol)

        def precode(grid):
            vals, rep = admm_precode(grid.symbols, kern, gamma, cfg)
            return grid.with_symbols(vals), rep
        out, _ = run_block_and_singles(precode, block)
        check_invariants(block, out, kern)

    @settings(max_examples=15, deadline=None)
    @given(**sizes, kind=st.sampled_from(["wideband", "frequency_selective"]),
           tol=st.sampled_from([None, 1e-2]))
    def test_eadmm(self, seed, n_sym, n_tx, m_pts, kind, tol):
        rng, kern, block, gamma = make_block(seed, n_sym, n_tx, m_pts)
        evm = budget(rng, kind, kern.numerology)
        cfg = AdmmConfig(iters=40, residual_tol=tol)
        out, _ = run_block_and_singles(
            lambda grid: eadmm_precode(grid, kern, gamma, evm, cfg), block)
        check_invariants(block, out, kern, evm)

    @settings(max_examples=15, deadline=None)
    @given(**sizes, kind=st.sampled_from(["wideband", "frequency_selective"]),
           early_stop=st.booleans())
    def test_essp(self, seed, n_sym, n_tx, m_pts, kind, early_stop):
        rng, kern, block, gamma = make_block(seed, n_sym, n_tx, m_pts)
        evm = budget(rng, kind, kern.numerology)
        cfg = EsspConfig(outer_iters=8, early_stop=early_stop)
        out, _ = run_block_and_singles(
            lambda grid: essp_precode(grid, kern, gamma, evm, cfg), block)
        check_invariants(block, out, kern, evm)


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRowProducts:
    """The solvers form their O(M n) products as one GEMM over a block's
    rows (_row_products); a row's result must not depend on how it is held
    or batched, on the rows beside it or on the number of BLAS threads."""

    @staticmethod
    def check_rows(x, mat, splits):
        """Each row of x alone, as a view, a copy, a row of a wider array
        and a row with stride 2, every leading row count and every split
        in ``splits`` give the bits of the whole block's product."""
        n_rows = len(x)
        block = _row_products(x, mat)
        wide = np.zeros((n_rows, x.shape[1] + 3), dtype=complex)
        wide[:, 1:-2] = x
        held = wide[:, 1:-2]                      # rows of a wider array
        spread = np.repeat(x, 2, axis=1)[:, ::2]  # rows with stride 2
        for j in range(n_rows):
            for row in (x[j], x[j:j + 1], x[j].copy(), held[j], held[j:j + 1], spread[j]):
                assert np.array_equal(_row_products(row, mat).reshape(-1), block[j])
        for count in range(1, n_rows + 1):
            assert np.array_equal(_row_products(x[:count], mat), block[:count])
            assert np.array_equal(_row_products(x[n_rows - count:], mat), block[n_rows - count:])
        for split in splits:
            parts = [_row_products(x[i:i + split], mat) for i in range(0, n_rows, split)]
            assert np.array_equal(np.concatenate(parts), block)
        if n_rows % 2 == 0:
            stacked = _row_products(x.reshape(n_rows // 2, 2, -1), mat)
            assert np.array_equal(stacked.reshape(block.shape), block)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m_pts=st.integers(1, 8),
           n_rows=st.integers(1, 40))
    def test_rows_alone_as_views_copies_and_in_blocks(self, seed, n, m_pts, n_rows):
        rng = np.random.default_rng(seed)
        a_rows = cplx(rng, m_pts, n)
        # c0 = U^H d against a_rows.T (n x M), and the primal and stationarity
        # products against the conjugate rows (M x n)
        for x, mat in ((cplx(rng, n_rows, n), a_rows.T),
                       (cplx(rng, n_rows, m_pts), a_rows.conj())):
            self.check_rows(x, mat, (1, n_rows // 2 or 1))

    @pytest.mark.parametrize("n", [9, 300, 512])
    @pytest.mark.parametrize("m_pts", [8, 9])
    def test_run_widths_every_row_count_and_split(self, n, m_pts):
        # the widths of a run: the span coefficients (M + 1), the active
        # band and the full FFT; 128 rows are more than one GEMM takes at
        # n = 300 and 512 (metrics._SERIAL_GEMM), so the pieces and the
        # recomputed last rows are checked as well
        rng = np.random.default_rng(10 * n + m_pts)
        a_rows = cplx(rng, m_pts, n)
        for x, mat in ((cplx(rng, 128, n), a_rows.T), (cplx(rng, 128, m_pts), a_rows.conj())):
            self.check_rows(x, mat, range(1, 129))

    def test_bits_do_not_depend_on_the_blas_threads(self, tmp_path):
        # a block of 128 rows at n = 300 under two BLAS threads, in a fresh
        # interpreter, against this process's one thread
        rng = np.random.default_rng(3)
        a_rows = cplx(rng, 8, 300)
        cases = [(cplx(rng, 128, 300), a_rows.T), (cplx(rng, 128, 8), a_rows.conj())]
        np.savez(tmp_path / "in.npz", *[arr for case in cases for arr in case])
        code = ("import numpy as np, sys\n"
                "from specprecode.metrics import _row_products\n"
                "arrs = list(np.load(sys.argv[1]).values())\n"
                "out = [_row_products(x, m) for x, m in zip(arrs[::2], arrs[1::2])]\n"
                "np.savez(sys.argv[2], *out)\n")
        src = str(Path(specprecode.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")]
                                                       if p]))
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "in.npz"),
                        str(tmp_path / "out.npz")], env=env, check=True, timeout=120)
        two = list(np.load(tmp_path / "out.npz").values())
        for (x, mat), other in zip(cases, two, strict=True):
            assert np.array_equal(_row_products(x, mat), other)


class TestOobePowerRows:
    """oobe_power forms |A x|^2 with the solvers' per-row products; a row's
    powers must not depend on how it is held or batched, or on whether it
    comes full width or as the active band."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m_pts=st.integers(1, 8), n_rows=st.integers(1, 40))
    def test_rows_alone_as_views_copies_in_blocks_and_on_the_band(self, seed, m_pts, n_rows):
        rng = np.random.default_rng(seed)
        kern = random_kernel(rng, m_pts)
        num = kern.numerology
        x = np.zeros((n_rows, num.fft_size), dtype=complex)
        x[:, num.active_bins] = (rng.standard_normal((n_rows, num.n_active))
                                 + 1j * rng.standard_normal((n_rows, num.n_active)))
        block = oobe_power(x, kern)                   # (M, n_rows)
        band = x[:, num.band_bins]
        wide = np.zeros((n_rows, num.fft_size + 3), dtype=complex)
        wide[:, 1:-2] = x
        held = wide[:, 1:-2]                          # rows of a wider array
        spread = np.repeat(x, 2, axis=1)[:, ::2]      # rows with stride 2
        for j in range(n_rows):
            for row in (x[j], x[j:j + 1], x[j].copy(), held[j], held[j:j + 1], spread[j],
                        band[j], band[j:j + 1]):
                assert np.array_equal(oobe_power(row, kern).reshape(-1), block[:, j])
        assert np.array_equal(oobe_power(band, kern), block)
        for split in (1, n_rows // 2 or 1):
            parts = [oobe_power(x[i:i + split], kern) for i in range(0, n_rows, split)]
            assert np.array_equal(np.concatenate(parts, axis=1), block)
        if n_rows % 2 == 0:
            stacked = oobe_power(x.reshape(2, n_rows // 2, -1), kern)
            assert np.array_equal(np.concatenate(list(stacked), axis=1), block)


class TestStopsWithinABlock:
    """Blocks whose symbols stop at different iterations (the cases the
    property tests reach only by chance)."""

    def test_essp_early_stops_at_different_iterations(self):
        # symbols of this block stop after 2, 4 and 6 outer iterations, and
        # three run all 10
        _, kern, block, gamma = make_block(13, 7, 2, 4)
        evm = EvmConstraint(mode="wideband", eps_avg=0.05)
        cfg = EsspConfig(outer_iters=10)
        out, reports = run_block_and_singles(
            lambda grid: essp_precode(grid, kern, gamma, evm, cfg), block)
        stops = {rep.iterations for rep in reports if rep.stopped_early}
        assert len(stops) >= 3 and any(not rep.stopped_early for rep in reports)
        # a symbol that stops returns the iterate before, one that runs out the last
        for rep in reports:
            assert rep.returned_iteration == rep.iterations - rep.stopped_early
        check_invariants(block, out, kern, evm)

        # cut to 4 iterations, the symbols that stop at 4 stop on the last
        # one: stopped_early is False, yet they return iterate 3, as in the
        # full run
        assert 4 in stops
        cut, short = essp_precode(block, kern, gamma, evm, EsspConfig(outer_iters=4))
        for s, (rep, full_rep) in enumerate(zip(short, reports)):
            if full_rep.iterations <= 4:
                assert rep.iterations == full_rep.iterations
                assert rep.returned_iteration == full_rep.returned_iteration
                assert np.array_equal(cut.symbols[s], out.symbols[s])
            else:
                assert not rep.stopped_early
                assert rep.returned_iteration == rep.iterations == 4
        assert any(rep.returned_iteration == 3 and not rep.stopped_early for rep in short)

        _, nostop = essp_precode(block, kern, gamma, evm,
                                 EsspConfig(outer_iters=10, early_stop=False))
        for rep in nostop:
            assert not rep.stopped_early
            assert rep.iterations == rep.returned_iteration == 10

    def test_essp_selective_stops_at_different_iterations(self):
        # under a flat 5% per-subcarrier budget the band form's per-column
        # balls leave the block as its symbols stop, after 3, 5, 6, 7 and 9
        # outer iterations; the others run all 10
        _, kern, block, gamma = make_block(1, 7, 2, 4)
        evm = EvmConstraint(mode="frequency_selective",
                            eps=np.full(kern.numerology.n_active, 0.05))
        cfg = EsspConfig(outer_iters=10)
        out, reports = run_block_and_singles(
            lambda grid: essp_precode(grid, kern, gamma, evm, cfg), block)
        assert {rep.iterations for rep in reports if rep.stopped_early} == {3, 5, 6, 7, 9}
        assert any(not rep.stopped_early for rep in reports)
        for rep in reports:
            assert rep.returned_iteration == rep.iterations - rep.stopped_early
        check_invariants(block, out, kern, evm)

    def test_eadmm_selective_stops_at_different_iterations(self):
        _, kern, block, gamma = make_block(0, 6, 2, 3)
        evm = EvmConstraint(mode="frequency_selective",
                            eps=np.full(kern.numerology.n_active, 1.0))
        cfg = AdmmConfig(iters=300, residual_tol=1e-3)
        out, reports = run_block_and_singles(
            lambda grid: eadmm_precode(grid, kern, gamma, evm, cfg), block)
        assert all(rep.stopped_early and 12 <= rep.iterations <= 21 for rep in reports)
        assert len({rep.iterations for rep in reports}) >= 3
        check_invariants(block, out, kern, evm)

    @pytest.mark.parametrize("solver", ["admm", "eadmm"])
    def test_residual_tol_stops_at_different_iterations(self, solver):
        _, kern, block, gamma = make_block(3, 6, 2, 3)
        cfg = AdmmConfig(iters=300, residual_tol=1e-3)
        if solver == "admm":
            def precode(grid):
                vals, rep = admm_precode(grid.symbols, kern, gamma, cfg)
                return grid.with_symbols(vals), rep
            evm = None
        else:
            evm = EvmConstraint(mode="wideband", eps_avg=1.0)

            def precode(grid):
                return eadmm_precode(grid, kern, gamma, evm, cfg)
        out, reports = run_block_and_singles(precode, block)
        assert all(rep.stopped_early for rep in reports)
        assert len({rep.iterations for rep in reports}) >= 3
        check_invariants(block, out, kern, evm)


class TestReportLeakage:
    """The reports take |A x|^2 from the solvers' own products;
    oobe_power stays the definition they are checked against."""

    @pytest.mark.parametrize("solver", ["admm", "eadmm", "ssp"])
    def test_matches_oobe_power(self, solver):
        _, kern, block, gamma = make_block(11 if solver == "ssp" else 12, 4, 2, 6)
        if solver == "admm":
            vals, reports = admm_precode(block.symbols, kern, gamma, AdmmConfig(iters=30))
        elif solver == "ssp":
            vals, reports = ssp_precode(block.symbols, kern, gamma, SspConfig(sweeps=3))
        else:
            evm = EvmConstraint(mode="wideband", eps_avg=0.3)
            out, reports = eadmm_precode(block, kern, gamma, evm, AdmmConfig(iters=30))
            vals = out.symbols
        for sym, rep in zip(vals, reports):
            expect = oobe_power(sym, kern).max(axis=1)
            assert np.abs(rep.oob_trace[-1] - expect).max() <= 1e-12 * expect.max()


class TestStepsLeaveTheirInputs:
    """The EADMM and ESSP steps do their band arithmetic in place, on
    arrays that they own: the input block and every array that a
    deviation form holds (A d, the reference norms, the balls' radii)
    come back bitwise unchanged, also where symbols stop inside the
    block and leave the form."""

    @staticmethod
    def record_forms(monkeypatch):
        """Every deviation form made from now on, with copies of its arrays
        as they were when it was made (by the constructor or by take; a
        call through super() is not the form's making)."""
        forms = []

        def recording(cls, method):
            def wrapped(self, *args, **kwargs):
                made = method(self, *args, **kwargs)
                if type(self) is cls:
                    form = self if made is None else made
                    forms.append((form, {name: value.copy() for name, value in vars(form).items()
                                         if isinstance(value, np.ndarray)}))
                return made
            return wrapped
        for cls in (_BandDeviations, _SpanDeviations):
            for name in ("__init__", "take"):
                monkeypatch.setattr(cls, name, recording(cls, vars(cls)[name]))
        return forms

    # seeds at which some symbols of the block stop and others run on
    @pytest.mark.parametrize("solver, kind, seed", [
        ("eadmm", "wideband", 2), ("eadmm", "frequency_selective", 10),
        ("essp", "wideband", 3), ("essp", "frequency_selective", 3)])
    def test_block_and_forms_unchanged(self, monkeypatch, solver, kind, seed):
        rng, kern, block, gamma = make_block(seed, 6, 2, 4)
        evm = budget(rng, kind, kern.numerology)
        forms = self.record_forms(monkeypatch)
        values = block.symbols.copy()
        if solver == "eadmm":
            _, traces = consensus_admm(values, kern, gamma,
                                       AdmmConfig(iters=60, residual_tol=3e-2), evm)
        else:
            _, traces = _essp_block(values, kern, gamma, EsspConfig(outer_iters=8), evm)
        assert np.array_equal(values, block.symbols)
        # some symbols stopped inside the block, so their forms were taken
        assert traces.stopped.any() and len(set(traces.iterations)) > 1
        assert len(forms) > 1 and {"ad", "ref_norms", "radii"} <= set(forms[0][1])
        for form, arrays in forms:
            for name, value in arrays.items():
                assert np.array_equal(getattr(form, name), value), name
