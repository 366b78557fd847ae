"""The solvers on the active band, over fuzzed numerologies.

ADMM, EADMM, SSP and ESSP gather the active columns in bin order, iterate
on them and scatter the result back.  Numerologies without a cyclic prefix,
with a single mask point, with points exactly on subcarriers, with
near-coincident points (kernel rows correlated at 0.999 or more) and with
a null at DC (a non-contiguous active set) must keep the solvers'
invariants, and SSP's rank-1-updated dual core must track the
per-coordinate LU solves it replaced, also where ESSP carries it from one
outer iteration to the next.  Bad input gets the error class that the
command line maps to its exit code.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specprecode import (AdmmConfig, ConfigError, DataGrid, DegenerateConstraintError,
                         EsspConfig, EvmConstraint, FrequencyGrid, OfdmNumerology,
                         ScenarioConfig, SpectralKernel, SspConfig, admm_precode, build_kernel,
                         eadmm_precode, ensp_precode, essp_precode, generate_qam_block,
                         nsp_precode, oobe_power, ssp_precode)
from specprecode import constrained, unconstrained
from specprecode.runner import BLOCK_SYMBOLS
from specprecode.unconstrained import ssp_core, ssp_sweep


def band_case(n, cp_len, offsets, seed, m_pts, on_subcarriers, near, n_sym, n_tx):
    """(rng, kernel, grid) from the values that band_cases draws: an N-point
    numerology with the active ``offsets``, m_pts points 1-3 subcarriers
    outside the band, on subcarriers or between them, with one more point
    next to the first where ``near``, and a QPSK block of n_sym symbols on
    n_tx antennas, every random choice from default_rng(seed), which is
    returned as well."""
    num = OfdmNumerology(fft_size=n, cp_len=cp_len, scs_hz=15e3,
                         active_offsets=offsets, prb_size=1)
    rng = np.random.default_rng(seed)
    side = rng.choice([-1, 1], m_pts)
    points = np.where(side < 0, offsets.min(), offsets.max()) + side * rng.integers(1, 4, m_pts)
    if not on_subcarriers:
        points = points + rng.uniform(-0.5, 0.5, m_pts)
    if near:
        points = np.append(points, points[0] + rng.choice([-1, 1]) * rng.uniform(1e-3, 1e-2))
    kernel = build_kernel(num, FrequencyGrid(points=np.unique(points)))
    symbols = np.zeros((n_sym, n_tx, n), dtype=complex)
    bits = rng.integers(0, 2, (2, n_sym, n_tx, offsets.size)) * 2 - 1
    symbols[..., num.active_bins] = (bits[0] + 1j * bits[1]) / np.sqrt(2)
    return rng, kernel, DataGrid(symbols, num)


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
    near = draw(st.booleans())
    case = band_case(n, cp_len, offsets, draw(st.integers(0, 2 ** 32 - 1)),
                     draw(st.integers(1, 6)), draw(st.booleans()), near,
                     draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if near:
        # a row that (numerically) vanishes on the band, as on a subcarrier
        # without a cyclic prefix, has no direction to correlate with
        gram = case[1].gram
        k_diag = np.sqrt(gram.diagonal().real)
        corr = np.abs(gram) / np.outer(k_diag, k_diag)
        assume((corr - np.eye(corr.shape[0])).max() >= 0.999)
    return case


def zero_leakage_case():
    """A draw of band_cases without leakage: N = 8, cp_len = 7, points
    {2, 3} and one QPSK row with d_-1 = -d_0.  Its leakage at point 3 is
    exactly 0, so a bound at a fraction of it is 0, which every solver
    rejects ("mask bounds must be positive")."""
    num = OfdmNumerology(fft_size=8, cp_len=7, scs_hz=15e3,
                         active_offsets=np.array([-1, 0]), prb_size=1)
    kernel = build_kernel(num, FrequencyGrid(points=np.array([2.0, 3.0])))
    symbols = np.zeros((1, 1, 8), dtype=complex)
    symbols[0, 0, num.active_bins] = np.array([-1.0, 1.0]) * (1 + 1j) / np.sqrt(2)
    return np.random.default_rng(0), kernel, DataGrid(symbols, num)


def leakage_levels(grid, kernel):
    """The worst leakage of the block at every point, the scale of the
    mask bounds drawn from it.

    Mask bounds must be positive.  A point whose leakage amplitude is
    below 1e-10 of its Cauchy-Schwarz bound ||u_m|| max ||d_row|| has none
    in exact arithmetic (zero_leakage_case has 2e-31 at point 2 and
    exactly 0 at point 3), and a bound at a fraction of it asks for more
    than the arithmetic resolves, so such a draw is rejected.
    """
    level = oobe_power(grid, kernel).max(axis=(0, 2))
    row_sq = np.max(np.sum(np.abs(grid.symbols) ** 2, axis=-1))
    assume(np.all(level > 1e-20 * kernel.gram.diagonal().real * row_sq))
    return level


def rejected(kernel, run):
    """Whether a kernel row vanishes on the active band, having checked
    that run() then raises DegenerateConstraintError.  Such a row holds
    roundoff alone, as on an integer point without a cyclic prefix, which
    is orthogonal to every subcarrier: its energy on the band is below
    1e-20 of its energy over all N bins.  On the draws of band_cases,
    every other row keeps more than 1e-8 of its energy on the band."""
    full = np.sum(np.abs(kernel.matrix) ** 2, axis=1)
    if not np.any(kernel.gram.diagonal().real < 1e-20 * full):
        return False
    with pytest.raises(DegenerateConstraintError, match="vanishes on the active band"):
        run()
    return True


def precode(solver, grid, kernel, gamma, evm, iters):
    """(output symbols, reports) of one solver, with iters iterations,
    sweeps or outer iterations."""
    if solver == "admm":
        return admm_precode(grid.symbols, kernel, gamma, AdmmConfig(iters=iters))
    if solver == "ssp":
        return ssp_precode(grid.symbols, kernel, gamma, SspConfig(sweeps=iters))
    if solver == "eadmm":
        out, reports = eadmm_precode(grid, kernel, gamma, evm, AdmmConfig(iters=iters))
    else:
        out, reports = essp_precode(grid, kernel, gamma, evm, EsspConfig(outer_iters=iters))
    return out.symbols, reports


def budget(rng, kind, num):
    if kind == "wideband":
        return EvmConstraint(mode="wideband", eps_avg=float(rng.uniform(0.05, 0.6)))
    return EvmConstraint(mode="frequency_selective", eps=rng.uniform(0.05, 0.6, num.n_active))


def reference_dual_sweeps(c0, gram, gamma, sweeps):
    """The dual core as one LU solve per coordinate, the oracle of
    ssp_core and ssp_sweep: coordinate m solves
    (I + K D_{\\m}) [y, Y] = [c0, K[:, m]] for every row, with mu_m left out
    of D, and reads alpha_1 = y_m and alpha_2 = Re Y_m.  Returns the
    multipliers after every sweep."""
    m_pts = gram.shape[0]
    root = np.sqrt(gamma)
    mu = np.maximum((np.abs(c0) / root - 1.0) / gram.diagonal().real, 0.0)
    rhs = np.empty(c0.shape + (2,), dtype=complex)
    rhs[..., 0] = c0
    out = np.empty((sweeps,) + mu.shape)
    for s in range(sweeps):
        for m in range(m_pts):
            others = mu.copy()
            others[..., m] = 0.0
            rhs[..., 1] = gram[:, m]
            sol = np.linalg.solve(np.eye(m_pts) + gram * others[..., None, :], rhs)
            alpha1 = sol[..., m, 0]
            alpha2 = sol[..., m, 1].real
            phi = np.arctan2(alpha1.imag, alpha1.real)
            mu_new = ((alpha1 * np.exp(-1j * phi)).real - root[m]) / (root[m] * alpha2)
            mu[..., m] = np.maximum(mu_new, 0.0)
        out[s] = mu
    return out


SOLVERS = ["admm", "eadmm", "ssp", "essp"]


class TestBandLoop:
    @settings(max_examples=80, deadline=None)
    @given(band_cases(), st.sampled_from(SOLVERS),
           st.sampled_from(["wideband", "frequency_selective"]))
    @example(zero_leakage_case(), "admm", "wideband")
    def test_guard_bins_budget_and_finite(self, case, solver, kind):
        rng, kernel, grid = case
        num = grid.numerology
        gamma = rng.uniform(0.05, 0.5, kernel.n_points) * leakage_levels(grid, kernel)
        # wideband fractions log-uniform over [1e-9, 0.95]: the span form
        # measures ||e|| on coefficients, and the scatter's N-space check
        # must keep every budget, the smallest and the largest included
        evm = (EvmConstraint(mode="wideband",
                             eps_avg=float(np.exp(rng.uniform(np.log(1e-9), np.log(0.95)))))
               if kind == "wideband" else budget(rng, kind, num))
        iters = 30 if solver in ("admm", "eadmm") else 8
        if rejected(kernel, lambda: precode(solver, grid, kernel, gamma, evm, iters)):
            return
        out, reports = precode(solver, grid, kernel, gamma, evm, iters)
        assert np.all(np.isfinite(out))
        assert not out[..., num.guard_bins].any()
        if solver in ("eadmm", "essp"):
            assert evm.violation(grid, out) == 0.0
        if solver == "ssp":
            assert all(np.all(rep.multipliers >= 0.0) for rep in reports)

    @settings(max_examples=80, deadline=None)
    @given(band_cases(), st.sampled_from(SOLVERS))
    def test_feasible_input_is_a_fixed_point(self, case, solver):
        # No set projection moves a feasible input, and every solver returns
        # it bitwise.  ESSP's first Douglas-Rachford reflection is 2 d, so
        # its bounds are set at 5 times the input's leakage.  SSP and ESSP
        # keep mu = 0; ADMM and EADMM keep their deviation from the input at
        # exactly zero, and with it the primal residual.
        rng, kernel, grid = case
        gamma = (5.0 if solver == "essp" else 2.0) * leakage_levels(grid, kernel)
        evm = budget(rng, "frequency_selective", grid.numerology)
        if rejected(kernel, lambda: precode(solver, grid, kernel, gamma, evm, 10)):
            return
        out, reports = precode(solver, grid, kernel, gamma, evm, 10)
        assert np.array_equal(out, grid.symbols)
        if solver == "ssp":
            assert all(np.all(rep.multipliers == 0.0) for rep in reports)
        if solver in ("admm", "eadmm"):
            assert all(np.all(rep.primal_trace == 0.0) for rep in reports)
        assert not out[..., grid.numerology.guard_bins].any()


def span_and_band(run):
    """(span, band): run() with the loop's own choice of deviation form,
    the span coefficients for every problem here, and with the band form
    forced."""
    span = run()
    with mock.patch.object(unconstrained, "_SpanDeviations", unconstrained._BandDeviations):
        band = run()
    return span, band


def check_forms_agree(span, band, level, gamma):
    """Outputs and every trace array of the span form within 1e-12 of the
    band form's, relative to each array's largest entry; the same stop
    iterations, returned iterates and multipliers.

    Both forms form the leakage A x = A d + A e, so the leakage powers are
    compared on the scale of the input's, level.  The residual slots sit at
    roundoff once an iterate settles (SSP's stationarity norm always), so
    they are compared on the scale of the terms they are formed from,
    sqrt(M) rho ||d_s|| with the default rho, as in
    tests/test_unconstrained.py; SSP's complementarity defect
    mu (|c|^2 - gamma) / gamma on the scale of mu |c|^2 / gamma.  An ESSP
    stop may differ only on an exact tie, in the iteration it fired or in
    whether it fired on the last iteration: the run that went on past the
    other's stop kept its leakage totals within 1e-12 of their largest
    from the iterate the other returned on up to the iterate it returned
    itself, so its iterate stood still until then, and the two returned
    iterates' totals agree within 1e-12 of the larger; the traces are then
    compared on the iterations both ran."""
    (out, reports), (ref_out, ref_reports) = span, band
    assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
    for sym, rep, ref in zip(ref_out, reports, ref_reports):
        n = min(rep.iterations, ref.iterations)
        if rep.iterations == ref.iterations:
            assert rep.stopped_early == ref.stopped_early
        ends = [(r.iterations, r.returned_iteration) for r in (rep, ref)]
        if ends[0] != ends[1]:
            longer = (rep, ref)[ends.index(max(ends))]
            totals = longer.oob_trace.sum(axis=1)[max(n - 2, 0):longer.returned_iteration]
            assert n > 1 and np.ptp(totals) <= 1e-12 * totals.max()
            returned = [r.oob_trace[(r.iterations if r.returned_iteration is None
                                     else r.returned_iteration) - 1].sum() for r in (rep, ref)]
            assert abs(returned[0] - returned[1]) <= 1e-12 * max(returned)
        if ref.multipliers is not None:
            assert np.array_equal(rep.multipliers, ref.multipliers)
        residual_scale = AdmmConfig().rho * np.sqrt(len(gamma)) * np.linalg.norm(sym)
        for name in ("evm_trace", "oob_trace", "primal_trace", "dual_trace"):
            got, want = getattr(rep, name)[:n], getattr(ref, name)[:n]
            scale = np.abs(want).max()
            if name == "oob_trace":
                scale = max(scale, level)
            if name in ("primal_trace", "dual_trace"):
                scale = max(scale, residual_scale)
            if name == "dual_trace" and ref.multipliers is not None:
                scale = max(scale, ref.multipliers.max() * (ref.oob_trace / gamma).max())
            assert np.abs(got - want).max() <= 1e-12 * scale, name


class TestSpanForm:
    """Without a budget and under a wideband one the solvers iterate on
    span coefficients; the band form, which frequency-selective budgets
    use, is their reference."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_default_block(self, solver):
        cfg = ScenarioConfig.from_dict({"precoder": solver})
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation,
                                  0, BLOCK_SYMBOLS)
        runs = {"admm": lambda: admm_precode(grid.symbols, kernel, cfg.mask, cfg.admm),
                "ssp": lambda: ssp_precode(grid.symbols, kernel, cfg.mask, cfg.ssp),
                "eadmm": lambda: eadmm_precode(grid, kernel, cfg.mask, cfg.evm_constraint(),
                                               cfg.eadmm),
                "essp": lambda: essp_precode(grid, kernel, cfg.mask, cfg.evm_constraint(),
                                             cfg.essp)}

        def run():
            out, reports = runs[solver]()
            return getattr(out, "symbols", out), reports
        check_forms_agree(*span_and_band(run), oobe_power(grid, kernel).max(), cfg.mask.gamma)

    @settings(max_examples=60, deadline=None)
    @given(band_cases(), st.sampled_from(SOLVERS))
    # an exact tie: both forms run 8 iterations with their leakage totals
    # equal to roundoff, and only the span form's stop fires on the last
    @example(band_case(8, 1, np.array([-1, 0]), seed=2, m_pts=2, on_subcarriers=True, near=True,
                       n_sym=2, n_tx=1), "essp")
    # vanishing rows, which the solvers reject: four of the five kernel rows
    # vanish on the band (K_mm about 1e-31); ESSP once ran there, and its
    # band form stopped on a roundoff rise at iteration 2 and its span form
    # on a real rise at 3
    @example(band_case(32, 0, np.array([-1, 0]), seed=1, m_pts=6, on_subcarriers=True, near=True,
                       n_sym=1, n_tx=1), "essp")
    # two of the three rows vanish (K_mm 5.0e-32 and 2.8e-32 against a
    # full-row energy of 8); SSP once ran there with multipliers of 2.8e31,
    # and the two forms' stationarity norms were 3.3e15 apart
    @example(band_case(8, 0, np.array([-1, 0]), seed=1, m_pts=3, on_subcarriers=True, near=True,
                       n_sym=2, n_tx=2), "ssp")
    def test_band_cases(self, case, solver):
        rng, kernel, grid = case
        level = leakage_levels(grid, kernel)
        gamma = rng.uniform(0.05, 0.5, kernel.n_points) * level
        evm = budget(rng, "wideband", grid.numerology)
        iters = 30 if solver in ("admm", "eadmm") else 8
        if rejected(kernel, lambda: precode(solver, grid, kernel, gamma, evm, iters)):
            return
        check_forms_agree(*span_and_band(
            lambda: precode(solver, grid, kernel, gamma, evm, iters)), level.max(), gamma)


def dense_core(c0, gram, mu):
    """(W, c) = (I + K diag(mu))^(-1) [K | c0] from one dense solve per row."""
    m_pts = gram.shape[0]
    rhs = np.concatenate([np.broadcast_to(gram, c0.shape[:-1] + gram.shape), c0[..., None]],
                         axis=-1)
    sol = np.linalg.solve(np.eye(m_pts) + gram * mu[..., None, :], rhs)
    return sol[..., :m_pts], sol[..., m_pts]


def check_core(mu, core, c0, gram):
    """W and c of the core each within 1e-9 (relative) of the dense solve
    at the core's multipliers."""
    m_pts = gram.shape[0]
    assert core.shape == c0.shape[:-1] + (m_pts, m_pts + 1)
    w_ref, c_ref = dense_core(c0, gram, mu)
    assert np.abs(core[..., :m_pts] - w_ref).max() <= 1e-9 * np.abs(w_ref).max()
    assert np.abs(core[..., m_pts] - c_ref).max() <= 1e-9 * np.abs(c_ref).max()


def check_against_lu_oracle(c0, gram, gamma, sweeps):
    """ssp_core and ``sweeps`` calls of ssp_sweep against the LU oracle,
    sweep by sweep, and the core against the dense solve after the set-up
    and after every sweep; returns the multipliers at set-up and after the
    last sweep."""
    mu, core = ssp_core(c0, gram, gamma)
    check_core(mu, core, c0, gram)
    first = mu
    ref = reference_dual_sweeps(c0, gram, gamma, sweeps)
    for mu_ref in ref:
        mu, core = ssp_sweep(mu, core, gamma)
        assert np.all(mu >= 0.0)
        assert np.abs(mu - mu_ref).max() <= 1e-9 * np.abs(ref).max()
        check_core(mu, core, c0, gram)
    return first, mu


class TestWoodburyCore:
    @settings(max_examples=60, deadline=None)
    @given(band_cases(), st.integers(1, 100))
    def test_matches_lu_oracle(self, case, sweeps):
        rng, kernel, grid = case
        rows = grid.symbols.reshape(-1, grid.symbols.shape[-1])
        c0 = np.einsum("mk,jk->jm", kernel.active_rows, rows)
        gamma = rng.uniform(0.05, 0.5, kernel.n_points) * leakage_levels(grid, kernel)
        check_against_lu_oracle(c0, kernel.gram, gamma, sweeps)

    def test_matches_lu_oracle_where_the_clamp_binds(self):
        # The default scenario's first block, held as (S, n_tx, M) rows: on
        # it, multipliers that start positive end at exactly 0, so the clamp
        # mu = max(., 0) binds under the tracked phase.
        cfg = ScenarioConfig.from_dict({})
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation,
                                  0, BLOCK_SYMBOLS)
        c0 = np.einsum("mk,sjk->sjm", kernel.active_rows, grid.symbols)
        first, last = check_against_lu_oracle(c0, kernel.gram, cfg.mask.gamma, 3)
        assert np.count_nonzero((first > 0.0) & (last == 0.0)) > 0

    @settings(max_examples=30, deadline=None)
    @given(band_cases())
    def test_sweep_leaves_its_arguments_unchanged(self, case):
        rng, kernel, grid = case
        c0 = np.einsum("mk,sjk->sjm", kernel.active_rows, grid.symbols)
        gamma = rng.uniform(0.05, 0.5, kernel.n_points) * leakage_levels(grid, kernel)
        mu, core = ssp_core(c0, kernel.gram, gamma)
        for _ in range(2):          # from the set-up, then from a sweep's output
            mu_copy, core_copy = mu.copy(), core.copy()
            mu_new, core_new = ssp_sweep(mu, core, gamma)
            assert np.array_equal(mu, mu_copy) and np.array_equal(core, core_copy)
            assert mu_new.shape == mu.shape and core_new.shape == core.shape
            mu, core = mu_new, core_new


def recorded_essp(grid, kernel, gamma, evm, cfg):
    """essp_precode with its dual-core calls recorded: (output symbols, the
    number of ssp_core calls, the carried (mu, core) that the last outer
    iteration's sweeps start from, and the (mu, core) they end at)."""
    sweeps = []

    def sweep(mu, core, gamma):
        out = ssp_sweep(mu, core, gamma)
        sweeps.append(((mu, core), out))
        return out

    with mock.patch.object(constrained, "ssp_sweep", sweep), \
            mock.patch.object(constrained, "ssp_core", wraps=ssp_core) as setup:
        out, _ = essp_precode(grid, kernel, gamma, evm, cfg)
    return out.symbols, setup.call_count, sweeps[-cfg.inner_sweeps][0], sweeps[-1][1]


def check_carried_core(start, end, gram):
    """The core at the end of ESSP's last prox against the dense solve at
    its multipliers (check_core), on that prox centre's leakage
    c0 = B c = c + K (mu c), read off the core its sweeps started from."""
    mu, core = start
    c = core[..., -1]
    check_core(*end, c + np.einsum("ij,...j->...i", gram, mu * c), gram)


def cold_first_iterate(grid, kernel, gamma, evm, cfg):
    """ESSP's first iterate with a cold prox: ssp_core and inner_sweeps
    sweeps at the prox centre 2 d, then the step from e_z = -d and the
    ball projection of e_z."""
    bins = kernel.numerology.band_bins
    symbols = grid.symbols.reshape((-1,) + grid.symbols.shape[-2:])
    band = symbols[..., bins]
    mu, core = ssp_core(np.einsum("mk,sjk->sjm", kernel.band_rows, 2.0 * band),
                        kernel.gram, gamma)
    for _ in range(cfg.inner_sweeps):
        mu, core = ssp_sweep(mu, core, gamma)
    dev_y = band - np.einsum("sjm,mk->sjk", mu * core[..., -1], kernel.band_rows.conj())
    out = symbols.copy()
    out[..., bins] += evm.projector(grid, cols=bins)(-band + dev_y)
    return out.reshape(grid.symbols.shape)


class TestEsspCarriedCore:
    """ESSP's prox is the sweep core carried across outer iterations: one
    ssp_core set-up per block, at the first prox centre, and every later
    centre's leakage c0 folded in as c = c0 - W (mu c0)."""

    @pytest.fixture(scope="class")
    def default_block(self):
        """The default scenario's first 30 symbols under its 8 % wideband
        budget, the essp-wideband block."""
        cfg = ScenarioConfig.from_dict({"precoder": "essp"})
        kernel = build_kernel(cfg.numerology, cfg.freq_grid)
        grid = generate_qam_block(cfg.seed, cfg.numerology, cfg.n_tx, cfg.constellation, 0, 30)
        return grid, kernel, cfg.mask.gamma, cfg.evm_constraint()

    def test_one_setup_per_block_and_the_core_stays_exact(self, default_block):
        # 10 outer iterations of 2 sweeps over 8 points: 160 rank-1 updates
        # of every row's carried W
        cfg = EsspConfig(outer_iters=10, inner_sweeps=2, early_stop=False)
        _, setups, start, end = recorded_essp(*default_block, cfg)
        assert setups == 1
        check_carried_core(start, end, default_block[1].gram)

    @settings(max_examples=40, deadline=None)
    @given(band_cases(), st.sampled_from(["wideband", "frequency_selective"]),
           st.integers(1, 10), st.integers(1, 3))
    def test_carried_core_matches_dense_solve(self, case, kind, outer, sweeps):
        rng, kernel, grid = case
        gamma = rng.uniform(0.05, 0.5, kernel.n_points) * leakage_levels(grid, kernel)
        evm = budget(rng, kind, grid.numerology)
        cfg = EsspConfig(outer_iters=outer, inner_sweeps=sweeps, early_stop=False)
        if rejected(kernel, lambda: essp_precode(grid, kernel, gamma, evm, cfg)):
            return
        _, setups, start, end = recorded_essp(grid, kernel, gamma, evm, cfg)
        assert setups == 1
        check_carried_core(start, end, kernel.gram)

    @pytest.mark.parametrize("sweeps", [1, 2])
    def test_first_iteration_matches_a_cold_prox(self, default_block, infeasible_case, sweeps):
        case = infeasible_case
        cfg = EsspConfig(outer_iters=1, inner_sweeps=sweeps, early_stop=False)
        for grid, kernel, gamma, evm in (default_block,
                                         (case.grid, case.kernel, case.gamma, case.evm)):
            out, _ = essp_precode(grid, kernel, gamma, evm, cfg)
            ref = cold_first_iterate(grid, kernel, gamma, evm, cfg)
            assert not np.array_equal(ref, grid.symbols)
            assert np.abs(out.symbols - ref).max() <= 1e-12 * np.abs(ref).max()


class TestErrorClasses:
    """The command line exits with 2 on ConfigError and
    DegenerateConstraintError (tests/test_cli.py runs one case of each)."""

    @settings(max_examples=60, deadline=None)
    @given(band_cases(), st.sampled_from(SOLVERS), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.booleans())
    def test_nonfinite_input(self, case, solver, value, imaginary):
        rng, kernel, grid = case
        # a DataGrid rejects non-finite values, so poison one after it is built
        bad = DataGrid(grid.symbols.copy(), grid.numerology)
        idx = tuple(rng.integers(0, n) for n in bad.symbols.shape[:-1])
        bad.symbols[idx + (rng.choice(grid.numerology.active_bins),)] += (
            1j * value if imaginary else value)
        gamma = rng.uniform(0.05, 0.5, kernel.n_points)
        with pytest.raises(ConfigError, match="non-finite"):
            precode(solver, bad, kernel, gamma, budget(rng, "wideband", grid.numerology), 3)

    @settings(max_examples=60, deadline=None)
    @given(band_cases(), st.sampled_from(SOLVERS), st.data())
    def test_kernel_row_vanishing_on_the_band(self, case, solver, data):
        rng, kernel, grid = case
        num = grid.numerology
        m = data.draw(st.integers(0, kernel.n_points - 1))
        matrix = kernel.matrix.copy()
        matrix[m, num.active_bins] = 0.0
        flat = SpectralKernel(matrix=matrix, freq_grid=kernel.freq_grid, numerology=num)
        gamma = rng.uniform(0.05, 0.5, kernel.n_points)
        with pytest.raises(DegenerateConstraintError):
            precode(solver, grid, flat, gamma, budget(rng, "wideband", num), 3)

    @settings(max_examples=60, deadline=None)
    @given(band_cases(), st.sampled_from(SOLVERS), st.sampled_from([0.0, -1e-30, -1.0]),
           st.data())
    def test_nonpositive_mask_bound(self, case, solver, bound, data):
        rng, kernel, grid = case
        gamma = rng.uniform(0.05, 0.5, kernel.n_points)
        gamma[data.draw(st.integers(0, kernel.n_points - 1))] = bound
        with pytest.raises(ConfigError, match="mask bounds must be positive"):
            precode(solver, grid, kernel, gamma, budget(rng, "wideband", grid.numerology), 3)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("bound", [np.nan, np.inf])
    def test_nonfinite_mask_bound(self, solver, bound):
        rng, kernel, grid = zero_leakage_case()
        evm = budget(rng, "wideband", grid.numerology)
        with pytest.raises(ConfigError, match="mask bounds must be positive and finite"):
            precode(solver, grid, kernel, np.array([1.0, bound]), evm, 3)


class TestForeignInput:
    """The default 512-point kernel rejects input of another numerology
    with ConfigError: rows of another width, for oobe_power any but its
    FFT size and its active band's, and for EADMM and ESSP a DataGrid of
    another FFT size, cyclic prefix or active set, which they would
    otherwise iterate on."""

    ROW_CALLS = {
        "nsp": lambda rows, kernel, mask: nsp_precode(rows, kernel),
        "ensp": lambda rows, kernel, mask: ensp_precode(rows, kernel, 0.08),
        "admm": lambda rows, kernel, mask: admm_precode(rows, kernel, mask),
        "ssp": lambda rows, kernel, mask: ssp_precode(rows, kernel, mask),
        "oobe_power": lambda rows, kernel, mask: oobe_power(rows, kernel),
    }

    @pytest.fixture(scope="class")
    def default(self):
        cfg = ScenarioConfig.from_dict({})
        return cfg, build_kernel(cfg.numerology, cfg.freq_grid)

    @pytest.mark.parametrize("call", sorted(ROW_CALLS))
    @pytest.mark.parametrize("width", [1024, 400])
    def test_rows_of_another_width(self, default, call, width):
        cfg, kernel = default
        with pytest.raises(ConfigError):
            self.ROW_CALLS[call](np.ones((2, width), dtype=complex), kernel, cfg.mask)

    @pytest.mark.parametrize("solver", ["eadmm", "essp"])
    @pytest.mark.parametrize("change", [{"fft_size": 1024}, {"cp_len": 40}, "240 active"],
                             ids=["fft_size", "cp_len", "active_offsets"])
    def test_grid_of_another_numerology(self, default, solver, change):
        cfg, kernel = default
        if change == "240 active":
            change = {"active_offsets": cfg.numerology.active_offsets[30:270]}
        num = replace(cfg.numerology, **change)
        grid = generate_qam_block(cfg.seed, num, cfg.n_tx, cfg.constellation, 0, 2)
        evm = EvmConstraint(mode="wideband", eps_avg=0.08)
        with pytest.raises(ConfigError, match="numerology"):
            precode(solver, grid, kernel, cfg.mask.gamma, evm, 3)
