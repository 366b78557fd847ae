"""Unconstrained mask precoders: consensus ADMM and the dual sweep method."""

import numpy as np
import pytest

from specprecode import (ConfigError, DegenerateConstraintError,
                         EvmConstraint, FrequencyGrid, NumericalError,
                         ScenarioConfig, SpectralKernel, build_kernel,
                         eadmm_precode, essp_precode, generate_qam_grid, oobe_power,
                         project_rank1)
from specprecode import constrained, unconstrained
from specprecode.projections import _project_balls
from specprecode.unconstrained import (AdmmConfig, BlockTraces, FactoredInverse, SolverReport,
                                       SspConfig, admm_precode, mask_bounds, ssp_precode)

from conftest import active_rows, qpsk_grid, random_kernel, small_numerology


@pytest.fixture(scope="module")
def violated_setup():
    """Two leakage points, both above a mask set at 30% of the input level."""
    num = small_numerology()
    kern = build_kernel(num, FrequencyGrid(points=np.array([5.3, 6.25])))
    grid = qpsk_grid(num, 2, seed=21)
    lev = np.max(np.abs(np.einsum("mk,jk->mj", active_rows(kern),
                                  grid.symbols)) ** 2, axis=1)
    return num, kern, grid, 0.3 * lev


@pytest.fixture(scope="module")
def single_point(violated_setup):
    num, _, grid, _ = violated_setup
    kern = build_kernel(num, FrequencyGrid(points=np.array([5.3])))
    d = grid.symbols[0]
    gamma = np.array([0.3 * np.abs(active_rows(kern)[0] @ d) ** 2])
    return kern, d, gamma


class TestMaskBounds:
    def test_plain_array_passthrough(self):
        out = mask_bounds(np.array([1.0, 2.0]), 2)
        assert out.dtype == float and np.array_equal(out, [1.0, 2.0])

    def test_gamma_attribute_unwrapped(self):
        class Holder:
            gamma = np.array([3.0])
        assert np.array_equal(mask_bounds(Holder(), 1), [3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            mask_bounds(np.array([1.0, 2.0]), 3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            mask_bounds(np.array([1.0, 0.0]), 2)

    @pytest.mark.parametrize("precode", [admm_precode, ssp_precode], ids=["admm", "ssp"])
    def test_public_precoders_check_the_mask(self, violated_setup, precode):
        # the public functions check the caller's mask; their block
        # entries take the checked bounds
        _, kern, grid, gamma = violated_setup
        with pytest.raises(ConfigError, match="one bound per kernel row") as info:
            precode(grid.symbols, kern, np.repeat(gamma[:, None], 2, axis=1))
        assert info.value.field == "mask"


class TestConfigs:
    def test_admm_validation(self):
        with pytest.raises(ConfigError):
            AdmmConfig(rho=0.0)
        with pytest.raises(ConfigError):
            AdmmConfig(iters=0)
        with pytest.raises(ConfigError):
            AdmmConfig(residual_tol=-1e-6)
        with pytest.raises(ConfigError) as info:
            AdmmConfig(rho=float("inf"))
        assert info.value.field == "admm.rho"
        with pytest.raises(ConfigError) as info:
            AdmmConfig(residual_tol=float("nan"))
        assert info.value.field == "admm.residual_tol"

    def test_ssp_validation(self):
        with pytest.raises(ConfigError):
            SspConfig(sweeps=0)

    def test_report_trace_length_checked(self):
        with pytest.raises(ConfigError):
            SolverReport(iterations=3, evm_trace=np.zeros(2),
                         oob_trace=np.zeros(3), primal_trace=np.zeros(3),
                         dual_trace=np.zeros(3))


class TestAdmm:
    def test_feasible_input_is_fixed_point(self, violated_setup):
        _, kern, grid, gamma = violated_setup
        out, rep = admm_precode(grid.symbols, kern, 20.0 * gamma,
                                AdmmConfig(iters=5))
        assert np.array_equal(out, grid.symbols)
        assert np.all(rep.evm_trace == 0.0)
        assert np.all(rep.primal_trace == 0.0)

    def test_feasible_with_tolerance_stops_immediately(self, violated_setup):
        _, kern, grid, gamma = violated_setup
        _, rep = admm_precode(grid.symbols, kern, 20.0 * gamma,
                              AdmmConfig(iters=50, residual_tol=0.0))
        assert rep.iterations == 1 and rep.stopped_early

    def test_single_point_matches_closed_form(self, single_point):
        kern, d, gamma = single_point
        ref = project_rank1(d, active_rows(kern)[0].conj(), gamma[0])
        out, _ = admm_precode(d, kern, gamma, AdmmConfig(iters=80))
        assert np.linalg.norm(out - ref) <= 1e-9

    def test_reaches_mask_boundary(self, violated_setup):
        _, kern, grid, gamma = violated_setup
        _, rep = admm_precode(grid.symbols, kern, gamma,
                              AdmmConfig(iters=400))
        ratio = rep.oob_trace[-1] / gamma
        assert np.all(ratio <= 1.0 + 1e-6)
        assert rep.primal_trace[-1] <= 1e-9
        assert rep.dual_trace[-1] <= 1e-8

    def test_batch_matches_per_row(self, violated_setup):
        _, kern, grid, gamma = violated_setup
        cfg = AdmmConfig(iters=30)
        batch, _ = admm_precode(grid.symbols, kern, gamma, cfg)
        rows = np.stack([admm_precode(grid.symbols[j], kern, gamma, cfg)[0]
                         for j in range(2)])
        assert np.abs(batch - rows).max() <= 1e-12

    def test_vector_input_returns_vector(self, single_point):
        kern, d, gamma = single_point
        out, rep = admm_precode(d, kern, gamma, AdmmConfig(iters=3))
        assert out.shape == d.shape
        assert rep.iterations == 3 and not rep.stopped_early
        assert rep.oob_trace.shape == (3, 1)

    def test_nonfinite_input_rejected(self, single_point):
        kern, d, gamma = single_point
        bad = d.copy()
        bad[0] = np.nan
        with pytest.raises(ConfigError):
            admm_precode(bad, kern, gamma)


class TestFactoredInverse:
    def test_empty_is_identity(self):
        f = FactoredInverse(4)
        v = np.arange(4) + 1j
        assert np.array_equal(f.apply(v), v)
        assert np.array_equal(f.dense(), np.eye(4))

    def test_zero_multiplier_is_noop(self):
        f = FactoredInverse(3)
        f.push(np.ones(3, dtype=complex), 0.0)
        assert np.array_equal(f.dense(), np.eye(3))

    def test_single_push_matches_direct_inverse(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = FactoredInverse(5)
        f.push(u, 0.7)
        direct = np.linalg.inv(np.eye(5) + 0.7 * np.outer(u, u.conj()))
        assert np.abs(f.dense() - direct).max() <= 1e-12

    def test_accumulation_matches_dense_inverse(self):
        rng = np.random.default_rng(3)
        us = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        mus = rng.uniform(0.1, 4.0, 6)
        f = FactoredInverse(8)
        mat = np.eye(8, dtype=complex)
        for u, mu in zip(us, mus):
            f.push(u, mu)
            mat += mu * np.outer(u, u.conj())
        direct = np.linalg.inv(mat)
        assert np.abs(f.dense() - direct).max() <= 1e-10
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.abs(f.apply(v) - direct @ v).max() <= 1e-10

    def test_singular_update_rejected(self):
        f = FactoredInverse(2)
        u = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(NumericalError):
            f.push(u, -1.0)          # 1 + mu ||u||^2 = 0


class TestSsp:
    def test_feasible_input_unchanged(self, violated_setup):
        _, kern, grid, gamma = violated_setup
        out, rep = ssp_precode(grid.symbols, kern, 20.0 * gamma,
                               SspConfig(sweeps=3))
        assert np.array_equal(out, grid.symbols)
        assert np.all(rep.multipliers == 0.0)

    def test_single_point_single_sweep_is_projection(self, single_point):
        kern, d, gamma = single_point
        ref = project_rank1(d, active_rows(kern)[0].conj(), gamma[0])
        out, _ = ssp_precode(d, kern, gamma, SspConfig(sweeps=1))
        assert np.linalg.norm(out - ref) <= 1e-12

    def test_multipliers_nonnegative(self, violated_setup):
        _, kern, grid, gamma = violated_setup
        _, rep = ssp_precode(grid.symbols, kern, gamma, SspConfig(sweeps=4))
        assert rep.multipliers.shape == (2, 2)
        assert np.all(rep.multipliers >= 0.0)

    @pytest.mark.parametrize("fraction", [1e-2, 1e-10])
    def test_stationarity_slot_is_the_n_space_residual(self, fraction):
        # The slot is ||(I + sum mu u u^H) dbar - d|| = ||e + U D (A dbar)||,
        # zero in exact arithmetic: how far the rank-1-updated core has
        # drifted from the iterate's real leakage, roundoff at a bound of
        # 1e-2 of the input's leakage and about 6 at 1e-10.  Recomputed in
        # N-space from the output and the multipliers, on the scale of its
        # two terms.
        cfg = ScenarioConfig.from_dict({})
        kern = build_kernel(cfg.numerology, cfg.freq_grid)
        d = generate_qam_grid(1000, cfg.numerology, cfg.n_tx, cfg.constellation).symbols
        gamma = fraction * oobe_power(d, kern).max(axis=1)
        out, rep = ssp_precode(d, kern, gamma, SspConfig(sweeps=3))
        rows = active_rows(kern)
        pull = (rep.multipliers * (out @ rows.T)) @ rows.conj()        # U D A dbar per row
        residual = np.linalg.norm(out + pull - d, axis=1).max()
        scale = max(np.linalg.norm(out - d, axis=1).max(), np.linalg.norm(pull, axis=1).max())
        assert abs(rep.primal_trace[-1] - residual) <= 1e-6 * scale

    def test_stationarity_holds_every_sweep(self, violated_setup):
        # dbar is the Woodbury form of the inverse applied to d, so the KKT
        # stationarity identity must hold to solve error
        _, kern, grid, gamma = violated_setup
        _, rep = ssp_precode(grid.symbols, kern, gamma, SspConfig(sweeps=8))
        assert np.all(rep.primal_trace <= 1e-9 * np.linalg.norm(grid.symbols))

    def test_deep_sweeps_reach_complementarity(self, violated_setup):
        _, kern, grid, gamma = violated_setup
        _, rep = ssp_precode(grid.symbols, kern, gamma, SspConfig(sweeps=80))
        assert rep.dual_trace[-1] <= 1e-6

    def test_agrees_with_admm_limit(self, violated_setup):
        # both solvers target the projection onto the same intersection
        _, kern, grid, gamma = violated_setup
        o_ssp, _ = ssp_precode(grid.symbols, kern, gamma, SspConfig(sweeps=200))
        o_adm, _ = admm_precode(grid.symbols, kern, gamma,
                                AdmmConfig(iters=2000))
        assert np.abs(o_ssp - o_adm).max() <= 1e-8

    def test_batch_matches_per_row(self, violated_setup):
        _, kern, grid, gamma = violated_setup
        cfg = SspConfig(sweeps=2)
        batch, _ = ssp_precode(grid.symbols, kern, gamma, cfg)
        rows = np.stack([ssp_precode(grid.symbols[j], kern, gamma, cfg)[0]
                         for j in range(2)])
        assert np.array_equal(batch, rows)

    def test_unresolvable_bound_raises(self, violated_setup):
        # a bound 1e-40 of the input's leakage asks for mu_m alpha_2 near
        # 1e20, where 1 - mu_m W_mm = 1 / (1 + mu_m alpha_2) is below the
        # rounding of 1: the core reports it instead of going on
        _, kern, grid, gamma = violated_setup
        with pytest.raises(NumericalError):
            ssp_precode(grid.symbols, kern, 1e-40 * gamma, SspConfig(sweeps=1))

    def test_vector_multiplier_shape(self, single_point):
        kern, d, gamma = single_point
        _, rep = ssp_precode(d, kern, gamma, SspConfig(sweeps=2))
        assert rep.multipliers.shape == (1,)

    def test_default_scenario_worst_ratio_decreases(self):
        cfg = ScenarioConfig.from_dict({})
        kern = build_kernel(cfg.numerology, cfg.freq_grid)
        grid = qpsk_grid(cfg.numerology, 1, seed=5)
        gamma = np.asarray(cfg.mask.gamma)
        _, rep = ssp_precode(grid.symbols, kern, cfg.mask, SspConfig(sweeps=6))
        worst = (rep.oob_trace / gamma).max(axis=1)
        assert np.all(np.diff(worst) <= 1e-9)
        assert worst[-1] < worst[0]


def reference_ssp(rows, kernel, gamma, cfg):
    """Primal reference for the dual sweep core.

    Works in N-space: every coordinate rebuilds a FactoredInverse of the
    other M - 1 rank-1 terms, and every sweep applies the full one to d.
    Returns the multipliers (sweeps, n_tx, M), the primal points
    (sweeps, n_tx, N) and the four report traces as ssp_precode defines
    them.
    """
    u_rows = active_rows(kernel).conj()
    m_pts, n = u_rows.shape
    lam1 = np.einsum("mk,mk->m", u_rows, u_rows.conj()).real
    mus = np.empty((cfg.sweeps, rows.shape[0], m_pts))
    points = np.empty((cfg.sweeps,) + rows.shape, dtype=complex)
    for j, d_row in enumerate(rows):
        c0 = np.einsum("mk,k->m", u_rows.conj(), d_row)
        mu = np.maximum((np.abs(c0) / np.sqrt(gamma) - 1.0) / lam1, 0.0)
        for s in range(cfg.sweeps):
            for m in range(m_pts):
                others = FactoredInverse(n)
                for k in range(m_pts):
                    if k != m:
                        others.push(u_rows[k], mu[k])
                alpha1 = np.vdot(u_rows[m], others.apply(d_row))
                alpha2 = np.vdot(u_rows[m], others.apply(u_rows[m])).real
                phi = np.angle(alpha1)
                root = np.sqrt(gamma[m])
                mu_new = ((alpha1 * np.exp(-1j * phi)).real - root) / (root * alpha2)
                mu[m] = max(mu_new, 0.0)
            full = FactoredInverse(n)
            for k in range(m_pts):
                full.push(u_rows[k], mu[k])
            mus[s, j] = mu
            points[s, j] = full.apply(d_row)

    evm, oob, stat, comp = [], [], [], []
    for mu_s, x_s in zip(mus, points):
        c = np.einsum("mk,jk->jm", u_rows.conj(), x_s)
        recon = x_s + (mu_s * c) @ u_rows
        evm.append(np.linalg.norm(x_s - rows) / np.linalg.norm(rows))
        oob.append((np.abs(c) ** 2).max(axis=0))
        stat.append(np.linalg.norm(recon - rows, axis=1).max())
        comp.append(np.max(np.abs(mu_s * (np.abs(c) ** 2 - gamma)) / gamma))
    return mus, points, (np.array(evm), np.array(oob), np.array(stat), np.array(comp))


def close(a, b, scale):
    """max |a - b| <= 1e-10 * scale; a zero scale asks for equality."""
    return np.abs(np.asarray(a) - b).max() <= 1e-10 * scale


class TestDualCore:
    @pytest.mark.parametrize("cfg", [SspConfig(sweeps=3)], ids=["default"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_primal_reference(self, seed, cfg):
        # Every antenna row violates every point.  The LU oracle of
        # tests/test_band.py covers an input on which the clamp binds.
        rng = np.random.default_rng(seed)
        m_pts = 1 + seed
        n_tx = 1 + seed % 3
        kern = random_kernel(rng, m_pts)
        rows = qpsk_grid(kern.numerology, n_tx, seed=seed).symbols
        level = (np.abs(active_rows(kern) @ rows.T) ** 2).min(axis=1)
        gamma = rng.uniform(0.05, 0.3, m_pts) * level

        out, rep = ssp_precode(rows, kern, gamma, cfg)
        mus, points, traces = reference_ssp(rows, kern, gamma, cfg)

        assert close(out, points[-1], np.abs(points[-1]).max())
        assert close(rep.multipliers, mus[-1], np.abs(mus[-1]).max())
        evm, oob, stat, comp = traces
        assert close(rep.evm_trace, evm, evm.max())
        assert close(rep.oob_trace, oob, oob.max())
        # the complementarity defect mu (|c|^2 - gamma) / gamma cancels at
        # an optimum, so it is compared on the scale of its terms
        assert close(rep.dual_trace, comp, np.abs(mus).max() * (oob / gamma).max())
        # the stationarity norm is a roundoff-level residual of d, so it is
        # compared on the scale of d
        assert close(rep.primal_trace, stat, np.linalg.norm(rows))


def compute_residuals(d_bar, d_bar_prev, y, rho):
    """Consensus residual norms of an ADMM iterate.

    primal = sqrt(sum_m ||y_m - dbar||^2); dual = sqrt(M) * rho *
    ||dbar - dbar_prev||.  Norms are Frobenius over any antenna batch.
    """
    diff = y - d_bar[None, ...]
    primal = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
    m = y.shape[0]
    dual = float(np.sqrt(m) * rho * np.linalg.norm(d_bar - d_bar_prev))
    return primal, dual


def evm_wideband(dbar, d):
    ref = np.linalg.norm(d)
    return float(np.linalg.norm(dbar - d) / ref) if ref > 0 else 0.0


def reference_consensus_admm(bands, kernel, gamma, cfg, budget=None):
    """N-space reference for consensus_admm, with its signature and its
    block report: the active bands of the symbols one at a time, each
    placed in the band bins of a zero (n_tx, N) grid and run through
    reference_consensus_one, whose output's band it returns.  The consensus update maps a mean deviation
    from the input's active band to the next deviation: ADMM's weighted
    mean without a budget, and under one the projection of the symbol's
    own ball (EvmConstraint.band_balls and _project_balls), which measures
    the band deviation in N-space; the reference turns it into the map from
    the band sums of y_m + z_m to the next iterate."""
    outs = []
    m_pts = kernel.n_points
    num = kernel.numerology
    weight = cfg.rho * m_pts / (1.0 + cfg.rho * m_pts)
    traces = BlockTraces(cfg.iters, len(bands), m_pts)
    for i, band in enumerate(bands):
        rows = np.zeros(band.shape[:-1] + (num.fft_size,), dtype=complex)
        rows[:, num.band_bins] = band
        if budget is None:
            def x_update(dev):
                return weight * dev
        else:
            dist, radii, inner = budget.band_balls(rows[None], num)

            def x_update(dev, dist=dist, radii=radii, inner=inner):
                return _project_balls(dev[None], dist(dev[None]), radii, inner)[0]

        def update(s, band=band, x_update=x_update):
            return band + x_update(s / m_pts - band)
        out, rep = reference_consensus_one(rows, kernel, gamma, cfg, update)
        outs.append(out[:, num.band_bins])
        n = traces.iterations[i] = rep.iterations
        traces.record(slice(n), i, rep.evm_trace, rep.oob_trace, rep.primal_trace,
                      rep.dual_trace)
    return np.stack(outs), traces


def reference_consensus_one(rows, kernel, gamma, cfg, x_update):
    """N-space consensus loop for one (n_tx, N) symbol.

    Holds every local variable y_m and dual z_m as an (n_tx, N) grid and
    projects with one project_rank1 call per set and iteration.  x_update
    maps the active columns in bin order; the guard bins of x_bar keep
    their input values.
    """
    u_rows = active_rows(kernel).conj()
    bins = np.flatnonzero(kernel.numerology.active_mask())
    y = np.broadcast_to(rows, (u_rows.shape[0],) + rows.shape).copy()
    z = np.zeros_like(y)
    x_bar = rows.copy()
    entries = []
    for _ in range(cfg.iters):
        x_prev = x_bar
        x_bar = x_prev.copy()
        x_bar[:, bins] = x_update(np.sum(y + z, axis=0)[:, bins])
        for m, u in enumerate(u_rows):
            y[m] = project_rank1(x_bar - z[m], u, gamma[m])
        z += y - x_bar[None, ...]

        primal, dual = compute_residuals(x_bar, x_prev, y, cfg.rho)
        entries.append((evm_wideband(x_bar, rows), oobe_power(x_bar, kernel).max(axis=1),
                        primal, dual))
        if cfg.residual_tol is not None and max(primal, dual) <= cfg.residual_tol:
            break
    evm, oob, primal, dual = (np.array(t) for t in zip(*entries))
    return x_bar, SolverReport(iterations=len(entries), evm_trace=evm, oob_trace=oob,
                               primal_trace=primal, dual_trace=dual,
                               stopped_early=len(entries) < cfg.iters)


class TestComputeResiduals:
    def test_consensus_fixed_point_is_zero(self):
        d = np.ones((2, 4), dtype=complex)
        y = np.broadcast_to(d, (3, 2, 4)).copy()
        assert compute_residuals(d, d, y, 7.0) == (0.0, 0.0)

    def test_hand_values(self):
        d = np.zeros((1, 2), dtype=complex)
        y = np.ones((4, 1, 2), dtype=complex)          # primal = sqrt(8)
        prev = np.full((1, 2), 0.5 + 0.0j)             # dual = 2*rho*sqrt(0.5)
        pri, dua = compute_residuals(d, prev, y, 3.0)
        assert pri == pytest.approx(np.sqrt(8.0), rel=1e-12)
        assert dua == pytest.approx(2.0 * 3.0 * np.sqrt(0.5), rel=1e-12)


def consensus_case(seed, solver, cfg, eps_avg=0.1):
    """Run one ADMM or EADMM instance with the coefficient loop and with the
    N-space reference; returns (rows, (out, report), (ref_out, ref_report)).

    Every antenna row violates every point.  EADMM budgets are eps_avg
    wideband or 5-30% per subcarrier.
    """
    rng = np.random.default_rng(seed)
    m_pts = 1 + seed
    n_tx = 1 + seed % 3
    kern = random_kernel(rng, m_pts)
    grid = qpsk_grid(kern.numerology, n_tx, seed=seed)
    rows = grid.symbols
    level = np.abs(active_rows(kern) @ rows.T) ** 2
    gamma = rng.uniform(0.05, 0.3, m_pts) * level.min(axis=1)
    if solver == "admm":
        def run():
            return admm_precode(rows, kern, gamma, cfg)
    else:
        num = kern.numerology
        evm = (EvmConstraint(mode="frequency_selective",
                             eps=rng.uniform(0.05, 0.3, num.n_active))
               if solver == "eadmm-selective"
               else EvmConstraint(mode="wideband", eps_avg=eps_avg))

        def run():
            out, rep = eadmm_precode(grid, kern, gamma, evm, cfg)
            return out.symbols, rep

    new = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unconstrained, "consensus_admm", reference_consensus_admm)
        mp.setattr(constrained, "consensus_admm", reference_consensus_admm)
        ref = run()
    return rows, new, ref


SOLVERS = ["admm", "eadmm-wideband", "eadmm-selective"]


class TestConsensusCoefficients:
    """The coefficient loop against the N-space reference."""

    def check_close(self, rows, new, ref, rho):
        out, rep = new
        ref_out, ref_rep = ref
        assert rep.iterations == ref_rep.iterations
        assert rep.stopped_early == ref_rep.stopped_early
        assert close(out, ref_out, np.abs(ref_out).max())
        assert close(rep.evm_trace, ref_rep.evm_trace, ref_rep.evm_trace.max())
        assert close(rep.oob_trace, ref_rep.oob_trace, ref_rep.oob_trace.max())
        # both residuals sit at roundoff once the iterate is feasible, so
        # they are compared on the scale of the terms they are formed from
        scale = max(1.0, rho) * np.sqrt(rep.oob_trace.shape[1]) * np.linalg.norm(rows)
        assert close(rep.primal_trace, ref_rep.primal_trace, scale)
        assert close(rep.dual_trace, ref_rep.dual_trace, scale)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference(self, seed, solver):
        cfg = AdmmConfig(iters=80 if solver == "admm" else 40)
        self.check_close(*consensus_case(seed, solver, cfg), cfg.rho)

    @pytest.mark.parametrize("solver", ["admm", "eadmm-wideband"])
    @pytest.mark.parametrize("seed", [1, 3])
    def test_residual_tol_stops_at_same_iteration(self, seed, solver):
        # a 100% budget leaves the mask reachable, so EADMM converges too;
        # the residual crosses the tolerance mid-run, and none of the
        # residuals up to the stop lies within 1.5% of it
        cfg = AdmmConfig(iters=200, residual_tol=1e-3)
        rows, new, ref = consensus_case(seed, solver, cfg, eps_avg=1.0)
        assert new[1].stopped_early and new[1].iterations > 5
        self.check_close(rows, new, ref, cfg.rho)

    def test_vanishing_kernel_row_rejected(self):
        num = small_numerology()
        matrix = np.ones((2, num.fft_size), dtype=complex)
        matrix[1, num.active_bins] = 0.0
        kern = SpectralKernel(matrix=matrix, numerology=num,
                              freq_grid=FrequencyGrid(points=np.array([10.5, 11.5])))
        grid = qpsk_grid(num, 2, seed=0)
        gamma = np.array([0.1, 0.1])
        with pytest.raises(DegenerateConstraintError):
            admm_precode(grid.symbols, kern, gamma)
        with pytest.raises(DegenerateConstraintError):
            eadmm_precode(grid, kern, gamma, EvmConstraint(mode="wideband", eps_avg=0.1))
        # the sweep precoders make the same diag(K) check
        with pytest.raises(DegenerateConstraintError):
            ssp_precode(grid.symbols, kern, gamma)
        with pytest.raises(DegenerateConstraintError):
            essp_precode(grid, kern, gamma, EvmConstraint(mode="wideband", eps_avg=0.1))
