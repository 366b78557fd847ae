"""Budgeted mask precoders: EADMM, the sweep method under Douglas-Rachford
splitting, and the joint-feasibility probe."""

import numpy as np
import pytest

from specprecode import (AdmmConfig, ConfigError, DataGrid, DegenerateConstraintError,
                         EsspConfig, EvmConstraint, FrequencyGrid, ScenarioConfig, build_kernel,
                         eadmm_precode, essp_precode, feasibility_probe)
from specprecode.projections import _project_balls

from conftest import active_rows, qpsk_grid, small_numerology


@pytest.fixture(scope="module")
def pair_setup():
    """Two-antenna grid with a mask both antennas violate."""
    num = small_numerology()
    kern = build_kernel(num, FrequencyGrid(points=np.array([5.3, 6.25])))
    grid = qpsk_grid(num, 2, seed=21)
    lev = np.max(np.abs(np.einsum("mk,jk->mj", active_rows(kern),
                                  grid.symbols)) ** 2, axis=1)
    return num, kern, grid, 0.3 * lev


def point_powers(kernel, grid):
    return np.abs(np.einsum("mk,jk->mj", active_rows(kernel),
                            grid.symbols)) ** 2


class TestEvmConstraint:
    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            EvmConstraint(mode="narrowband", eps_avg=0.1)
        with pytest.raises(ConfigError):
            EvmConstraint(mode="wideband")
        with pytest.raises(ConfigError):
            EvmConstraint(mode="wideband", eps_avg=-0.1)
        with pytest.raises(ConfigError):
            EvmConstraint(mode="frequency_selective")
        with pytest.raises(ConfigError):
            EvmConstraint(mode="frequency_selective", eps=[-0.1, 0.2])

    @pytest.mark.parametrize("kwargs,field", [
        ({"mode": "wideband", "eps_avg": float("nan")}, "evm.eps_avg"),
        ({"mode": "wideband", "eps_avg": float("inf")}, "evm.eps_avg"),
        ({"mode": "frequency_selective", "eps": [0.1, float("nan")]}, "evm.eps"),
        ({"mode": "frequency_selective", "eps": [float("inf"), 0.2]}, "evm.eps"),
        ({"mode": "frequency_selective", "eps": [-float("inf"), 0.2]}, "evm.eps"),
    ])
    def test_non_finite_budgets_rejected(self, kwargs, field):
        # NaN passes every ordering test, so "eps < 0" alone let it through
        with pytest.raises(ConfigError, match="finite") as info:
            EvmConstraint(**kwargs)
        assert info.value.field == field

    # The balls project deviations from the reference's active band.

    def test_wideband_projector_inside_unchanged(self, pair_setup):
        num, _, grid, _ = pair_setup
        dist, radii, inner = EvmConstraint(mode="wideband", eps_avg=0.5).band_balls(
            grid.symbols[None], num)
        dev = grid.symbols[None][..., num.band_bins] * 0.01
        assert np.array_equal(_project_balls(dev, dist(dev), radii, inner), dev)

    def test_zero_budget_pins_to_reference(self, pair_setup):
        num, _, grid, _ = pair_setup
        dist, radii, inner = EvmConstraint(mode="wideband", eps_avg=0.0).band_balls(
            grid.symbols[None], num)
        dev = np.full((1, grid.symbols.shape[0], num.n_active), 0.3 + 0.0j)
        assert np.abs(_project_balls(dev, dist(dev), radii, inner)).max() <= 1e-15

    def test_selective_eps_must_cover_active_band(self, pair_setup):
        num, _, grid, _ = pair_setup
        con = EvmConstraint(mode="frequency_selective",
                            eps=np.full(num.n_active + 1, 0.1))
        with pytest.raises(ConfigError):
            con.band_balls(grid.symbols[None], num)

    def test_violation_wideband(self, pair_setup):
        _, _, grid, _ = pair_setup
        con = EvmConstraint(mode="wideband", eps_avg=0.1)
        assert con.violation(grid, grid.symbols) == 0.0
        scale = 1.25
        inflated = grid.symbols * (1.0 + 0.1 * scale)
        assert con.violation(grid, inflated) == pytest.approx(scale - 1.0,
                                                              rel=1e-9)

    def test_violation_selective_single_column(self, pair_setup):
        num, _, grid, _ = pair_setup
        con = EvmConstraint(mode="frequency_selective",
                            eps=np.full(num.n_active, 0.1))
        x = grid.symbols.copy()
        bin0 = num.active_bins[0]
        x[:, bin0] *= 1.0 + 0.1 * 3.0
        assert con.violation(grid, x) == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("mode", ["wideband", "frequency_selective"])
    def test_zero_budget_violation(self, pair_setup, mode):
        # a zero radius is overshot infinitely by any error, in either mode
        num, _, grid, _ = pair_setup
        con = (EvmConstraint(mode="wideband", eps_avg=0.0) if mode == "wideband" else
               EvmConstraint(mode="frequency_selective", eps=np.zeros(num.n_active)))
        assert con.violation(grid, grid.symbols) == 0.0
        x = grid.symbols.copy()
        x[0, num.active_bins[0]] += 1e-12
        assert con.violation(grid, x) == np.inf

    @pytest.mark.parametrize("mode", ["wideband", "frequency_selective"])
    def test_violation_of_a_block_is_its_worst_symbol(self, mode):
        # symbol 0 scaled by 1.5 is 0.5 / 0.3 - 1 = 2/3 over a 30 % budget;
        # one norm over the whole block would hide it, and the selective
        # budget would index the antenna axis as columns
        num = small_numerology()
        block = DataGrid(np.stack([qpsk_grid(num, 2, seed=s).symbols for s in range(3)]), num)
        x = block.symbols.copy()
        x[0] *= 1.5
        con = (EvmConstraint(mode="wideband", eps_avg=0.3) if mode == "wideband" else
               EvmConstraint(mode="frequency_selective", eps=np.full(num.n_active, 0.3)))
        per_symbol = [con.violation(block.with_symbols(ref), sym)
                      for ref, sym in zip(block.symbols, x)]
        assert per_symbol[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert per_symbol[1:] == [0.0, 0.0]
        assert con.violation(block, x) == per_symbol[0]


class TestNonFiniteGrid:
    @pytest.mark.parametrize("precoder", [eadmm_precode, essp_precode])
    def test_rejected_at_the_grid(self, pair_setup, precoder):
        # the grid boundary rejects a NaN on an active bin before either
        # precoder sees it, so both report it as non-finite (EADMM would
        # otherwise spread it into the guard bins and blame those)
        num, kern, grid, gamma = pair_setup
        bad = grid.symbols.copy()
        bad[0, num.active_bins[0]] = np.nan
        evm = EvmConstraint(mode="wideband", eps_avg=0.1)
        with pytest.raises(ConfigError, match="non-finite"):
            precoder(grid.with_symbols(bad), kern, gamma, evm)


class TestEadmm:
    def test_feasible_input_is_fixed_point(self, pair_setup):
        _, kern, grid, gamma = pair_setup
        evm = EvmConstraint(mode="wideband", eps_avg=1.0)
        out, rep = eadmm_precode(grid, kern, 20.0 * gamma, evm,
                                 AdmmConfig(iters=5))
        assert np.array_equal(out.symbols, grid.symbols)
        assert np.all(rep.evm_trace == 0.0)

    def test_zero_budget_returns_input(self, pair_setup):
        _, kern, grid, gamma = pair_setup
        evm = EvmConstraint(mode="wideband", eps_avg=0.0)
        out, rep = eadmm_precode(grid, kern, gamma, evm, AdmmConfig(iters=10))
        assert np.abs(out.symbols - grid.symbols).max() <= 1e-12
        assert np.all(rep.evm_trace <= 1e-12)

    def test_budget_holds_when_mask_unreachable(self, infeasible_case):
        case = infeasible_case
        out, _ = eadmm_precode(case.grid, case.kernel, case.gamma, case.evm)
        assert case.evm.violation(case.grid, out) <= 1e-9

    def test_selective_budget_holds_and_bounds_wideband(self, infeasible_case):
        # equal fractions with equal column norms make the wideband error
        # a consequence of the per-subcarrier ones
        case = infeasible_case
        num = case.grid.numerology
        frac = 0.1
        evm = EvmConstraint(mode="frequency_selective",
                            eps=np.full(num.n_active, frac))
        out, _ = eadmm_precode(case.grid, case.kernel, case.gamma, evm)
        assert evm.violation(case.grid, out) <= 1e-9
        nrm = np.linalg.norm(case.grid.symbols)
        assert np.linalg.norm(out.symbols - case.grid.symbols) <= frac * nrm * (1 + 1e-12)

    def test_trace_stays_bounded_when_infeasible(self, infeasible_case):
        case = infeasible_case
        _, rep = eadmm_precode(case.grid, case.kernel, case.gamma, case.evm)
        totals = rep.oob_trace.sum(axis=1)
        assert rep.iterations == 40
        assert totals.max() <= 2.0 * np.median(totals)

    def test_feasible_budget_meets_both_sets(self, infeasible_case):
        case = infeasible_case
        evm = EvmConstraint(mode="wideband", eps_avg=4.0 * case.eps_fraction)
        out, rep = eadmm_precode(case.grid, case.kernel, case.gamma, evm,
                                 AdmmConfig(iters=300))
        ratios = point_powers(case.kernel, out) / case.gamma[:, None]
        assert np.all(ratios <= 1.0 + 1e-6)
        assert evm.violation(case.grid, out) <= 1e-9


@pytest.mark.parametrize("precode", [eadmm_precode, essp_precode], ids=["eadmm", "essp"])
def test_per_antenna_bounds_rejected(pair_setup, precode):
    # the mask has one form, (M,) bounds shared by every antenna row
    _, kern, grid, gamma = pair_setup
    evm = EvmConstraint(mode="wideband", eps_avg=0.5)
    with pytest.raises(ConfigError, match="one bound per kernel row") as info:
        precode(grid, kern, np.repeat(gamma[:, None], grid.symbols.shape[0], axis=1), evm)
    assert info.value.field == "mask"


class TestEsspConfig:
    def test_validation(self):
        for bad in (dict(outer_iters=0), dict(inner_sweeps=0)):
            with pytest.raises(ConfigError):
                EsspConfig(**bad)


class TestEssp:
    def test_feasible_input_is_fixed_point(self, pair_setup):
        _, kern, grid, gamma = pair_setup
        evm = EvmConstraint(mode="wideband", eps_avg=1.0)
        out, rep = essp_precode(grid, kern, 20.0 * gamma, evm,
                                EsspConfig(outer_iters=4))
        assert np.array_equal(out.symbols, grid.symbols)
        assert not rep.stopped_early
        assert rep.returned_iteration == rep.iterations == 4
        assert out.numerology is grid.numerology

    def test_feasible_budget_meets_both_sets(self, infeasible_case):
        case = infeasible_case
        evm = EvmConstraint(mode="wideband", eps_avg=4.0 * case.eps_fraction)
        out, rep = essp_precode(case.grid, case.kernel, case.gamma, evm,
                                EsspConfig(outer_iters=10, early_stop=False))
        ratios = point_powers(case.kernel, out) / case.gamma[:, None]
        assert np.all(ratios <= 1.0 + 1e-6)
        assert evm.violation(case.grid, out) <= 1e-9
        # a joint fixed point: the mask step reproduces the ball iterate
        assert rep.primal_trace[-1] <= 1e-6 * np.linalg.norm(case.grid.symbols)

    def test_unreachable_mask_degrades_monotonically(self, infeasible_case):
        # with no fixed point the sampled out-of-band power of the ball
        # iterate rises strictly after the first outer step
        case = infeasible_case
        _, rep = essp_precode(case.grid, case.kernel, case.gamma, case.evm,
                              EsspConfig(outer_iters=15, inner_sweeps=1, early_stop=False))
        totals = rep.oob_trace.sum(axis=1)
        assert int(np.argmin(totals)) == 0
        assert np.all(np.diff(totals) > 0.0)

    def test_early_stop_returns_last_improving_iterate(self, infeasible_case):
        case = infeasible_case
        out, rep = essp_precode(case.grid, case.kernel, case.gamma, case.evm,
                                EsspConfig(outer_iters=10, inner_sweeps=2, early_stop=True))
        assert rep.stopped_early
        assert rep.iterations <= 3
        assert rep.returned_iteration == rep.iterations - 1
        ref, _ = essp_precode(case.grid, case.kernel, case.gamma, case.evm,
                              EsspConfig(outer_iters=rep.returned_iteration,
                                         inner_sweeps=2, early_stop=False))
        assert np.array_equal(out.symbols, ref.symbols)
        assert case.evm.violation(case.grid, out) == 0.0

        # stopping on the last iteration still returns the iterate before
        last, last_rep = essp_precode(case.grid, case.kernel, case.gamma, case.evm,
                                      EsspConfig(outer_iters=rep.iterations, inner_sweeps=2,
                                                 early_stop=True))
        assert last_rep.iterations == rep.iterations and not last_rep.stopped_early
        assert last_rep.returned_iteration == rep.iterations - 1
        assert np.array_equal(last.symbols, ref.symbols)


class TestFeasibilityProbe:
    def test_certifies_joint_infeasibility(self, infeasible_case):
        case = infeasible_case
        rep = feasibility_probe(case.grid, case.kernel, case.gamma, case.evm)
        assert rep.delta_t > 1.0
        assert rep.feasible is False
        assert rep.mask_ratio == pytest.approx([10.0 / 3.0, 10.0 / 9.0],
                                               rel=1e-9)

    def test_certifies_feasibility_with_wider_budget(self, infeasible_case):
        case = infeasible_case
        evm = EvmConstraint(mode="wideband", eps_avg=4.0 * case.eps_fraction)
        rep = feasibility_probe(case.grid, case.kernel, case.gamma, evm)
        assert 0.0 < rep.delta_t <= 1.0
        assert rep.feasible is True

    def test_unit_fraction_ball_always_feasible(self, infeasible_case):
        # the zero grid lies in a fraction-1 ball and under any mask
        case = infeasible_case
        evm = EvmConstraint(mode="wideband", eps_avg=1.0)
        rep = feasibility_probe(case.grid, case.kernel, case.gamma, evm)
        assert rep.delta_t <= 1.0

    def selective(self, case, fractions):
        return EvmConstraint(mode="frequency_selective",
                             eps=np.full(case.grid.numerology.n_active, fractions))

    def test_column_balls_within_the_wideband_ball(self, infeasible_case):
        # with every fraction at the wideband one, the column balls' radii
        # square-sum to the Frobenius radius, so their intersection lies
        # inside that ball and the scale can only grow
        case = infeasible_case
        wide = feasibility_probe(case.grid, case.kernel, case.gamma, case.evm)
        rep = feasibility_probe(case.grid, case.kernel, case.gamma,
                                self.selective(case, case.eps_fraction))
        assert rep.delta_t >= wide.delta_t
        assert rep.delta_t > 1.0
        assert rep.feasible is False

    def test_unit_fraction_columns_always_feasible(self, infeasible_case):
        # the zero grid lies in every fraction-1 column ball
        case = infeasible_case
        rep = feasibility_probe(case.grid, case.kernel, case.gamma,
                                self.selective(case, 1.0))
        assert rep.delta_t <= 1.0
        assert rep.feasible is True

    def test_zero_column_fraction_rejected(self, infeasible_case):
        case = infeasible_case
        eps = np.full(case.grid.numerology.n_active, 0.5)
        eps[3] = 0.0
        evm = EvmConstraint(mode="frequency_selective", eps=eps)
        with pytest.raises(DegenerateConstraintError):
            feasibility_probe(case.grid, case.kernel, case.gamma, evm)

    def test_block_rejected(self, infeasible_case):
        case = infeasible_case
        block = DataGrid(np.stack([case.grid.symbols] * 3), case.grid.numerology)
        with pytest.raises(ConfigError, match=r"takes one \(n_tx, N\) grid"):
            feasibility_probe(block, case.kernel, case.gamma, case.evm)

    def test_large_grids_report_ratios_only(self):
        cfg = ScenarioConfig.from_dict({})
        kern = build_kernel(cfg.numerology, cfg.freq_grid)
        grid = qpsk_grid(cfg.numerology, 2, seed=3)
        rep = feasibility_probe(grid, kern, cfg.mask,
                                EvmConstraint(mode="wideband", eps_avg=0.08))
        assert rep.delta_t is None and rep.feasible is None
        assert rep.mask_ratio.shape == (len(cfg.freq_grid.points),)
