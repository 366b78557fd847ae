"""Notch baselines, the bisection oracle, and the interior-point reference."""

import numpy as np
import pytest

from specprecode import (ConfigError, DegenerateConstraintError, FrequencyGrid,
                         LogBarrierProblem, bisection_rank1_oracle,
                         build_kernel, ensp_precode, logbarrier_solve, nsp_precode,
                         project_rank1)
from specprecode.baselines import _newton_minimize

from conftest import active_rows, qpsk_grid, small_numerology


@pytest.fixture(scope="module")
def notch_setup():
    num = small_numerology()
    kern = build_kernel(num, FrequencyGrid(points=np.array([5.3, 6.25])))
    grid = qpsk_grid(num, 2, seed=21)
    return num, kern, grid


class TestNsp:
    def test_nulls_every_point(self, notch_setup):
        _, kern, grid = notch_setup
        out = nsp_precode(grid.symbols, kern)
        leak = np.abs(np.einsum("mk,jk->mj", active_rows(kern), out))
        assert np.all(leak <= 1e-10 * np.linalg.norm(grid.symbols))

    def test_vector_and_batch_agree(self, notch_setup):
        _, kern, grid = notch_setup
        batch = nsp_precode(grid.symbols, kern)
        rows = np.stack([nsp_precode(grid.symbols[j], kern) for j in range(2)])
        assert np.array_equal(batch, rows)

    def test_removal_is_orthogonal(self, notch_setup):
        # removed component lies in the row span; the remainder is closest
        _, kern, grid = notch_setup
        out = nsp_precode(grid.symbols, kern)
        removed = grid.symbols - out
        basis = active_rows(kern).conj().T
        resid = np.linalg.lstsq(basis, removed.T, rcond=None)[1]
        # exact representation leaves no least-squares residual
        assert np.all(np.asarray(resid) < 1e-18)
        # and the remainder has no overlap with the constraint rows
        overlap = np.abs(np.einsum("mk,jk->mj", active_rows(kern), out))
        assert np.all(overlap <= 1e-10 * np.linalg.norm(grid.symbols))

    def test_coincident_points_rejected(self, notch_setup):
        num, _, grid = notch_setup
        kern_dup = build_kernel(num, FrequencyGrid(points=np.array([5.3, 5.3])))
        with pytest.raises(ConfigError):
            nsp_precode(grid.symbols, kern_dup)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)],
                             ids=["nan", "inf", "imag-nan"])
    def test_non_finite_input_rejected(self, notch_setup, bad):
        _, kern, grid = notch_setup
        poisoned = grid.symbols.copy()
        poisoned[1, grid.numerology.active_bins[3]] = bad
        for d in (poisoned, poisoned[1]):
            with pytest.raises(ConfigError, match="non-finite"):
                nsp_precode(d, kern)
            with pytest.raises(ConfigError, match="non-finite"):
                ensp_precode(d, kern, 0.05)


class TestEnsp:
    def test_error_capped_at_budget(self, notch_setup):
        _, kern, grid = notch_setup
        out, alpha = ensp_precode(grid.symbols, kern, 0.05)
        err = np.linalg.norm(out - grid.symbols, axis=1)
        ref = np.linalg.norm(grid.symbols, axis=1)
        assert np.all(err <= 0.05 * ref * (1 + 1e-12))
        assert np.all((alpha > 0) & (alpha < 1))

    def test_generous_budget_reaches_full_notch(self, notch_setup):
        _, kern, grid = notch_setup
        for budget in (1.0, np.inf):
            out, alpha = ensp_precode(grid.symbols, kern, budget)
            assert np.all(alpha == 1.0)
            assert np.allclose(out, nsp_precode(grid.symbols, kern), atol=1e-12)

    def test_zero_budget_is_identity(self, notch_setup):
        _, kern, grid = notch_setup
        out, alpha = ensp_precode(grid.symbols, kern, 0.0)
        assert np.all(alpha == 0.0)
        assert np.array_equal(out, grid.symbols)

    def test_vector_and_batch_agree(self, notch_setup):
        _, kern, grid = notch_setup
        batch, alpha = ensp_precode(grid.symbols, kern, 0.05)
        for j in range(2):
            row, alpha_j = ensp_precode(grid.symbols[j], kern, 0.05)
            assert np.array_equal(batch[j], row)
            assert alpha[j] == alpha_j

    def test_error_exactly_linear_in_alpha(self, notch_setup):
        _, kern, grid = notch_setup
        removed = grid.symbols - nsp_precode(grid.symbols, kern)
        out, alpha = ensp_precode(grid.symbols, kern, 0.08)
        err = np.linalg.norm(out - grid.symbols, axis=1)
        assert np.allclose(err, alpha * np.linalg.norm(removed, axis=1), rtol=1e-12)

    @pytest.mark.parametrize("shift", [0, 16])
    def test_coincident_points_rejected(self, notch_setup, shift):
        # rows are periodic in the FFT size, so points 16 apart coincide
        num, _, grid = notch_setup
        kern_dup = build_kernel(num, FrequencyGrid(points=np.array([5.3, 6.25, 5.3 + shift])))
        with pytest.raises(ConfigError, match="linearly dependent"):
            ensp_precode(grid.symbols, kern_dup, 0.05)
        with pytest.raises(ConfigError, match="linearly dependent"):
            nsp_precode(grid.symbols, kern_dup)

    def test_negative_budget_rejected(self, notch_setup):
        _, kern, grid = notch_setup
        for budget in (-0.1, np.nan):
            with pytest.raises(ConfigError, match="evm_target"):
                ensp_precode(grid.symbols, kern, budget)


class TestBisectionOracle:
    def test_reaches_boundary(self):
        rng = np.random.default_rng(30)
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        x = 3.0 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        b = 0.1 * float(np.abs(np.vdot(u, x)) ** 2)
        z = bisection_rank1_oracle(x, u, b)
        assert np.abs(np.vdot(u, z)) ** 2 == pytest.approx(b, abs=2e-12)
        assert np.allclose(z, project_rank1(x, u, b), atol=1e-8)

    def test_feasible_start_rejected(self):
        u = np.array([1.0 + 0j, 0.0])
        x = np.array([0.1 + 0j, 0.0])
        with pytest.raises(DegenerateConstraintError):
            bisection_rank1_oracle(x, u, 1.0)

    def test_zero_bound_rejected(self):
        u = np.array([1.0 + 0j])
        with pytest.raises(DegenerateConstraintError):
            bisection_rank1_oracle(np.array([2.0 + 0j]), u, 0.0)


class TestLogBarrier:
    def test_feasible_reference_is_fixed(self, notch_setup):
        _, kern, grid = notch_setup
        u = active_rows(kern).conj()
        huge = [(u[m], 1e6) for m in range(2)]
        res = logbarrier_solve(LogBarrierProblem(objective="least_squares",
                                                 reference=grid.symbols, rank1=huge))
        assert np.array_equal(res.solution, grid.symbols)
        assert res.kkt_residual == 0.0
        assert res.objective_value == 0.0

    def test_single_constraint_matches_projection(self, notch_setup):
        _, kern, grid = notch_setup
        u = active_rows(kern).conj()[0]
        b = 0.2 * float(np.abs(u.conj() @ grid.symbols[0]) ** 2)
        res = logbarrier_solve(LogBarrierProblem(
            objective="least_squares", reference=grid.symbols[0], rank1=[(u, b)]))
        ref = project_rank1(grid.symbols[0], u, b)
        assert np.linalg.norm(res.solution[0] - ref) <= 1e-6 * np.linalg.norm(ref)
        assert res.kkt_residual <= 1e-6

    def test_constraints_hold_at_solution(self, notch_setup):
        _, kern, grid = notch_setup
        u = active_rows(kern).conj()
        base = np.abs(np.einsum("mk,jk->mj", u.conj(), grid.symbols)).max(axis=1) ** 2
        bounds = 0.3 * base
        res = logbarrier_solve(LogBarrierProblem(
            objective="least_squares", reference=grid.symbols,
            rank1=[(u[m], bounds[m]) for m in range(2)]))
        leak = np.abs(np.einsum("mk,jk->mj", u.conj(), res.solution)) ** 2
        assert np.all(leak <= bounds[:, None] * (1 + 1e-6))
        assert res.kkt_residual <= 1e-6
        assert res.newton_steps > 0

    def test_epigraph_feasible_scale_below_one(self, notch_setup):
        _, kern, grid = notch_setup
        u = active_rows(kern).conj()
        base = np.abs(np.einsum("mk,jk->mj", u.conj(), grid.symbols)).max(axis=1) ** 2
        ball = (grid.symbols, float(np.linalg.norm(grid.symbols)))
        res = logbarrier_solve(LogBarrierProblem(
            objective="epigraph", reference=grid.symbols,
            rank1=[(u[m], 0.5 * base[m]) for m in range(2)], frob_ball=ball))
        assert res.delta_t <= 1.0
        assert res.objective_value == res.delta_t

    @pytest.mark.parametrize("ball", ["frobenius", "columns"])
    def test_epigraph_solution_meets_its_constraints(self, notch_setup, ball):
        _, kern, grid = notch_setup
        x = grid.symbols
        u = active_rows(kern).conj()
        bounds = 0.3 * (np.abs(np.einsum("mk,jk->mj", u.conj(), x)) ** 2).max(axis=1)
        if ball == "frobenius":
            radius = 0.2 * np.linalg.norm(x)
            balls = {"frob_ball": (x, radius)}
        else:
            radii = np.linalg.norm(x, axis=0) * np.linspace(0.1, 0.3, x.shape[1])
            balls = {"col_balls": (x, radii)}
        res = logbarrier_solve(LogBarrierProblem(
            objective="epigraph", reference=x,
            rank1=[(u[m], bounds[m]) for m in range(2)], **balls))
        leak = np.abs(np.einsum("mk,jk->mj", u.conj(), res.solution)) ** 2
        assert np.all(leak <= res.delta_t * bounds[:, None] * (1 + 1e-6))
        err = res.solution - x
        if ball == "frobenius":
            assert np.linalg.norm(err) <= radius
        else:
            assert np.all(np.linalg.norm(err, axis=0) <= radii)
        assert 0.0 < res.delta_t < 1.0 / 0.3
        assert res.kkt_residual <= 1e-6

    def test_newton_ends_where_armijo_certifies_nothing(self):
        # at a value of 1e8 the Armijo target val - 0.25 t decrement rounds
        # to val, so no backtracking step can show a decrease
        v0 = np.ones(3)
        v, steps = _newton_minimize(lambda v: (1e8, v.copy(), np.eye(v.size)), v0, 1e-12, 60)
        assert steps == 0
        assert np.array_equal(v, v0)

    def test_epigraph_size_guard(self):
        rng = np.random.default_rng(31)
        ref = rng.normal(size=(2, 4096)) + 0j
        u = np.zeros(4096, dtype=complex)
        u[0] = 1.0
        with pytest.raises(ConfigError):
            logbarrier_solve(LogBarrierProblem(objective="epigraph", reference=ref,
                                               rank1=[(u, 1.0)],
                                               frob_ball=(ref, 1.0)))

    def test_invalid_problems_rejected(self):
        ref = np.ones((1, 4), dtype=complex)
        u = np.ones(4, dtype=complex)
        with pytest.raises(ConfigError):
            LogBarrierProblem(objective="fancy", reference=ref, rank1=[(u, 1.0)])
        with pytest.raises(ConfigError):
            LogBarrierProblem(objective="least_squares", reference=ref, rank1=[])
        # a zero direction or a bound that is not positive, NaN included
        for pair in ((np.zeros(4), 1.0), (u, 0.0), (u, np.nan)):
            with pytest.raises(DegenerateConstraintError):
                LogBarrierProblem(objective="least_squares", reference=ref,
                                  rank1=[(u, 1.0), pair])
