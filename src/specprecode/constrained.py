"""Mask-compliant precoding under an error-vector budget.

EADMM runs consensus ADMM over the M rank-1 leakage sets plus the EVM ball,
so every reported iterate sits exactly inside the budget (the consensus
variable is the image of the ball projection).  ESSP wraps the sweep
precoder in Douglas-Rachford splitting between the mask intersection and the
ball; when mask and budget cannot both be met the iteration has no fixed
point, so an early-stopping rule watches the sampled out-of-band power and
returns the last iterate that still improved it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import LogBarrierProblem, OracleConfig, logbarrier_solve
from .errors import ConfigError, NumericalError
from .metrics import oobe_power
from .projections import project_columns_ball, project_frobenius_ball
from .unconstrained import (AdmmConfig, SolverReport, SspConfig, _evm_wideband,
                            consensus_admm, mask_bounds, ssp_dual_sweeps, ssp_primal)


@dataclass(frozen=True)
class EvmConstraint:
    """Error budget as fractions of the reference grid's norms.

    mode "wideband": one fraction eps_avg bounding ||Xbar - X||_F relative
    to ||X||_F.  mode "frequency_selective": one fraction per active
    subcarrier (offset order) bounding each column's error relative to that
    column's norm.
    """

    mode: str
    eps_avg: float = None
    eps: np.ndarray = None

    def __post_init__(self):
        if self.mode == "wideband":
            if self.eps_avg is None or self.eps_avg < 0:
                raise ConfigError("wideband budget needs eps_avg >= 0", field="evm.eps_avg")
        elif self.mode == "frequency_selective":
            if self.eps is None:
                raise ConfigError("frequency-selective budget needs per-subcarrier eps", field="evm.eps")
            eps = np.asarray(self.eps, dtype=float)
            if np.any(eps < 0):
                raise ConfigError("per-subcarrier fractions must be non-negative", field="evm.eps")
            object.__setattr__(self, "eps", eps)
        else:
            raise ConfigError("mode must be wideband or frequency_selective", field="evm.mode")

    def projector(self, reference):
        """Projection onto the budget ball(s) around ``reference``."""
        num = reference.numerology
        center = reference.symbols
        if self.mode == "wideband":
            radius = self.eps_avg * float(np.linalg.norm(center))

            def proj(x):
                return project_frobenius_ball(x, center, radius)
            return proj

        if self.eps.size != num.n_active:
            raise ConfigError("per-subcarrier fractions must cover the active band", field="evm.eps")
        radii = np.zeros(num.fft_size)
        col_norms = np.linalg.norm(center, axis=0)
        radii[num.active_bins] = self.eps * col_norms[num.active_bins]

        def proj(x):
            return project_columns_ball(x, center, radii)
        return proj

    def violation(self, reference, candidate):
        """Largest relative budget overshoot (0 means inside everywhere)."""
        center = reference.symbols
        x = np.asarray(getattr(candidate, "symbols", candidate), dtype=complex)
        if self.mode == "wideband":
            budget = self.eps_avg * np.linalg.norm(center)
            err = np.linalg.norm(x - center)
            return float(max(0.0, (err - budget) / max(budget, 1e-300)))
        num = reference.numerology
        bins = num.active_bins
        budget = self.eps * np.linalg.norm(center[:, bins], axis=0)
        err = np.linalg.norm((x - center)[:, bins], axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(budget > 0, (err - budget) / np.where(budget > 0, budget, 1.0),
                           np.where(err > 0, np.inf, 0.0))
        return float(max(0.0, rel.max()))


@dataclass(frozen=True)
class EsspConfig:
    """Douglas-Rachford schedule for the budgeted sweep precoder.

    Both operators are projections (prox of an indicator), so the splitting
    has no step size to set.
    """

    outer_iters: int = 10
    inner_sweeps: int = 2
    relaxation: float = 1.0
    early_stop: bool = True

    def __post_init__(self):
        if self.outer_iters < 1:
            raise ConfigError("outer_iters must be at least 1", field="essp.outer_iters")
        if self.inner_sweeps < 1:
            raise ConfigError("inner_sweeps must be at least 1", field="essp.inner_sweeps")
        if not 0.0 < self.relaxation < 2.0:
            raise ConfigError("relaxation must lie in (0, 2)", field="essp.relaxation")


@dataclass(frozen=True)
class FeasibilityReport:
    """Mask ratios of a candidate grid plus the oracle's epigraph scale."""

    delta_t: float
    feasible: bool
    mask_ratio: np.ndarray


def _per_point_bounds(masks, m_pts, n_tx):
    """Mask bounds as (M, n_tx): shared per point or per-antenna override."""
    gamma = np.asarray(getattr(masks, "gamma", masks), dtype=float)
    if gamma.ndim == 1:
        return np.repeat(mask_bounds(gamma, m_pts)[:, None], n_tx, axis=1)
    if gamma.shape != (m_pts, n_tx):
        raise ConfigError("per-antenna mask must be (n_points, n_tx)", field="mask")
    if np.any(gamma <= 0):
        raise ConfigError("mask bounds must be positive", field="mask")
    return gamma


def eadmm_precode(x, kernel, masks, evm, cfg=None):
    """Consensus ADMM over mask sets and the EVM ball.

    The consensus update projects the mean of the local variables onto the
    ball, so every iterate of the consensus variable satisfies the budget
    exactly; mask satisfaction improves with iterations and is exact in the
    feasible limit.  Returns (DataGrid, SolverReport).
    """
    cfg = cfg or AdmmConfig(iters=40)
    vals = x.symbols
    m_pts = kernel.n_points
    gamma = _per_point_bounds(masks, m_pts, vals.shape[0])
    proj_e = evm.projector(x)
    x_bar, report = consensus_admm(vals, kernel, gamma, cfg, lambda s: proj_e(s / m_pts))
    return x.with_symbols(x_bar), report


def essp_precode(x, kernel, masks, evm, cfg=None):
    """Douglas-Rachford between the mask intersection and the EVM ball.

    The mask prox is approximated by inner_sweeps of the sweep precoder's
    dual core on 2*Xbar - Zbar, batched over antenna rows.  With
    early_stop, iteration halts as soon as the total sampled out-of-band
    power of the new iterate exceeds the previous one's, and the previous
    iterate is returned; the report's returned_iteration names it (0 is the
    input grid).
    """
    cfg = cfg or EsspConfig()
    vals = x.symbols
    a_rows = kernel.active_rows
    u_rows = a_rows.conj()
    gram = kernel.gram
    gamma = mask_bounds(masks, a_rows.shape[0])
    proj_e = evm.projector(x)
    ssp_cfg = SspConfig(sweeps=cfg.inner_sweeps)

    x_bar = vals.copy()
    z_bar = np.zeros_like(vals)
    best = x_bar
    best_oob = float(np.sum(oobe_power(x_bar, kernel)))
    returned_iteration = 0

    entries = []
    stopped = False
    for _ in range(cfg.outer_iters):
        v = 2.0 * x_bar - z_bar
        c0 = np.einsum("mk,jk->jm", a_rows, v)
        y_bar = ssp_primal(v, u_rows, gram, c0, ssp_dual_sweeps(c0, gram, gamma, ssp_cfg)[-1])
        z_bar = z_bar + cfg.relaxation * (y_bar - x_bar)
        x_prev = x_bar
        x_bar = proj_e(z_bar)

        powers = oobe_power(x_bar, kernel)
        entries.append((_evm_wideband(x_bar, vals), powers.max(axis=1),
                        float(np.linalg.norm(y_bar - x_prev)),
                        float(np.linalg.norm(x_bar - x_prev))))
        oob_now = float(np.sum(powers))
        if cfg.early_stop and oob_now > best_oob:
            stopped = True
            break
        best = x_bar
        best_oob = oob_now
        returned_iteration = len(entries)

    report = SolverReport.from_entries(entries, stopped_early=stopped,
                                       returned_iteration=returned_iteration)
    return x.with_symbols(best if cfg.early_stop else x_bar), report


def feasibility_probe(x, kernel, masks, evm, oracle_config=None):
    """Mask ratios of the grid, plus the oracle's joint-feasibility scale.

    On small instances (fft_size <= 64) the log-barrier epigraph problem is
    solved for the smallest mask inflation delta_t compatible with the EVM
    ball; delta_t <= 1 certifies that mask and budget can be met together.
    Larger instances report ratios only (delta_t None).
    """
    num = x.numerology
    vals = x.symbols
    u_rows = kernel.active_rows.conj()
    m_pts = u_rows.shape[0]
    gamma = mask_bounds(masks, m_pts)
    ratios = oobe_power(vals, kernel).max(axis=1) / gamma

    if num.fft_size > 64:
        return FeasibilityReport(delta_t=None, feasible=None, mask_ratio=ratios)

    rank1 = [(u_rows[m], gamma[m]) for m in range(m_pts)]
    if evm.mode == "wideband":
        radius = evm.eps_avg * float(np.linalg.norm(vals))
        problem = LogBarrierProblem(objective="epigraph", reference=vals,
                                    rank1=rank1, frob_ball=(vals, radius))
    else:
        radii = np.zeros(num.fft_size)
        col_norms = np.linalg.norm(vals, axis=0)
        radii[num.active_bins] = evm.eps * col_norms[num.active_bins]
        problem = LogBarrierProblem(objective="epigraph", reference=vals,
                                    rank1=rank1, col_balls=(vals, radii))
    try:
        result = logbarrier_solve(problem, oracle_config or OracleConfig())
    except NumericalError as exc:
        raise NumericalError(f"feasibility oracle did not converge: {exc}; "
                             f"mask ratios of the candidate: {ratios}") from exc
    return FeasibilityReport(delta_t=result.delta_t,
                             feasible=bool(result.delta_t <= 1.0),
                             mask_ratio=ratios)
