"""Mask-compliant precoding under an error-vector budget.

EADMM runs consensus ADMM over the M rank-1 leakage sets plus the EVM ball,
so every reported iterate sits exactly inside the budget (the consensus
variable is the image of the ball projection).  ESSP wraps the sweep
precoder in Douglas-Rachford splitting between the mask intersection and the
ball: its mask prox is SSP's dual core, the multipliers and one array
[W | c] per antenna row, set up by one stacked solve per block
(unconstrained.ssp_core) and warm-started from one outer iteration to the
next: the core is carried, re-centred on each new prox centre without a
solve, and advanced by inner_sweeps of the same sweep that SSP's step
makes (ssp_sweep).  When mask and budget cannot both be met the iteration
has no fixed point, so an early-stopping rule watches the sampled
out-of-band power and returns the last iterate that still improved it.
Both iterate on the active-band loop of unconstrained.py
(_band_iterations), as ADMM and SSP do, which gathers the band, stops each
symbol on its own rule and scatters the result.  The budget's mode picks
the form of the iterates there: a wideband ball scales whole symbols, so
every iterate stays in span{d_r, U} per antenna row and both solvers run
on M + 1 coefficients per row, with M x M products only, measuring each
symbol's error on the band once, at the scatter; a frequency-selective
budget scales each subcarrier on its own, so the same step bodies run on
band arrays, with O(M n_active) products per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import LogBarrierProblem, logbarrier_solve
from .errors import ConfigError, NumericalError
from .metrics import oobe_power
from .projections import _column_norms, _inward_radius, _symbol_norms
from .unconstrained import (AdmmConfig, _as_block, _band_iterations, _on_band, _unblock,
                            consensus_admm, mask_bounds, ssp_core, ssp_sweep)


@dataclass(frozen=True)
class EvmConstraint:
    """Error budget as fractions of the reference grid's norms.

    mode "wideband": one fraction eps_avg bounding ||Xbar - X||_F relative
    to ||X||_F.  mode "frequency_selective": one fraction per active
    subcarrier (offset order) bounding each column's error relative to that
    column's norm.  The balls are derived in one place, band_balls, on the
    active band in bin order; the solvers project onto them through their
    deviation forms and violation checks them.
    """

    mode: str
    eps_avg: float = None
    eps: np.ndarray = None

    def __post_init__(self):
        if self.mode == "wideband":
            if self.eps_avg is None or not 0 <= self.eps_avg < np.inf:     # NaN fails
                raise ConfigError("wideband budget needs a finite eps_avg >= 0",
                                  field="evm.eps_avg")
        elif self.mode == "frequency_selective":
            if self.eps is None:
                raise ConfigError("frequency-selective budget needs per-subcarrier eps", field="evm.eps")
            eps = np.asarray(self.eps, dtype=float)
            if not np.all((eps >= 0) & (eps < np.inf)):
                raise ConfigError("per-subcarrier fractions must be non-negative and finite",
                                  field="evm.eps")
            object.__setattr__(self, "eps", eps)
        else:
            raise ConfigError("mode must be wideband or frequency_selective", field="evm.mode")

    @property
    def in_span(self):
        """Whether the iterates of a solver under this budget stay in
        span{d_r, U} on every antenna row r: under the wideband budget,
        whose ball scales whole symbols, and not under the
        frequency-selective one, whose balls scale each subcarrier on its
        own.  The one rule that picks the form of the active-band loop
        (unconstrained.span_form)."""
        return self.mode == "wideband"

    def band_balls(self, block, numerology):
        """The budget balls of every symbol of block, the one place they
        are derived, on the active band (numerology.band_bins, in bin
        order, where the solvers keep their iterates): (dist, radii,
        inner).  block holds full grids (S, n_tx, N) or their
        active bands (S, n_tx, n_active); the guard bins of a data grid are
        zero, so either gives the same balls up to the rounding of the
        norms' sums.

        dist maps a stack of band deviations (S', n_tx, n_active) to their
        distances from the centers (for the wideband budget, through
        ``norms``, which maps the stack to its per-symbol norms and
        defaults to _symbol_norms, so that the active-band loop's span
        coefficients are measured by the same one scale per symbol),
        radii are the balls' radii and inner the radii pulled in by
        _inward_radius for the centers' norms, all shaped to broadcast
        against the deviations: (S, 1, 1) for the wideband budget, one
        ball per symbol whose radius is eps_avg times the norm of the
        whole symbol, and (S, 1, n_active) for the frequency-selective
        one, one ball per active subcarrier of radius eps_k times its
        column's norm, whose distances are the column norms over the
        antennas, sqrt(sum re^2 + im^2), from one real square-and-sum
        (_column_norms).  A guard bin has no ball, but a wideband ball
        counts the guard bins among its n_tx N entries.  The solvers'
        deviation forms and violation measure with the same dist, so the
        inward radii that a projection (_project_balls) scales to are the
        ones that violation checks.  A radius that overflows is infinite,
        and so is its inward radius.  Whether the solvers' iterates stay in
        span{d_r, U} under these balls is in_span's to say.
        """
        if self.mode == "wideband":
            def dist(dev, norms=_symbol_norms):
                return norms(dev)[:, None, None]
            norms = dist(block)
            with np.errstate(over="ignore"):
                radii = self.eps_avg * norms
            size = block.shape[1] * numerology.fft_size
        else:
            if self.eps.size != numerology.n_active:
                raise ConfigError("per-subcarrier fractions must cover the active band",
                                  field="evm.eps")

            def dist(dev, norms=None):
                return _column_norms(dev)
            if block.shape[-1] != numerology.n_active:
                block = block.take(numerology.band_bins, axis=-1)
            norms = dist(block)
            # eps is in offset order, the band in bin order
            with np.errstate(over="ignore"):
                radii = self.eps[np.argsort(numerology.active_bins)] * norms
            size = block.shape[1]
        return dist, radii, _inward_radius(radii, norms, size)

    def violation(self, reference, candidate):
        """Largest relative budget overshoot (0 means inside everywhere).

        The overshoot of a ball is (error - radius) / radius over the balls
        of band_balls; a ball of radius 0 is overshot infinitely by any
        nonzero error, in either mode.  Only the active band is read: the
        guard bins of a DataGrid are zero, and every precoder leaves them
        so.  A block reference (S, n_tx, N) gives each symbol of the
        candidate its own ball(s) and returns the worst overshoot over the
        symbols.
        """
        center = reference.symbols
        block = center.reshape((-1,) + center.shape[-2:])
        x = np.asarray(getattr(candidate, "symbols", candidate), dtype=complex)
        bins = reference.numerology.band_bins
        dist, radii, _ = self.band_balls(block, reference.numerology)
        err = dist((x.reshape(block.shape) - block)[..., bins])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(radii > 0, (err - radii) / np.where(radii > 0, radii, 1.0),
                           np.where(err > 0, np.inf, 0.0))
        return float(max(0.0, rel.max()))


@dataclass(frozen=True)
class EsspConfig:
    """Douglas-Rachford schedule for the budgeted sweep precoder.

    Both operators are projections (prox of an indicator), so the splitting
    has no step size to set, and it is not relaxed: plain Douglas-Rachford.
    """

    outer_iters: int = 10
    inner_sweeps: int = 2
    early_stop: bool = True

    def __post_init__(self):
        if self.outer_iters < 1:
            raise ConfigError("outer_iters must be at least 1", field="essp.outer_iters")
        if self.inner_sweeps < 1:
            raise ConfigError("inner_sweeps must be at least 1", field="essp.inner_sweeps")


@dataclass(frozen=True)
class FeasibilityReport:
    """Mask ratios of a candidate grid plus the oracle's epigraph scale."""

    delta_t: float
    feasible: bool
    mask_ratio: np.ndarray


def _as_grid_block(x, kernel):
    """The symbols of the DataGrid x as an (S, n_tx, N) block
    (unconstrained._as_block), once its numerology is the kernel's: the
    same FFT size, cyclic prefix and active subcarriers."""
    num, ref = ((n.fft_size, n.cp_len, n.active_offsets.tolist())
                for n in (x.numerology, kernel.numerology))
    if num != ref:
        raise ConfigError("the grid's numerology is not the kernel's", field="x.numerology")
    return _as_block(x.symbols, kernel)


def eadmm_precode(x, kernel, masks, evm, cfg=None):
    """Consensus ADMM over mask sets and the EVM ball.

    The consensus update projects the mean of the local variables onto the
    ball, so every iterate of the consensus variable satisfies the budget
    exactly; mask satisfaction improves with iterations and is exact in the
    feasible limit.  consensus_admm iterates on deviations from the input,
    so the update is the zero-centred projection of the mean deviation.
    masks is a MaskSpec or an (M,) array of bounds (mask_bounds), shared by
    every antenna row as in the other solvers.  x holds one symbol or an
    (S, n_tx, N) block, each symbol under its own ball.  Returns
    (DataGrid, SolverReport), one report per symbol for a block.
    """
    out, report = _unblock(x.symbols.shape, *_on_band(
        consensus_admm, _as_grid_block(x, kernel), kernel, mask_bounds(masks, kernel.n_points),
        cfg or AdmmConfig(iters=40), evm))
    return x.with_symbols(out), report


def essp_precode(x, kernel, masks, evm, cfg=None):
    """Douglas-Rachford between the mask intersection and the EVM ball.

    The mask prox is approximated by inner_sweeps of the sweep precoder's
    dual core (ssp_sweep) on 2*Xbar - Zbar, batched over antenna rows and
    symbols.  The prox is warm-started: the block's one ssp_core call sets
    up the core (mu, [W | c]) at the first prox centre 2 d, and every outer
    iteration carries mu and W on and re-centres c on its own centre's
    leakage c0 as c = (I + K D)^(-1) c0 = c0 - W (mu c0), one M x M
    product per row and no solve.  The iteration is a start/step pair on
    _band_iterations, whose state holds the deviations from the active band
    d of the input, starting at e_x = 0 and e_z = -d, and the core:
    e_v = 2 e_x - e_z, c0 = A d + A e_v, e_y = e_v - U (mu c) after the
    sweeps, e_z += e_y - e_x, and e_x the zero-centred ball projection of
    e_z (form.project).  The leakage A x is A d plus A e_x.
    Under a wideband budget every deviation is alpha d + U xi per antenna
    row, with one alpha per symbol (-1 for the first e_z), so
    the loop holds (xi, alpha) and c0, the leakage and the ball's distances
    come from M x M products; the one band-wide step is the scatter, where
    each symbol's error is checked against its ball.  With early_stop, a
    symbol stops as soon as the total sampled out-of-band power of its new
    iterate exceeds the previous one's and returns the previous iterate,
    so the report's returned_iteration, the iterate returned (0 is the
    input grid), is iterations - 1 for a symbol that stopped, also on the
    last iteration (where stopped_early is False), and iterations for one
    that ran out.  x holds one symbol or an (S, n_tx, N) block, each
    symbol under its own ball.  Returns (DataGrid, SolverReport), one
    report per symbol for a block.
    """
    out, report = _unblock(x.symbols.shape, *_on_band(
        _essp_block, _as_grid_block(x, kernel), kernel, mask_bounds(masks, kernel.n_points),
        cfg or EsspConfig(), evm))
    return x.with_symbols(out), report


def _essp_block(band, kernel, gamma, cfg, budget):
    """essp_precode on the active bands (S, n_tx, n_active) of a block, in
    bin order, and checked (M,) bounds gamma (mask_bounds): (precoded
    band, BlockTraces), the report holding each symbol's returned
    iterate."""
    m_pts = kernel.n_points

    def start(form, band):
        # the one stacked solve of the block, at the first prox centre 2 d
        ad = form.ad
        return ((form.zeros(), -form.reference(band), np.sum(np.abs(ad) ** 2, axis=(1, 2)))
                + ssp_core(ad + ad, kernel.gram, gamma))

    def step(form, state):
        dev_x, dev_z, best_oob, mu, core = state
        dev_v = 2.0 * dev_x
        dev_v -= dev_z                                  # e_v = 2 e_x - e_z
        # re-centre the carried core: c = B^(-1) c0 = c0 - W (mu c0)
        c0 = form.ad + form.leak(dev_v)
        core = core.copy()
        core[..., m_pts] = c0 - np.matmul(core[..., :m_pts], (mu * c0)[..., None])[..., 0]
        for _ in range(cfg.inner_sweeps):
            mu, core = ssp_sweep(mu, core, gamma)
        move = form.span(-mu * core[..., m_pts])
        move += dev_v
        move -= dev_x                                   # e_y - e_x
        dev_z += move
        dev_prev = dev_x
        dev_x = form.project(dev_z)

        powers = np.abs(form.ad + form.leak(dev_x)) ** 2      # (S, n_tx, M)
        oob_now = np.sum(powers, axis=(1, 2))
        stop = oob_now > best_oob if cfg.early_stop else None
        primal = form.norms(move)
        # move is needed no more; dev_prev is returned
        dual = form.norms(np.subtract(dev_x, dev_prev, out=move))
        entries = (powers.max(axis=1), primal, dual)
        return (dev_x, dev_z, oob_now, mu, core), entries, stop, dev_prev

    out, traces = _band_iterations(band, kernel, cfg.outer_iters, start, step, budget)
    traces.returned_iteration = traces.iterations - traces.stopped
    return out, traces


def feasibility_probe(x, kernel, masks, evm):
    """Mask ratios of the grid, plus the oracle's joint-feasibility scale.

    On small instances (fft_size <= 64) the log-barrier epigraph problem is
    solved, at OracleConfig's defaults, for the smallest mask inflation
    delta_t compatible with the EVM ball; delta_t <= 1 certifies that mask
    and budget can be met together.  The problem is posed on the grid's
    active band in bin order (numerology.band_bins), with the band rows
    and the balls of EvmConstraint.band_balls: the guard bins carry no
    data, leakage row or ball.  Larger instances report ratios only
    (delta_t None).  x holds one (n_tx, N) grid.
    """
    num = x.numerology
    vals = x.symbols
    if vals.ndim != 2:
        raise ConfigError("feasibility_probe takes one (n_tx, N) grid, "
                          f"not a block of shape {vals.shape}")
    u_rows = kernel.band_rows.conj()
    m_pts = u_rows.shape[0]
    gamma = mask_bounds(masks, m_pts)
    ratios = oobe_power(vals, kernel).max(axis=1) / gamma

    if num.fft_size > 64:
        return FeasibilityReport(delta_t=None, feasible=None, mask_ratio=ratios)

    band = vals[:, num.band_bins]
    radii = evm.band_balls(vals[None], num)[1][0, 0]
    balls = ({"frob_ball": (band, radii[0])} if evm.mode == "wideband" else
             {"col_balls": (band, radii)})
    problem = LogBarrierProblem(objective="epigraph", reference=band,
                                rank1=[(u_rows[m], gamma[m]) for m in range(m_pts)], **balls)
    try:
        result = logbarrier_solve(problem)
    except NumericalError as exc:
        raise NumericalError(f"feasibility oracle did not converge: {exc}; "
                             f"mask ratios of the candidate: {ratios}") from exc
    return FeasibilityReport(delta_t=result.delta_t,
                             feasible=bool(result.delta_t <= 1.0),
                             mask_ratio=ratios)
