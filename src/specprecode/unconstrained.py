"""Mask-compliant precoding without an error budget: consensus ADMM and the
semi-analytical sweep precoder (SSP).

Both solvers perturb a frequency-domain vector d so that every leakage
constraint |a(nu_m)^T dbar|^2 <= gamma_m holds, keeping dbar as close to d as
the iteration allows.  ADMM splits the intersection into M rank-1 sets with a
consensus variable; its iteration (consensus_admm) also serves EADMM, with
the error-budget ball in place of the quadratic objective.  Each rank-1
projection moves its point only along its leakage row, so the iteration
keeps one complex coefficient per set and antenna row instead of M copies
of the grid.

All four iterative precoders, ADMM, SSP, EADMM and ESSP (constrained.py),
share one active-band loop, _band_iterations, and each is a start/step pair
on it.  The loop gathers the block's active columns d once, in bin order,
forms their leakage A d once, iterates on the deviation e = x - d, stops
every symbol on its own rule and scatters d + e back once; it alone
records the EVM trace.  Without a budget and under a wideband one, every
iterate of every solver lies in span{d_r, U} for each antenna row r (U
the M leakage directions u_m = a(nu_m)*), so the loop holds e as M + 1
coefficients per row (_SpanDeviations) and the iterations touch N-space
only to gather and to scatter; a frequency-selective budget, which scales
each subcarrier on its own, runs the same step bodies on band arrays
(_BandDeviations).  It returns one block report (BlockTraces) of
(iterations, S, ...) trace arrays and per-symbol counts, which the runner
adds whole; only the public *_precode functions split it into per-symbol
SolverReports.

SSP performs cyclic coordinate ascent on the dual multipliers mu_m.  Every
SSP quantity lives in the span of the M leakage rows, so the sweeps run on
the M x M Gram matrix through the Woodbury identity: each antenna row holds
one M x (M + 1) array [W | c] = (I + K D)^(-1) [K | c0], set up by one
stacked solve (ssp_core), and each coordinate of a sweep (ssp_sweep) reads
its step off that array and folds it in as one Sherman-Morrison outer
product of O(M^2) work.  SSP's step is one sweep and ESSP's
Douglas-Rachford prox a set-up and a few sweeps.  Outside the sweeps a
step works on the span coefficients with M x M products (K = U^H U); the
O(M n_active) products are the gather's A d and the scatter's U xi, once
per block each, and, under a frequency-selective budget, a few per
iteration.  FactoredInverse applies the same Woodbury form to N-space
vectors.
Every product of the solvers and of oobe_power runs through _row_products,
one GEMM over a block's antenna rows, whose rows get the same bits in a
block of any size.

Every solver takes a block of S symbols (S, n_tx, N) as well as a single
(n_tx, N) symbol or a single row, and solves one problem per symbol.  The
block shares each numpy call, so the per-call overhead is paid once per
block; every per-symbol quantity is computed by the same operations as for
a block of one, so a symbol's result does not depend on the block it is in.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateConstraintError, NumericalError
from .metrics import _checked_bounds, _row_products
from .projections import _project_balls, _symbol_norms
from .signal_model import _bin_runs


def mask_bounds(mask, n_points):
    """The (M,) bounds of a MaskSpec-like object (``gamma`` attribute) or
    of a plain array, shared by every antenna row: the one form in which
    every solver takes the mask."""
    gamma = np.asarray(getattr(mask, "gamma", mask), dtype=float)
    if gamma.shape != (n_points,):
        raise ConfigError("mask must provide one bound per kernel row", field="mask")
    return _checked_bounds(gamma)


def _as_block(d, kernel):
    """d as an (S, n_tx, N) block: a vector is one row of one symbol and an
    (n_tx, N) grid is one symbol.  N must be the kernel's FFT size."""
    d = np.asarray(d, dtype=complex)
    if d.ndim not in (1, 2, 3):
        raise ConfigError("input must be a row, an (n_tx, N) grid or an (S, n_tx, N) block",
                          field="d")
    if d.shape[-1] != kernel.numerology.fft_size:
        raise ConfigError("input rows must hold the kernel's FFT size of entries", field="d")
    if not np.all(np.isfinite(d)):
        raise ConfigError("input grid contains non-finite values", field="d")
    return d.reshape((1,) * (3 - d.ndim) + d.shape)


def _check_band_rows(kernel):
    """The one check that every constraint set has a direction: a kernel
    row that vanishes on the active band raises.  A row vanishes there when
    its band norm sqrt(K_mm) is at most N eps times its largest entry, the
    roundoff of its N entries: an integer point without a cyclic prefix
    is orthogonal to every subcarrier, and its row holds roundoff alone."""
    floor = kernel.numerology.fft_size * np.finfo(float).eps * np.abs(kernel.matrix).max(axis=1)
    if np.any(kernel.gram.diagonal().real <= floor ** 2):
        raise DegenerateConstraintError("a kernel row vanishes on the active band")


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty, iteration budget, and optional residual-based early exit.

    In EADMM the consensus update is a ball projection of the mean of the
    local variables, so rho cancels from the iterates there: eadmm.rho only
    scales the reported dual residual and with it the residual_tol test.
    """

    rho: float = 10.0
    iters: int = 80
    residual_tol: float = None

    def __post_init__(self):
        if not 0 < self.rho < np.inf:                      # NaN fails too
            raise ConfigError("rho must be positive and finite", field="admm.rho")
        if self.iters < 1:
            raise ConfigError("iteration count must be at least 1", field="admm.iters")
        if self.residual_tol is not None and not 0 <= self.residual_tol < np.inf:
            raise ConfigError("residual_tol must be non-negative and finite",
                              field="admm.residual_tol")


@dataclass(frozen=True)
class SspConfig:
    """Sweep budget: the number of cyclic sweeps over the multipliers."""

    sweeps: int = 3

    def __post_init__(self):
        if self.sweeps < 1:
            raise ConfigError("sweep count must be at least 1", field="ssp.sweeps")


@dataclass
class SolverReport:
    """Per-iteration trace and final solver state.

    trace arrays all have length ``iterations``: wideband EVM, per-point
    out-of-band powers (worst antenna row), and two residual norms.  For
    ADMM the residuals are the consensus primal/dual norms; for SSP the same
    slots carry the KKT stationarity norm and the worst relative
    complementary-slackness defect, since a coordinate method has no
    splitting residuals.
    """

    iterations: int
    evm_trace: np.ndarray
    oob_trace: np.ndarray
    primal_trace: np.ndarray
    dual_trace: np.ndarray
    multipliers: np.ndarray = None
    stopped_early: bool = False
    returned_iteration: int = None

    def __post_init__(self):
        for name in ("evm_trace", "oob_trace", "primal_trace", "dual_trace"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.shape[0] != self.iterations:
                raise ConfigError("trace length must equal iterations executed", field=name)


class BlockTraces:
    """The block report of the active-band loop for a block of S symbols.

    The per-iteration traces evm, oob, primal and dual are (iters, S, ...)
    arrays, filled for the symbols still active at each iteration and zero
    after a symbol stopped.  Per symbol it holds the iteration count and
    whether its stop fired (stopped), and, where a solver sets them, the
    iterate it returned (returned_iteration, ESSP) and its final
    multipliers (SSP), (S, n_tx, M).  The runner adds it whole; the public
    precoders split it into SolverReports (_unblock).
    """

    returned_iteration = multipliers = None

    def __init__(self, iters, n_sym, m_pts):
        self.evm = np.zeros((iters, n_sym))
        self.oob = np.zeros((iters, n_sym, m_pts))
        self.primal = np.zeros((iters, n_sym))
        self.dual = np.zeros((iters, n_sym))
        self.iterations = np.full(n_sym, iters)
        self.stopped = np.zeros(n_sym, dtype=bool)

    def record(self, it, active, evm, oob, primal, dual):
        self.evm[it, active] = evm
        self.oob[it, active] = oob
        self.primal[it, active] = primal
        self.dual[it, active] = dual


def _unblock(d_shape, out, traces):
    """A block result in the caller's layout: the precoded values, and the
    block report as one SolverReport per symbol for a block input, the
    single report otherwise, whose multipliers are (M,) for a single row.
    A symbol stopped early when its stop fired before the last iteration."""
    iters, mult, returned = len(traces.evm), traces.multipliers, traces.returned_iteration
    row_shape = d_shape[-2:-1] + (-1,)
    reports = [SolverReport(iterations=int(n), evm_trace=traces.evm[:n, s],
                            oob_trace=traces.oob[:n, s], primal_trace=traces.primal[:n, s],
                            dual_trace=traces.dual[:n, s], stopped_early=bool(n < iters),
                            multipliers=None if mult is None else mult[s].reshape(row_shape),
                            returned_iteration=None if returned is None else int(returned[s]))
               for s, n in enumerate(traces.iterations)]
    return out.reshape(d_shape), (reports if len(d_shape) == 3 else reports[0])


class _BandDeviations:
    """Deviations e = x - d of a block's iterates from its active band d,
    held as band arrays shaped like d, (S, n_tx, n_active): the form of a
    frequency-selective budget, whose balls scale each subcarrier on its
    own and so take the iterates out of span{d_r, U}.

    The form is the one holder of the per-symbol data of the symbols it
    serves: ad = A d, the reference norms ref_norms = ||d_s|| and, under a
    budget, the balls of EvmConstraint.band_balls, their distance map and
    their radii and inward radii; take(keep) restricts every one of them
    to the symbols keep.  Each solver's step is written once,
    against the few operations that both forms provide on top of linear
    arithmetic (sums, differences and per-symbol scales) of the arrays
    that hold deviations: leak(e) = A e, span(v) = U v for coefficients v
    (S, n_tx, M), the per-row norms row_norms(e) and the per-symbol norms
    norms(e) = ||e_s||, the starting deviations zeros() and
    reference(band) = d, and project(e), e projected onto the symbols'
    zero-centred budget balls (_project_balls) with distances measured
    by the form's own norms.  to_band(e, band) is e as a band array.
    norms, the EVM trace and residual norms of the selective EADMM and
    ESSP, is one np.vecdot per symbol over the contiguous float view of
    its entries: within a few ulps of _symbol_norms, whose bitwise match
    with np.linalg.norm takes two strided dot products, and a symbol's
    value does not depend on its block.
    """

    def __init__(self, kernel, band, ad, ref_norms, dist=None, radii=None, inner=None):
        self.a_cols = kernel.band_rows.T
        self.u_rows = kernel.band_rows.conj()
        self.ad, self.ref_norms, self.dist, self.radii, self.inner = ad, ref_norms, dist, radii, inner

    def take(self, keep):
        new = copy.copy(self)
        new.ad, new.ref_norms = self.ad[keep], self.ref_norms[keep]
        if self.radii is not None:
            new.radii, new.inner = self.radii[keep], self.inner[keep]
        return new

    def zeros(self):
        return np.zeros(self.ad.shape[:-1] + self.u_rows.shape[-1:], dtype=complex)

    def reference(self, band):
        return band

    def leak(self, dev):
        return _row_products(dev, self.a_cols)

    def span(self, coef):
        return _row_products(coef, self.u_rows)

    def row_norms(self, dev):
        return np.linalg.norm(dev, axis=-1)

    @staticmethod
    def norms(dev):
        flat = np.ascontiguousarray(dev, dtype=complex).view(float).reshape(len(dev), -1)
        return np.sqrt(np.vecdot(flat, flat))

    def project(self, dev, out=None):
        return _project_balls(dev, self.dist(dev, self.norms), self.radii, self.inner, out)

    def to_band(self, dev, band):
        """dev itself: a budgeted solver projected it on the band already."""
        return dev


class _SpanDeviations(_BandDeviations):
    """Deviations e_r = alpha d_r + U xi_r of every antenna row r, held as
    (S, n_tx, M + 1) coefficients [xi | alpha]: the form of the iterative
    precoders without a budget and under a wideband one, whose ball scales
    whole symbols.  alpha starts at 0, or at -1 for ESSP's e_z = -d, and
    stays equal on the rows of a symbol.

    It provides the operations of _BandDeviations in M + 1 dimensions per
    row, and holds the per-row ||d_r||^2 (d_sq) as well.  With K = U^H U,
    A U = K and U^H d_r = A d_r (ad), the leakage is A e = K xi + alpha ad
    and adding U v adds v to xi.  The norms come from the factor R of
    U = Q R (kernel.band_factor), as
    ||e_r||^2 = ||R xi||^2 + 2 Re(conj(alpha) ad^H xi) + |alpha|^2 ||d_r||^2:
    ||R xi|| is as accurate as ||U xi|| formed in N-space, where the Gram
    form xi^H K xi would lose half the digits on an ill-conditioned K.
    Every M x M product runs through _row_products, whose rows get the
    same bits in a block of any size, and every sum over a row or a
    symbol's rows in a fixed order, so a symbol's results do not depend
    on its block.  Where every alpha of a stack is zero, as for all
    solvers but ESSP's first iteration, the alpha terms are skipped: they
    would add exact zeros.  Only to_band works in N-space.
    """

    def __init__(self, kernel, band, ad, ref_norms, *balls):
        super().__init__(kernel, band, ad, ref_norms, *balls)
        # K^T and R^T with a zero row for alpha, so that the products take
        # the whole coefficient rows and see xi alone
        self.gram_t, self.factor_t = kernel.span_gram, kernel.span_factor
        self.d_sq = np.vecdot(band, band).real          # ||d_r||^2

    def take(self, keep):
        new = super().take(keep)
        new.d_sq = self.d_sq[keep]
        return new

    def zeros(self):
        return np.zeros(self.ad.shape[:-1] + (self.ad.shape[-1] + 1,), dtype=complex)

    def reference(self, band):
        dev = self.zeros()
        dev[..., -1] = 1.0
        return dev

    def leak(self, dev):
        k_xi, alpha = _row_products(dev, self.gram_t), dev[..., -1:]
        return k_xi + alpha * self.ad if alpha.any() else k_xi

    def span(self, coef):
        dev = np.zeros(coef.shape[:-1] + (coef.shape[-1] + 1,), dtype=complex)
        dev[..., :-1] = coef
        return dev

    def _row_squares(self, dev):
        r_xi = _row_products(dev, self.factor_t)
        sq = np.vecdot(r_xi, r_xi).real
        alpha = dev[..., -1]
        if not alpha.any():
            return sq
        # np.vecdot's rounding follows the layout, so xi is read from a
        # C-contiguous stack, as it is for a block of one
        xi = np.ascontiguousarray(dev)[..., :-1]
        sq += (alpha.conj() * (alpha * self.d_sq + 2.0 * np.vecdot(self.ad, xi))).real
        return np.maximum(sq, 0.0)          # the cross term can cancel below 0

    def row_norms(self, dev):
        return np.sqrt(self._row_squares(dev))

    def norms(self, dev):
        return np.sqrt(np.sum(self._row_squares(dev), axis=-1))

    def to_band(self, dev, band):
        """alpha d + U xi in N-space, the one scatter of the block.  Called
        on the form of the whole block: under a budget, each symbol's error
        is measured there once (_symbol_norms), and a symbol that the
        coefficient-form distances let out of its ball is projected back
        onto it."""
        dev = dev[..., -1:] * band + _row_products(dev[..., :-1], self.u_rows)
        return dev if self.dist is None else _project_balls(dev, self.dist(dev, _symbol_norms),
                                                            self.radii, self.inner)


def _with_band(block, x_band, bins):
    """A copy of block whose columns bins (ascending) hold x_band, written
    one run of consecutive bins at a time (_bin_runs), with the guard
    columns between the runs copied from block: slice assignments cost a
    fraction of a fancy-index scatter into a copy of the block."""
    full = np.empty_like(block)
    col = 0
    for lo, hi, first, stop in _bin_runs(bins):
        full[..., col:first] = block[..., col:first]
        full[..., first:stop] = x_band[..., lo:hi]
        col = stop
    full[..., col:] = block[..., col:]
    return full


def _band_iterations(block, kernel, iters, start, step, budget=None):
    """The active-band loop of the iterative precoders (ADMM, SSP, EADMM,
    ESSP).

    The loop gathers the active columns d of the block (S, n_tx, N) once, in
    bin order (numerology.band_bins), forms their leakage A d once, and runs
    at most ``iters`` iterations on per-symbol state arrays.  ``budget`` is
    the solver's EvmConstraint, None without one; its balls on the band
    and the form of the iterates (EvmConstraint.band_balls) are derived
    once, here.  The iterates are held as deviations e = x - d in one of
    two forms: as coefficients in span{d_r, U} (_SpanDeviations) without
    a budget or under a wideband one, and as band arrays (_BandDeviations)
    under a frequency-selective one.  The form holds every per-symbol
    array of the symbols still iterating: A d, the norms ||d_s|| and the
    balls.  start(form, band) returns the state tuple; its first entry is
    the deviation of the iterate.  step(form, state) advances every
    symbol of the form and returns (state, (oob, primal, dual), stop,
    returns): the new state, the trace entries, a per-symbol stop mask (or
    None) and the deviations that the stopping symbols return.  The loop
    records the EVM trace ||e|| / ||d|| of every iteration, with the norms
    of the whole symbols.  A stopping symbol leaves the state and the form
    (form.take), and the loop ends when no symbol is left.  The returned
    deviations are scattered once: d + e into the band columns of a copy
    of the block, so the guard bins of the input pass through untouched;
    in the span form e is formed there in N-space and budget-checked on
    the form of the whole block (to_band).  Every trace entry is the
    step's own arithmetic on the iterate; the output is not measured
    again.  Returns (block, BlockTraces): the block report's stopped marks
    the symbols whose stop fired, also on the last iteration.  A kernel
    row that vanishes on the band raises first (_check_band_rows).
    """
    _check_band_rows(kernel)
    bins = kernel.numerology.band_bins
    traces = BlockTraces(iters, len(block), kernel.n_points)
    band = block.take(bins, axis=-1)
    active = np.arange(len(block))
    in_span, *balls = (True,) if budget is None else budget.band_balls(block, kernel.numerology)
    whole = form = (_SpanDeviations if in_span else _BandDeviations)(
        kernel, band, _row_products(band, kernel.band_rows.T), _symbol_norms(block), *balls)
    state = start(form, band)
    out = np.empty_like(state[0])
    for it in range(iters):
        state, entries, stop, returns = step(form, state)
        err, ref_norms = form.norms(state[0]), form.ref_norms
        traces.record(it, active, np.divide(err, ref_norms, out=np.zeros_like(err),
                                            where=ref_norms > 0), *entries)
        if stop is None or not stop.any():
            continue
        out[active[stop]] = returns[stop]
        traces.iterations[active[stop]] = it + 1
        traces.stopped[active[stop]] = True
        keep = ~stop
        active, form = active[keep], form.take(keep)
        state = tuple(arr[keep] for arr in state)
        if not active.size:
            break
    out[active] = state[0]
    return _with_band(block, band + whole.to_band(out, band), bins), traces


def consensus_admm(block, kernel, gamma, cfg, budget=None):
    """Consensus ADMM over the M rank-1 leakage sets of every antenna row.

    block (S, n_tx, N) holds S symbols, each the input and EVM reference d
    of its own problem; gamma (M,) holds the checked bounds that every
    antenna row shares (mask_bounds).  The iteration is a start/step pair on
    _band_iterations, whose state is the deviation e = x_bar - d of the
    consensus variable from the input, in the loop's deviation form, and
    the coefficients beta and delta below.  The consensus update maps the
    mean deviation m of the local variables and duals,
    sum_m (y_m + z_m) / M - d, to the next deviation: without a budget it
    is ADMM's weighted mean, the deviation rho M m / (1 + rho M) of
    (d + rho M (d + m)) / (1 + rho M) from d; under ``budget`` (an
    EvmConstraint, which also picks the form) it is EADMM's ball
    projection form.project(m).  The leakage A x_bar is A d plus A e.
    Local variables start at the input and duals at zero, so no set
    projection moves a mask-feasible input: e stays exactly zero, the
    input comes back bitwise and the primal residual stays zero.  Every
    symbol stops on its own residual_tol test and returns its current
    iterate.  Returns (x_bar block, BlockTraces).

    The projection onto set m moves its argument only along u_m = a(nu_m)*,
    so every dual stays z_m = beta_m u_m and every local variable
    y_m = x_bar + (delta_m - beta_m) u_m, where delta_m is the step of the
    latest projection and beta_m the dual before it.  The loop holds these
    coefficients, (n_tx, M) per symbol, instead of the copies of the grid:
    per iteration, c = A x_bar - beta diag(K) gives u_m^H (x_bar - z_m),
    delta is the closed-form rank-1 step where |c|^2 > gamma (0 inside),
    the mean deviation is e + U ((2 delta - beta) / M), and the primal
    residual sqrt(sum_m ||y_m - x_bar||^2) is sqrt(sum |delta - beta|^2 K_mm).
    Without a budget and under a wideband one, e itself is U xi and the
    whole iteration runs on M coefficients per antenna row, with M x M
    products only; under a frequency-selective budget its own work per
    iteration is two O(M n_active) products, one GEMM over the block's
    antenna rows each (_row_products).  The step forms the new iterate in
    the array that form.span returns and projects it there, and writes
    the dual residual's difference over the previous iterate, which it
    needs no more.  The report's leakage powers are |A x_bar|^2 from the
    same product.
    """
    k_diag = kernel.gram.diagonal().real     # ||u_m||^2
    m_pts = k_diag.size
    root = np.sqrt(gamma)
    weight = cfg.rho * m_pts / (1.0 + cfg.rho * m_pts)

    def start(form, band):
        beta = np.zeros(form.ad.shape, dtype=complex)
        return form.zeros(), beta, beta

    def step(form, state):
        dev_prev, beta, delta = state
        dev = form.span((2.0 * delta - beta) / m_pts)
        dev += dev_prev                         # the mean deviation m
        if budget is None:
            dev *= weight
        else:
            form.project(dev, out=dev)
        beta = delta
        ax = form.ad + form.leak(dev)           # (S, n_tx, M)
        c = ax - beta * k_diag
        mag = np.abs(c)
        coef = np.zeros_like(mag)
        np.divide(root - mag, k_diag * mag, out=coef, where=mag ** 2 > gamma)
        delta = coef * c

        primal = np.sqrt(np.sum(np.abs(delta - beta) ** 2 * k_diag, axis=(1, 2)))
        # the step owns the previous iterate and needs it no more
        dual = np.sqrt(m_pts) * cfg.rho * form.norms(np.subtract(dev, dev_prev, out=dev_prev))
        stop = None if cfg.residual_tol is None else np.maximum(primal, dual) <= cfg.residual_tol
        return (dev, beta, delta), ((np.abs(ax) ** 2).max(axis=1), primal, dual), stop, dev
    return _band_iterations(block, kernel, cfg.iters, start, step, budget)


def admm_precode(d, kernel, mask, cfg=None):
    """Consensus ADMM over the M rank-1 leakage sets.

    Returns (dbar, SolverReport).  d may be a vector, an (n_tx, N) symbol or
    an (S, n_tx, N) block, which gets one report per symbol; rows are
    precoded independently (the constraint sets are per row).
    """
    return _unblock(np.shape(d), *consensus_admm(
        _as_block(d, kernel), kernel, mask_bounds(mask, kernel.n_points), cfg or AdmmConfig()))


class FactoredInverse:
    """B^(-1) for B = I + sum_k mu_k u_k u_k^H over the terms pushed so far,
    applied in the Woodbury form that ssp_core solves: with U the columns
    u_k, D = diag(mu) and K = U^H U, B^(-1) = I - U D (I + K D)^(-1) U^H,
    so applying it takes one solve with the terms' Gram matrix and nothing
    of size N x N is factorized.
    """

    def __init__(self, n):
        self.n = n
        self._rows = np.zeros((0, n), dtype=complex)     # u_k^T
        self._mu = np.zeros(0)

    def apply(self, v):
        """B^(-1) v for the current accumulation; v is a vector or an
        (n, k) stack of columns."""
        v = np.asarray(v, dtype=complex)
        u, mu = self._rows, self._mu
        coef = np.linalg.solve(np.eye(mu.size) + (u.conj() @ u.T) * mu,
                               u.conj() @ v.reshape(self.n, -1))
        return v - (u.T @ (mu[:, None] * coef)).reshape(v.shape)

    def push(self, u, mu):
        """Add the term mu u u^H; NumericalError where it makes B singular,
        its Sherman-Morrison denominator 1 + mu u^H B^(-1) u vanishing."""
        if abs(1.0 + mu * np.vdot(u, self.apply(u)).real) < 1e-14:
            raise NumericalError("singular accumulation in rank-1 inverse update")
        self._rows = np.vstack((self._rows, u))
        self._mu = np.append(self._mu, mu)

    def dense(self):
        return self.apply(np.eye(self.n))


def ssp_core(c0, gram, gamma):
    """The dual core of cyclic coordinate ascent on the M mask multipliers.

    c0 = U^H d is (..., M) for any leading row shape and gram K = U^H U,
    with u_m = a(nu_m)* the columns of U.  Woodbury gives
    U^H (I + U D U^H)^(-1) = (I + K D)^(-1) U^H, so the sweeps (ssp_sweep)
    run on a core held per row: the multipliers mu and the one array
    B^(-1) [K | c0] with B = I + K D, (..., M, M + 1), whose first M
    columns are W = (I + K D)^(-1) K and whose last is
    c = (I + K D)^(-1) c0.  Returns (mu, core) at the starting
    multipliers, the core from one stacked solve, kept whole.  Every
    diagonal entry of K must be positive (_check_band_rows).
    """
    m_pts = gram.shape[0]
    lam1 = gram.diagonal().real
    # Exact single-constraint multipliers as the starting point: for M = 1
    # this is already the optimum, and a feasible d starts (and stays) at 0.
    mu = np.maximum((np.abs(c0.reshape(-1, m_pts)) / np.sqrt(gamma) - 1.0) / lam1, 0.0)
    rhs = np.empty(mu.shape + (m_pts + 1,), dtype=complex)
    rhs[..., :m_pts] = gram
    rhs[..., m_pts] = c0.reshape(mu.shape)
    # With mu >= 0 every unpivoted LU pivot of I + K D is at least 1, so the
    # system is never singular.
    core = np.linalg.solve(np.eye(m_pts) + gram * mu[:, None, :], rhs)
    return mu.reshape(c0.shape), core.reshape(c0.shape + (m_pts + 1,))


def ssp_sweep(mu, core, gamma):
    """One cyclic sweep over the M multipliers of every row of the core
    (mu, B^(-1) [K | c0]) of ssp_core; returns the new (mu, core) and
    leaves its arguments unchanged.

    Coordinate m sets mu_m to the exact maximizer of its dual function,
    kept non-negative.  With G_{\\m} = I + U D U^H without mu_m's term,
    alpha_1 = u_m^H G_{\\m}^(-1) d = c_m / t_m and
    alpha_2 = u_m^H G_{\\m}^(-1) u_m = W_mm / t_m by Sherman-Morrison, where
    t_m = 1 - mu_m W_mm = 1 / (1 + mu_m alpha_2) lies in (0, 1]; the
    maximizer (|alpha_1| - sqrt(gamma_m)) / (sqrt(gamma_m) alpha_2), with
    t_m cancelled, reads mu_m' = max((|c_m| / sqrt(gamma_m) - t_m) / W_mm, 0)
    off the core's own entries.  The step Delta = mu_m' - mu_m changes B
    by Delta k_m e_m^T (k_m the column m of K), so the core takes the exact
    rank-1 update core <- core - g W[:, m] core[m, :] with
    g = Delta / (1 + Delta W_mm), where row m of the core is
    e_m^T B^(-1) [K | c0] (Hager, "Updating the inverse of a matrix", SIAM
    Review 1989).  That is one O(M^2) outer product per row and
    coordinate, into a buffer allocated once per call, and no
    factorization.  The sweep works on copies with the rows flattened and
    moved last, (M, R) and (M, M + 1, R), so that every elementwise call of
    a coordinate runs over R contiguous entries; it returns transposed
    views in the caller's layout.
    """
    root = np.sqrt(gamma)
    shape, m_pts = mu.shape, mu.shape[-1]
    mu = mu.reshape(-1, m_pts).T.copy()
    core = core.reshape(-1, m_pts, m_pts + 1).transpose(1, 2, 0).copy()
    update = np.empty_like(core)
    for m in range(m_pts):
        w_mm = core[m, m].real
        denom = 1.0 - mu[m] * w_mm
        if not 0.0 < denom.min() <= denom.max() < np.inf:
            raise NumericalError("rank-1 update of the SSP dual core lost positivity")
        mu_new = np.maximum((np.abs(core[m, m_pts]) / root[m] - denom) / w_mm, 0.0)
        step = mu_new - mu[m]
        gw = (step / (1.0 + step * w_mm)) * core[:, m]
        np.multiply(gw[:, None, :], core[m], out=update)
        core -= update
        mu[m] = mu_new
    return mu.T.reshape(shape), core.transpose(2, 0, 1).reshape(shape + (m_pts + 1,))


def ssp_precode(d, kernel, mask, cfg=None):
    """Cyclic coordinate ascent on the dual of the mask projection.

    The sweeps run on the M-dimensional dual core (ssp_core, ssp_sweep):
    each coordinate reads its multiplier off the Woodbury array [W | c]
    held per antenna row, sets it in closed form and folds the step into
    the array as one rank-1 outer product.  The iteration is a start/step
    pair on _band_iterations, whose state is the deviation e = -U (mu c) of
    the primal point from the band d, the band, the multipliers mu and the
    array [W | c] on c0 = A d; one step is one sweep.  The deviation stays
    in the span of U, so the loop holds it as the coefficients -mu c and
    a sweep's report takes the leakage A dbar = A d + K (-mu c) from
    M x M products; N-space work is the gather's A d and the scatter's
    U (-mu c), once per call.  d may be a vector, an (n_tx, N) symbol or an
    (S, n_tx, N) block, whose rows all share each stacked operation; guard
    bins of the input pass through untouched.  Returns (dbar, SolverReport)
    with one trace entry per sweep, one report per symbol for a block; the
    report's residual slots hold the stationarity norm
    ||(I + sum mu A) dbar - d|| = ||U D (A dbar - c)||, evaluated on the
    coefficients, and the worst relative complementarity defect.  The
    stationarity norm is zero in exact arithmetic: it measures how far the
    rank-1-updated core's c has drifted from the iterate's real leakage
    A dbar, roundoff at realistic masks and large where the core's
    cancellation grows, at masks far below the input's leakage.
    """
    return _unblock(np.shape(d), *_ssp_block(
        _as_block(d, kernel), kernel, mask_bounds(mask, kernel.n_points), cfg or SspConfig()))


def _ssp_block(block, kernel, gamma, cfg):
    """ssp_precode on an (S, n_tx, N) block and checked (M,) bounds gamma
    (mask_bounds): (dbar block, BlockTraces), the report holding the final
    multipliers."""
    m_pts = kernel.n_points
    mu = None

    def start(form, band):
        return (form.zeros(),) + ssp_core(form.ad, kernel.gram, gamma)

    def step(form, state):
        nonlocal mu
        _, mu, core = state
        mu, core = ssp_sweep(mu, core, gamma)
        dev = form.span(-mu * core[..., m_pts])      # -U (mu c): negation is exact
        c = form.ad + form.leak(dev)                  # A dbar
        powers = np.abs(c) ** 2
        defect = np.abs(mu * (powers - gamma)) / gamma
        # (I + sum mu A) dbar - d = e + U (mu A dbar): the core's drift
        entries = (powers.max(axis=1), form.row_norms(dev + form.span(mu * c)).max(axis=1),
                   defect.max(axis=(1, 2)))
        return (dev, mu, core), entries, None, dev

    full, traces = _band_iterations(block, kernel, cfg.sweeps, start, step)
    traces.multipliers = mu
    return full, traces
