"""Mask-compliant precoding without an error budget: consensus ADMM and the
semi-analytical sweep precoder (SSP).

Both solvers perturb a frequency-domain vector d so that every leakage
constraint |a(nu_m)^T dbar|^2 <= gamma_m holds, keeping dbar as close to d as
the iteration allows.  ADMM splits the intersection into M rank-1 sets with a
consensus variable; its loop (consensus_admm) also serves EADMM, with the
error-budget ball in place of the quadratic objective.  Each rank-1
projection moves its point only along its leakage row, so the loop keeps
one complex coefficient per set and antenna row instead of M copies of the
grid: its own N-space work is two O(MN) products per iteration.  SSP
performs cyclic coordinate ascent on the dual multipliers mu_m.  Every SSP
quantity lives in the span of the M leakage rows, so the sweeps run on the
M x M Gram matrix through the Woodbury identity: each coordinate solves one
M x M system per antenna row, and N-space work is a few O(MN) products per
sweep, none per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateConstraintError, NumericalError
from .metrics import oobe_power


def mask_bounds(mask, n_points):
    """Accept a MaskSpec-like object (``gamma`` attribute) or a plain array."""
    gamma = np.asarray(getattr(mask, "gamma", mask), dtype=float)
    if gamma.shape != (n_points,):
        raise ConfigError("mask must provide one bound per kernel row", field="mask")
    if np.any(gamma <= 0):
        raise ConfigError("mask bounds must be positive", field="mask")
    return gamma


def _as_rows(d):
    d = np.asarray(d, dtype=complex)
    if not np.all(np.isfinite(d)):
        raise ConfigError("input grid contains non-finite values", field="d")
    return (d[None, :], True) if d.ndim == 1 else (d, False)


def _evm_wideband(dbar, d):
    ref = np.linalg.norm(d)
    return float(np.linalg.norm(dbar - d) / ref) if ref > 0 else 0.0


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
        if not self.rho > 0:
            raise ConfigError("rho must be positive", field="admm.rho")
        if self.iters < 1:
            raise ConfigError("iteration count must be at least 1", field="admm.iters")
        if self.residual_tol is not None and self.residual_tol < 0:
            raise ConfigError("residual_tol must be non-negative", field="admm.residual_tol")


@dataclass(frozen=True)
class SspConfig:
    """Sweep budget and multiplier phase handling.

    phase: "track" aligns each coordinate update with the phase of its
    alpha_1 inner product, which is the exact maximizer of that coordinate's
    dual function; a real value fixes phi to that constant instead.  The
    multipliers are always kept non-negative.
    """

    sweeps: int = 3
    phase: object = "track"

    def __post_init__(self):
        if self.sweeps < 1:
            raise ConfigError("sweep count must be at least 1", field="ssp.sweeps")
        if self.phase != "track":
            try:
                object.__setattr__(self, "phase", float(self.phase))
            except (TypeError, ValueError):
                raise ConfigError('phase must be "track" or a real number', field="ssp.phase") from None


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

    @classmethod
    def from_entries(cls, entries, **extra):
        """Report from per-iteration (evm, oob, primal, dual) tuples."""
        evm, oob, primal, dual = (np.array(t) for t in zip(*entries))
        return cls(iterations=len(entries), evm_trace=evm, oob_trace=oob,
                   primal_trace=primal, dual_trace=dual, **extra)


def consensus_admm(rows, kernel, gamma, cfg, x_update):
    """Consensus ADMM over the M rank-1 leakage sets of every antenna row.

    rows (n_tx, N) is the input and the EVM reference, gamma (M, n_tx) holds
    the per-row bounds, and x_update maps the summed local variables
    sum_m (y_m + z_m) to the next consensus iterate.  Local variables start
    at the input and duals at zero, so a mask-feasible input is a fixed
    point from the first iteration.  Returns (x_bar, SolverReport).

    The projection onto set m moves its argument only along u_m = a(nu_m)*,
    so every dual stays z_m = beta_m u_m and every local variable
    y_m = x_bar + (delta_m - beta_m) u_m, where delta_m is the step of the
    latest projection and beta_m the dual before it.  The loop holds these
    (M, n_tx) coefficients instead of the N-space copies: per iteration,
    c = A x_bar - beta diag(K) gives u_m^H (x_bar - z_m), delta is the
    closed-form rank-1 step where |c|^2 > gamma (0 inside), the consensus
    input is M x_bar + (2 delta - beta)^T U, and the primal residual
    sqrt(sum_m ||y_m - x_bar||^2) is sqrt(sum |delta - beta|^2 K_mm).
    """
    a_rows = kernel.active_rows
    u_rows = a_rows.conj()
    k_diag = kernel.gram.diagonal().real[:, None]     # ||u_m||^2
    if np.any(k_diag <= 0):
        raise DegenerateConstraintError("a kernel row vanishes on the active band")
    m_pts = a_rows.shape[0]
    root = np.sqrt(gamma)
    beta = delta = np.zeros(gamma.shape, dtype=complex)
    x_bar = rows.copy()
    entries = []
    for _ in range(cfg.iters):
        x_prev = x_bar
        x_bar = x_update(m_pts * x_prev + (2.0 * delta - beta).T @ u_rows)
        beta = delta
        c = a_rows @ x_bar.T - beta * k_diag
        mag = np.abs(c)
        coef = np.zeros_like(mag)
        np.divide(root - mag, k_diag * mag, out=coef, where=mag ** 2 > gamma)
        delta = coef * c

        primal = float(np.sqrt(np.sum(np.abs(delta - beta) ** 2 * k_diag)))
        dual = float(np.sqrt(m_pts) * cfg.rho * np.linalg.norm(x_bar - x_prev))
        entries.append((_evm_wideband(x_bar, rows), oobe_power(x_bar, kernel).max(axis=1),
                        primal, dual))
        if cfg.residual_tol is not None and max(primal, dual) <= cfg.residual_tol:
            break
    return x_bar, SolverReport.from_entries(entries, stopped_early=len(entries) < cfg.iters)


def admm_precode(d, kernel, mask, cfg=None):
    """Consensus ADMM over the M rank-1 leakage sets.

    Returns (dbar, SolverReport).  d may be a vector or an (n_tx, N) batch;
    rows are precoded independently (the constraint sets are per row).
    """
    cfg = cfg or AdmmConfig()
    rows, was_vector = _as_rows(d)
    m_pts = kernel.n_points
    gamma = np.broadcast_to(mask_bounds(mask, m_pts)[:, None], (m_pts, rows.shape[0]))
    d_bar, report = consensus_admm(rows, kernel, gamma, cfg,
                                   lambda s: (rows + cfg.rho * s) / (1.0 + cfg.rho * m_pts))
    return (d_bar[0] if was_vector else d_bar), report


class FactoredInverse:
    """(I + sum_k mu_k u_k u_k^H)^(-1) held as a product of rank-1 downdates.

    Each push folds one term into the inverse through the update
    B_new^(-1) = B^(-1) - (mu g) w w^H with w = B^(-1) u and
    g = 1 / (1 + mu u^H w), so applying the inverse to a vector costs one
    pass over the stored pairs and nothing is ever factorized.
    """

    def __init__(self, n):
        self.n = n
        self._pairs = []   # (w, coef) with coef = mu * g

    def apply(self, v):
        """B^(-1) v for the current accumulation."""
        x = np.array(v, dtype=complex)
        for w, coef in self._pairs:
            x -= (coef * np.vdot(w, v)) * w
        return x

    def push(self, u, mu):
        if mu == 0.0:
            return
        w = self.apply(u)
        denom = 1.0 + mu * np.vdot(u, w).real
        if abs(denom) < 1e-14:
            raise NumericalError("singular accumulation in rank-1 inverse update")
        self._pairs.append((w, mu / denom))

    def dense(self):
        out = np.eye(self.n, dtype=complex)
        for w, coef in self._pairs:
            out -= coef * np.outer(w, w.conj())
        return out


def inverse_sum_rank1(mu, kernel):
    """Explicit (I + sum_m mu_m u_m u_m^H)^(-1) with u_m = a(nu_m)*.

    Folds the M rank-1 terms into a FactoredInverse and expands it; raises
    NumericalError when an update denominator vanishes (possible only with
    negative multipliers).
    """
    mu = np.asarray(mu, dtype=float)
    u_all = kernel.matrix.conj()
    if mu.shape != (u_all.shape[0],):
        raise ConfigError("one multiplier per kernel row is required", field="mu")
    inverse = FactoredInverse(u_all.shape[1])
    for u, mu_m in zip(u_all, mu):
        inverse.push(u, mu_m)
    return inverse.dense()


def _dual_solve(gram, mu, rhs):
    """(I + K diag(mu_j))^(-1) rhs_j for every row j, as one stacked solve.

    With mu >= 0 every unpivoted LU pivot of I + K D is at least 1, so the
    system is never singular.
    """
    return np.linalg.solve(np.eye(gram.shape[0]) + gram * mu[:, None, :], rhs)


def ssp_dual_sweeps(c0, gram, gamma, cfg):
    """Cyclic coordinate ascent on the M mask multipliers of every row.

    c0 = U^H d is (n_tx, M) and gram K = U^H U, with u_m = a(nu_m)* the
    columns of U.  Woodbury gives U^H (I + U D U^H)^(-1) = (I + K D)^(-1) U^H,
    so coordinate m reads alpha_1 = u_m^H G_{\\m}^(-1) d and
    alpha_2 = u_m^H G_{\\m}^(-1) u_m off one M x M solve
    (I + K D_{\\m}) [y, Y] = [c0, K[:, m]] per row: alpha_1 = y_m,
    alpha_2 = Re Y_m.  Returns the multipliers after every sweep,
    shape (sweeps, n_tx, M).
    """
    m_pts = gram.shape[0]
    lam1 = gram.diagonal().real
    if np.any(lam1 <= 0):
        raise ConfigError("a kernel row vanishes on the active band", field="kernel")
    root = np.sqrt(gamma)

    # Exact single-constraint multipliers as the starting point: for M = 1
    # this is already the optimum, and a feasible d starts (and stays) at 0.
    mu = np.maximum((np.abs(c0) / root - 1.0) / lam1, 0.0)

    rhs = np.empty(c0.shape + (2,), dtype=complex)
    rhs[..., 0] = c0
    out = np.empty((cfg.sweeps,) + mu.shape)
    for s in range(cfg.sweeps):
        for m in range(m_pts):
            others = mu.copy()
            others[:, m] = 0.0
            rhs[..., 1] = gram[:, m]
            sol = _dual_solve(gram, others, rhs)
            alpha1 = sol[:, m, 0]
            alpha2 = sol[:, m, 1].real
            phi = np.angle(alpha1) if cfg.phase == "track" else cfg.phase
            mu_new = ((alpha1 * np.exp(-1j * phi)).real - root[m]) / (root[m] * alpha2)
            mu[:, m] = np.maximum(mu_new, 0.0)
        out[s] = mu
    return out


def ssp_primal(rows, u_rows, gram, c0, mu):
    """x = d - U diag(mu) c with c = (I + K diag(mu))^(-1) c0, row by row:
    the Woodbury form of (I + sum_m mu_m u_m u_m^H)^(-1) d, with the u_m
    stacked as the rows of ``u_rows``."""
    c = _dual_solve(gram, mu, c0[..., None])[..., 0]
    return rows - np.einsum("jm,mk->jk", mu * c, u_rows)


def ssp_precode(d, kernel, mask, cfg=None):
    """Cyclic coordinate ascent on the dual of the mask projection.

    The sweeps run on the M-dimensional dual core (ssp_dual_sweeps): each
    coordinate solves one M x M system per antenna row and sets its
    multiplier in closed form.  N-space work is O(MN) products, none per
    coordinate: one for the primal point and three for its report per sweep.
    Returns (dbar, SolverReport) with one trace entry per sweep; the
    report's residual slots hold the stationarity norm
    ||(I + sum mu A) dbar - d||, evaluated in primal space, and the worst
    relative complementarity defect.
    """
    cfg = cfg or SspConfig()
    rows, was_vector = _as_rows(d)
    a_rows = kernel.active_rows
    u_rows = a_rows.conj()
    gram = kernel.gram
    gamma = mask_bounds(mask, a_rows.shape[0])
    c0 = np.einsum("mk,jk->jm", a_rows, rows)
    mus = ssp_dual_sweeps(c0, gram, gamma, cfg)

    entries = []
    for mu in mus:
        out = ssp_primal(rows, u_rows, gram, c0, mu)
        c = np.einsum("mk,jk->mj", a_rows, out)
        recon = out + np.einsum("jm,mk->jk", mu * c.T, u_rows)
        powers = oobe_power(out, kernel)
        entries.append((_evm_wideband(out, rows), powers.max(axis=1),
                        float(np.linalg.norm(recon - rows, axis=1).max()),
                        float(np.max(np.abs(mu * (powers.T - gamma)) / gamma))))
    report = SolverReport.from_entries(entries, multipliers=mus[-1, 0] if was_vector else mus[-1])
    return (out[0] if was_vector else out), report
