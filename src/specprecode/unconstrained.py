"""Mask-compliant precoding without an error budget: consensus ADMM and the
semi-analytical sweep precoder (SSP).

Both solvers perturb a frequency-domain vector d so that every leakage
constraint |a(nu_m)^T dbar|^2 <= gamma_m holds, keeping dbar as close to d as
the iteration allows.  ADMM splits the intersection into M rank-1 sets with a
consensus variable; SSP performs cyclic coordinate ascent on the dual
multipliers mu_m.  Every SSP quantity lives in the span of the M leakage
rows, so the sweeps run on the M x M Gram matrix through the Woodbury
identity: each coordinate solves one M x M system per antenna row, and
N-space work is a few O(MN) products per sweep, none per coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .projections import project_rank1


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


def _oob_powers(u_rows, dbar):
    # Worst row per constraint point: max_j |a_m^T dbar_j|^2.
    vals = np.abs(np.einsum("mk,jk->mj", u_rows.conj(), dbar)) ** 2
    return vals.max(axis=1)


@dataclass(frozen=True)
class AdmmConfig:
    """Penalty, iteration budget, and optional residual-based early exit."""

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
    """Sweep budget, multiplier phase handling, and the dual clamp.

    phase: "track" aligns each coordinate update with the phase of its
    alpha_1 inner product, which is the exact maximizer of that coordinate's
    dual function; a real value fixes phi to that constant instead.
    """

    sweeps: int = 3
    phase: object = "track"
    clamp_nonneg: bool = True

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


@dataclass(frozen=True)
class AdmmState:
    """One consensus iteration's variables, as compute_residuals expects."""

    d_bar: np.ndarray
    d_bar_prev: np.ndarray
    y: np.ndarray
    rho: float


def compute_residuals(state):
    """Consensus residual norms of an ADMM iterate.

    primal = sqrt(sum_m ||y_m - dbar||^2); dual = sqrt(M) * rho *
    ||dbar - dbar_prev||.  Norms are Frobenius over any antenna batch.
    """
    diff = state.y - state.d_bar[None, ...]
    primal = float(np.sqrt(np.sum(np.abs(diff) ** 2)))
    m = state.y.shape[0]
    dual = float(np.sqrt(m) * state.rho * np.linalg.norm(state.d_bar - state.d_bar_prev))
    return primal, dual


def admm_precode(d, kernel, mask, cfg=None):
    """Consensus ADMM over the M rank-1 leakage sets.

    Returns (dbar, SolverReport).  d may be a vector or an (n_tx, N) batch;
    rows are precoded independently (the constraint sets are per row).
    Local variables start at the input point, so a mask-feasible d is a
    fixed point from the first iteration.
    """
    cfg = cfg or AdmmConfig()
    rows, was_vector = _as_rows(d)
    u_rows = kernel.active_rows.conj()     # u_m = a(nu_m)* on the active band
    m_pts = u_rows.shape[0]
    gamma = mask_bounds(mask, m_pts)
    rho = cfg.rho

    y = np.broadcast_to(rows, (m_pts,) + rows.shape).copy()
    z = np.zeros_like(y)
    d_bar = rows.copy()

    evm_t, oob_t, pri_t, dua_t = [], [], [], []
    executed = 0
    for _ in range(cfg.iters):
        d_prev = d_bar
        d_bar = (rows + rho * np.sum(y + z, axis=0)) / (1.0 + rho * m_pts)
        for m in range(m_pts):
            y[m] = project_rank1(d_bar - z[m], u_rows[m], gamma[m])
        z += y - d_bar[None, ...]
        executed += 1

        primal, dual = compute_residuals(AdmmState(d_bar=d_bar, d_bar_prev=d_prev, y=y, rho=rho))
        evm_t.append(_evm_wideband(d_bar, rows))
        oob_t.append(_oob_powers(u_rows, d_bar))
        pri_t.append(primal)
        dua_t.append(dual)
        if cfg.residual_tol is not None and max(primal, dual) <= cfg.residual_tol:
            break

    report = SolverReport(iterations=executed,
                          evm_trace=np.array(evm_t),
                          oob_trace=np.array(oob_t),
                          primal_trace=np.array(pri_t),
                          dual_trace=np.array(dua_t),
                          stopped_early=executed < cfg.iters)
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


def _check_pivots(a):
    """Raise NumericalError when an unpivoted LU pivot of a stacked matrix
    I + K D vanishes.

    Those pivots are the denominators 1 + mu_k u_k^H G_{<k}^(-1) u_k that
    FactoredInverse.push checks when it folds the same terms in index
    order.  With mu >= 0 every pivot is at least 1, so only negative
    multipliers (clamp_nonneg off) call for the check.
    """
    a = a.copy()
    for k in range(a.shape[-1]):
        pivot = a[:, k, k]
        if np.any(np.abs(pivot) < 1e-14):
            raise NumericalError("singular accumulation in rank-1 inverse update")
        a[:, k + 1:, k:] -= (a[:, k + 1:, k] / pivot[:, None])[..., None] * a[:, None, k, k:]


def _dual_solve(gram, mu, rhs):
    """(I + K diag(mu_j))^(-1) rhs_j for every row j, as one stacked solve."""
    a = np.eye(gram.shape[0]) + gram * mu[:, None, :]
    if mu.min() < 0.0:
        _check_pivots(a)
    return np.linalg.solve(a, rhs)


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
    mu = (np.abs(c0) / root - 1.0) / lam1
    if cfg.clamp_nonneg:
        mu = np.maximum(mu, 0.0)

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
            mu[:, m] = np.maximum(mu_new, 0.0) if cfg.clamp_nonneg else mu_new
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
    coordinate: one for the primal point and two for its report per sweep.
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

    evm_t, oob_t, pri_t, dua_t = [], [], [], []
    for mu in mus:
        out = ssp_primal(rows, u_rows, gram, c0, mu)
        c = np.einsum("mk,jk->mj", a_rows, out)
        recon = out + np.einsum("jm,mk->jk", mu * c.T, u_rows)
        evm_t.append(_evm_wideband(out, rows))
        oob_t.append((np.abs(c) ** 2).max(axis=1))
        pri_t.append(float(np.linalg.norm(recon - rows, axis=1).max()))
        dua_t.append(float(np.max(np.abs(mu * (np.abs(c.T) ** 2 - gamma)) / gamma)))

    report = SolverReport(iterations=cfg.sweeps,
                          evm_trace=np.array(evm_t),
                          oob_trace=np.array(oob_t),
                          primal_trace=np.array(pri_t),
                          dual_trace=np.array(dua_t),
                          multipliers=mus[-1, 0] if was_vector else mus[-1])
    return (out[0] if was_vector else out), report
