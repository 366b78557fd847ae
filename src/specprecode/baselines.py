"""Notch-style baselines and trusted slow oracles.

NSP removes the component of the grid that the leakage rows see, so every
constraint frequency is nulled exactly.  ENSP scales that removal per antenna
row so the error-vector budget is met with equality whenever full nulling
would overspend it.  NSP is the projection precoder of van de Beek,
"Sculpting the multicarrier spectrum: a novel projection precoder" (IEEE
Commun. Lett. 2009), and both notch baselines need numpy alone.  The module also
carries two reference solvers used only for certification: a bisection
search for the rank-1 projection and a log-barrier interior-point solver for
small constrained instances, the one path of the package that loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateConstraintError, NumericalError
from .projections import Rank1Constraint


_DEPENDENT_ROWS = ("leakage rows are linearly dependent; constraint frequencies must "
                   "be distinct")


def _notch_component(rows, d):
    """P d with P = A^H (A A^H)^(-1) A, computed through one solve with the
    M x M row Gram matrix.

    ``d`` may carry leading batch dimensions.  Raises ConfigError when the
    row Gram matrix is numerically rank deficient (coincident points).
    """
    gram = rows @ rows.conj().T
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * eigs[-1]:
        raise ConfigError(_DEPENDENT_ROWS)
    c = np.tensordot(np.asarray(d, dtype=complex), rows, axes=([-1], [1]))
    flat = c.reshape(-1, rows.shape[0])
    try:
        w = np.linalg.solve(gram, flat.T).T.reshape(c.shape)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(_DEPENDENT_ROWS) from exc
    return np.tensordot(w, rows.conj(), axes=([-1], [0]))


def nsp_precode(d, kernel):
    """Null-space projection: d with every constraint frequency nulled.

    Accepts a vector or a batch of rows; the result satisfies
    |a(nu_m)^T result| <= 1e-10 * ||d|| for every point m.
    """
    d = np.asarray(d, dtype=complex)
    return d - _notch_component(kernel.active_rows, d)


def ensp_precode(d, kernel, evm_target):
    """EVM-capped notch: remove alpha * P d with the largest alpha in [0, 1]
    whose error stays within ``evm_target`` as a fraction of ||d||.

    Returns (precoded, alpha); alpha is per row for batched input.  The
    error is exactly alpha * ||P d||, linear in alpha, so the cap is closed
    form.  alpha = 0 signals that precoding was not needed (P d = 0) or that
    the budget is zero.
    """
    if evm_target < 0:
        raise ConfigError("evm_target must be non-negative", field="evm_target")
    d = np.asarray(d, dtype=complex)
    removed = _notch_component(kernel.active_rows, d)
    d_norm = np.linalg.norm(d, axis=-1)
    r_norm = np.linalg.norm(removed, axis=-1)
    safe = np.where(r_norm > 0, r_norm, 1.0)
    alpha = np.where(r_norm > 0, np.minimum(1.0, evm_target * d_norm / safe), 0.0)
    out = d - np.asarray(alpha)[..., None] * removed
    if d.ndim == 1:
        return out, float(alpha)
    return out, alpha


def bisection_rank1_oracle(x, u, b, tol=1e-12, max_iter=200):
    """Reference projection onto {z : |u^H z|^2 <= b} by bisection on mu.

    Searches mu >= 0 in z(mu) = x - (mu / (1 + mu ||u||^2)) u (u^H x) until
    the constraint holds with equality: ||u^H z|^2 - b| <= tol.  Requires a
    violated start and b > 0 (the b = 0 notch is a limit that bisection
    cannot reach at finite mu).
    """
    if b <= 0:
        raise DegenerateConstraintError("bisection oracle requires b > 0")
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    c = np.vdot(u, x)
    if np.abs(c) ** 2 <= b:
        raise DegenerateConstraintError("bisection oracle requires a violated start")
    unorm_sq = float(np.vdot(u, u).real)

    def z_of(mu):
        return x - (mu / (1.0 + mu * unorm_sq)) * u * c

    def h_of(mu):
        # |u^H z(mu)|^2 - b, strictly decreasing in mu.
        return (np.abs(c) / (1.0 + mu * unorm_sq)) ** 2 - b

    lo = 0.0
    hi = 2.0 * (np.abs(c) / np.sqrt(b) - 1.0) / unorm_sq + 1.0
    while h_of(hi) > 0:
        hi *= 2.0
    mid = 0.5 * (lo + hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = h_of(mid)
        if abs(val) <= tol:
            break
        if val > 0:
            lo = mid
        else:
            hi = mid
    return z_of(mid)


@dataclass(frozen=True)
class OracleConfig:
    """Barrier schedule and inner Newton tolerances for the slow oracle."""

    t_initial: float = 1.0
    t_multiplier: float = 10.0
    outer_steps: int = 8
    inner_tol: float = 1e-10
    max_inner: int = 60

    def __post_init__(self):
        if self.t_multiplier <= 1:
            raise ConfigError("barrier multiplier must exceed 1", field="oracle.t_multiplier")
        if self.inner_tol <= 0 or self.t_initial <= 0:
            raise ConfigError("oracle tolerances must be positive", field="oracle")

    @property
    def t_final(self):
        return self.t_initial * self.t_multiplier ** (self.outer_steps - 1)


@dataclass
class LogBarrierProblem:
    """Small convex instance for the reference solver.

    objective "least_squares": closest grid to ``reference`` under the
    rank-1 constraints (rows independent, no balls).  objective "epigraph":
    minimize a common scale delta_t with every rank-1 bound inflated to
    delta_t * b and any balls kept hard; delta_t <= 1 certifies that the
    instance as posed is feasible.
    """

    objective: str
    reference: np.ndarray
    rank1: list = field(default_factory=list)
    frob_ball: tuple = None   # (center, radius) over the whole grid
    col_balls: tuple = None   # (center, radii) per column

    def __post_init__(self):
        if self.objective not in ("least_squares", "epigraph"):
            raise ConfigError("objective must be least_squares or epigraph", field="oracle.objective")
        self.reference = np.atleast_2d(np.asarray(self.reference, dtype=complex))
        self.rank1 = [c if isinstance(c, Rank1Constraint) else Rank1Constraint(u=c[0], b=c[1])
                      for c in self.rank1]
        if not self.rank1:
            raise ConfigError("oracle needs at least one rank-1 constraint", field="oracle.rank1")
        for c in self.rank1:
            if c.b <= 0:
                raise DegenerateConstraintError("log-barrier oracle requires strictly positive bounds")


@dataclass(frozen=True)
class LogBarrierResult:
    solution: np.ndarray
    delta_t: float
    kkt_residual: float
    newton_steps: int
    objective_value: float


def _realify_direction(u):
    # u^H x = p.v + i q.v for v = [Re x; Im x].
    p = np.concatenate([u.real, u.imag])
    q = np.concatenate([-u.imag, u.real])
    return p, q


def _support_indices(problem):
    cols = np.any(problem.reference != 0, axis=0)
    for c in problem.rank1:
        cols |= c.u != 0
    if problem.frob_ball is not None:
        cols |= np.any(np.atleast_2d(np.asarray(problem.frob_ball[0], complex)) != 0, axis=0)
    if problem.col_balls is not None:
        cols |= np.any(np.atleast_2d(np.asarray(problem.col_balls[0], complex)) != 0, axis=0)
    return np.flatnonzero(cols)


def _newton_minimize(fgh, v0, tol, max_iter):
    """Damped Newton with backtracking; fgh returns inf outside the domain."""
    import scipy.linalg

    v = v0.copy()
    steps = 0
    for _ in range(max_iter):
        val, grad, hess = fgh(v)
        if not np.isfinite(val):
            raise NumericalError("barrier minimization started outside its domain")
        try:
            step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(hess), grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        decrement = float(grad @ step)
        if decrement <= 2.0 * tol:
            break
        t = 1.0
        while fgh(v - t * step)[0] > val - 0.25 * t * decrement:
            t *= 0.5
            if t < 1e-14:
                break
        if t < 1e-14:
            break
        v = v - t * step
        steps += 1
    return v, steps


def _solve_ls_row(ref_row, dirs, bounds, config):
    """Least-squares-to-reference for one row under rank-1 constraints.

    The minimizer lies in ref + span{u_m} (any orthogonal component only
    grows the objective without moving a constraint), so the barrier path is
    followed in an orthonormal basis of that span: 2*rank(U) real unknowns
    instead of 2N, with objective, minimizer, and gradient norms unchanged.
    """
    import scipy.linalg

    bounds = np.asarray(bounds, dtype=float)
    u_mat = np.stack(dirs)                       # (M, N)
    c0 = u_mat.conj() @ ref_row                  # u_m^H ref

    # Feasible reference is its own solution (zero multipliers satisfy KKT).
    if np.all(np.abs(c0) ** 2 <= bounds):
        return ref_row.copy(), 0.0, 0, 0.0

    q_full, r_full, _ = scipy.linalg.qr(u_mat.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_full))
    rank = int(np.sum(diag > max(diag[0], 1.0) * 1e-13)) if diag.size else 0
    basis = q_full[:, :rank]                     # orthonormal span of {u_m}
    w_red = basis.conj().T @ u_mat.T             # columns: reduced u_m
    pq = [_realify_direction(w_red[:, m]) for m in range(u_mat.shape[0])]
    off = np.stack([c0.real, c0.imag], axis=1)   # affine part of each form

    def slacks(z):
        vals = np.array([(p @ z + o[0]) ** 2 + (q @ z + o[1]) ** 2
                         for (p, q), o in zip(pq, off)])
        return bounds - vals

    # Strictly interior start: null every constraint direction.
    y0 = np.linalg.lstsq(w_red.conj().T, -c0, rcond=None)[0]
    v = np.concatenate([y0.real, y0.imag])

    def make_fgh(t):
        def fgh(z):
            s = slacks(z)
            if np.any(s <= 0):
                return np.inf, None, None
            val = t * float(z @ z) - float(np.log(s).sum())
            grad = 2.0 * t * z
            hess = 2.0 * t * np.eye(z.size)
            for (p, q), o, s_m in zip(pq, off, s):
                gp, gq = p @ z + o[0], q @ z + o[1]
                dg = 2.0 * (gp * p + gq * q)
                grad += dg / s_m
                hess += 2.0 * (np.outer(p, p) + np.outer(q, q)) / s_m
                hess += np.outer(dg, dg) / s_m ** 2
            return val, grad, hess
        return fgh

    total_steps = 0
    t = config.t_initial
    for _ in range(config.outer_steps):
        v, steps = _newton_minimize(make_fgh(t), v, config.inner_tol, config.max_inner)
        total_steps += steps
        t *= config.t_multiplier

    t_final = config.t_final
    _, grad_t, _ = make_fgh(t_final)(v)
    # With lambda_m = 1/(t s_m) the stationarity residual of the original
    # problem is grad of the barrier objective divided by t; the
    # complementarity residual on the central path is exactly 1/t.  The
    # basis is orthonormal, so reduced and full-space norms coincide.
    kkt = max(float(np.linalg.norm(grad_t)) / t_final, 1.0 / t_final)
    y = v[:rank] + 1j * v[rank:]
    x = ref_row + basis @ y
    return x, kkt, total_steps, float(np.linalg.norm(x - ref_row) ** 2)


def _solve_epigraph(problem, config):
    """min delta_t with |u^H x_j|^2 <= delta_t * b_m and hard balls."""
    ref = problem.reference
    n_rows = ref.shape[0]
    support = _support_indices(problem)
    k = support.size
    refs = ref[:, support]
    pq = [(_realify_direction(c.u[support]), c.b) for c in problem.rank1]

    def split(w):
        rows = [w[j * 2 * k:(j + 1) * 2 * k] for j in range(n_rows)]
        return rows, w[-1]

    def row_complex(vr):
        return vr[:k] + 1j * vr[k:]

    ball_terms = []
    if problem.frob_ball is not None:
        center, radius = problem.frob_ball
        if radius <= 0:
            raise DegenerateConstraintError("epigraph oracle needs a positive ball radius")
        c_rows = [np.concatenate([row.real, row.imag])
                  for row in np.atleast_2d(np.asarray(center, complex))[:, support]]
        ball_terms.append(("frob", c_rows, float(radius) ** 2))
    if problem.col_balls is not None:
        center, radii = problem.col_balls
        radii = np.asarray(radii, dtype=float)[support]
        if np.any(radii <= 0):
            raise DegenerateConstraintError("epigraph oracle needs positive column radii")
        c_cols = np.atleast_2d(np.asarray(center, complex))[:, support]
        ball_terms.append(("cols", c_cols, radii ** 2))

    w0 = np.concatenate([np.concatenate([row.real, row.imag]) for row in refs])
    worst = max(max(((p @ vr) ** 2 + (q @ vr) ** 2) / b for (p, q), b in pq)
                for vr in [w0[j * 2 * k:(j + 1) * 2 * k] for j in range(n_rows)])
    w = np.concatenate([w0, [2.0 * worst + 1e-9]])
    dim = w.size

    def make_fgh(t):
        def fgh(ww):
            rows, dt = split(ww)
            grad = np.zeros(dim)
            hess = np.zeros((dim, dim))
            val = t * dt
            grad[-1] = t
            for j, vr in enumerate(rows):
                off = j * 2 * k
                sl = slice(off, off + 2 * k)
                for (p, q), b in pq:
                    gp, gq = p @ vr, q @ vr
                    s = dt * b - (gp ** 2 + gq ** 2)
                    if s <= 0:
                        return np.inf, None, None
                    val -= np.log(s)
                    dg = 2.0 * (gp * p + gq * q)
                    grad[sl] += dg / s
                    grad[-1] -= b / s
                    hess[sl, sl] += 2.0 * (np.outer(p, p) + np.outer(q, q)) / s \
                        + np.outer(dg, dg) / s ** 2
                    hess[sl, -1] += -b * dg / s ** 2
                    hess[-1, sl] += -b * dg / s ** 2
                    hess[-1, -1] += b ** 2 / s ** 2
            for kind, cval, rad_sq in ball_terms:
                if kind == "frob":
                    diffs = [vr - cr for vr, cr in zip(rows, cval)]
                    s = rad_sq - sum(float(dd @ dd) for dd in diffs)
                    if s <= 0:
                        return np.inf, None, None
                    val -= np.log(s)
                    dvec = np.zeros(dim)
                    for j, dd in enumerate(diffs):
                        dvec[j * 2 * k:(j + 1) * 2 * k] = 2.0 * dd
                    grad += dvec / s
                    hess += np.outer(dvec, dvec) / s ** 2
                    for j in range(n_rows):
                        sl = slice(j * 2 * k, (j + 1) * 2 * k)
                        hess[sl, sl] += 2.0 * np.eye(2 * k) / s
                else:
                    x = np.stack([row_complex(vr) for vr in rows])
                    for ci in range(k):
                        diff_col = x[:, ci] - cval[:, ci]
                        s = rad_sq[ci] - float(np.sum(np.abs(diff_col) ** 2))
                        if s <= 0:
                            return np.inf, None, None
                        val -= np.log(s)
                        dvec = np.zeros(dim)
                        for j in range(n_rows):
                            off = j * 2 * k
                            dvec[off + ci] = 2.0 * diff_col[j].real
                            dvec[off + k + ci] = 2.0 * diff_col[j].imag
                        grad += dvec / s
                        hess += np.outer(dvec, dvec) / s ** 2
                        for j in range(n_rows):
                            off = j * 2 * k
                            hess[off + ci, off + ci] += 2.0 / s
                            hess[off + k + ci, off + k + ci] += 2.0 / s
            return val, grad, hess
        return fgh

    total_steps = 0
    t = config.t_initial
    for _ in range(config.outer_steps):
        w, steps = _newton_minimize(make_fgh(t), w, config.inner_tol, config.max_inner)
        total_steps += steps
        t *= config.t_multiplier

    t_final = config.t_final
    _, grad_t, _ = make_fgh(t_final)(w)
    kkt = max(float(np.linalg.norm(grad_t)) / t_final, 1.0 / t_final)
    rows, dt = split(w)
    sol = ref.copy()
    for j, vr in enumerate(rows):
        sol[j, support] = row_complex(vr)
    return sol, float(dt), kkt, total_steps


def logbarrier_solve(problem, config=None):
    """Interior-point reference solver for small instances.

    Returns a LogBarrierResult whose kkt_residual is the larger of the
    stationarity norm (under the central-path multipliers) and the
    complementarity gap 1/t_final.
    """
    config = config or OracleConfig()
    if problem.objective == "least_squares":
        if problem.frob_ball is not None or problem.col_balls is not None:
            raise ConfigError("least_squares oracle mode supports rank-1 constraints only")
        support = _support_indices(problem)
        dirs = [c.u[support] for c in problem.rank1]
        bounds = [c.b for c in problem.rank1]
        sol = problem.reference.copy()
        kkt = 0.0
        steps = 0
        obj = 0.0
        for j, row in enumerate(problem.reference):
            x, k_row, st, o = _solve_ls_row(row[support], dirs, bounds, config)
            sol[j, support] = x
            kkt = max(kkt, k_row)
            steps += st
            obj += o
        return LogBarrierResult(solution=sol, delta_t=None, kkt_residual=kkt,
                                newton_steps=steps, objective_value=obj)
    if problem.reference.size > 4096:
        raise ConfigError("epigraph oracle is restricted to small instances")
    sol, dt, kkt, steps = _solve_epigraph(problem, config)
    return LogBarrierResult(solution=sol, delta_t=dt, kkt_residual=kkt,
                            newton_steps=steps, objective_value=dt)
