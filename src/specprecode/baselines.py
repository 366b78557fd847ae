"""Notch-style baselines and trusted slow oracles.

NSP removes the component of the grid that the leakage rows see, so every
constraint frequency is nulled exactly.  ENSP scales that removal per antenna
row so the error-vector budget is met with equality whenever full nulling
would overspend it.  NSP is the projection precoder of van de Beek,
"Sculpting the multicarrier spectrum: a novel projection precoder" (IEEE
Commun. Lett. 2009).  The notch runs on the package's shared algebra: the
kernel's cached Gram matrix and one GEMM over a block's antenna rows.  The
module also carries two reference solvers used only for certification: a
bisection search for the rank-1 projection and a log-barrier interior-point
solver for small constrained instances.

The log-barrier solver's two problems, least squares to the reference under
the rank-1 sets and the epigraph of a common scale on their bounds under
error-vector balls, share one central-path routine.  Every constraint is a
stacked quadratic term s(v) = beta + h.v - ||G v + g||^2 of real unknowns v,
one family of terms each for the rank-1 sets, the Frobenius ball and the
column balls, so the barrier's value, gradient and Hessian take a few
matrix products per family (Boyd & Vandenberghe, Convex Optimization,
section 11.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateConstraintError, NumericalError
from .metrics import _row_products
from .unconstrained import _as_block, _on_band


_DEPENDENT_ROWS = ("leakage rows are linearly dependent; constraint frequencies must "
                   "be distinct")


def _notch_component(kernel, band):
    """P d with P = A^H (A A^H)^(-1) A, computed through one solve with the
    M x M row Gram matrix K = A A^H, ``kernel.gram``, on the active band.

    ``band`` (S, n_tx, n_active) holds the active bands of a block in bin
    order (numerology.band_bins), where the rows of A are
    ``kernel.band_rows``; P d vanishes on the guard bins.  A d and U w run
    through metrics._row_products, one GEMM over the block's rows, which
    gives a row the same bits alone or inside a block of any size.  Raises
    ConfigError when K is numerically rank deficient (coincident points).
    """
    gram = kernel.gram
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 1e-12 * eigs[-1]:
        raise ConfigError(_DEPENDENT_ROWS)
    c = _row_products(band, kernel.band_rows.T)
    try:
        w = np.linalg.solve(gram, c.reshape(-1, gram.shape[0]).T).T.reshape(c.shape)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(_DEPENDENT_ROWS) from exc
    return _row_products(w, kernel.band_rows.conj())


def nsp_precode(d, kernel):
    """Null-space projection: d with every constraint frequency nulled.

    Accepts a row, an (n_tx, N) grid or an (S, n_tx, N) block, and rejects
    non-finite values; the result satisfies |a(nu_m)^T result| <= 1e-10 *
    ||d|| for every point m.
    """
    full, = _on_band(lambda band, kernel: (band - _notch_component(kernel, band),),
                     _as_block(d, kernel), kernel)
    return full.reshape(np.shape(d))


def ensp_precode(d, kernel, evm_target):
    """EVM-capped notch: remove alpha * P d with the largest alpha in [0, 1]
    whose error stays within ``evm_target`` as a fraction of ||d||.

    Takes d as nsp_precode does.  Returns (precoded, alpha); alpha is per
    row for a grid or a block.  The error is exactly alpha * ||P d||, linear
    in alpha, so the cap is closed form.  alpha = 0 signals that precoding
    was not needed (P d = 0) or that the budget is zero; an infinite budget
    gives the full notch, and a NaN one is rejected.
    """
    if not evm_target >= 0:
        raise ConfigError("evm_target must be non-negative", field="evm_target")
    out, alpha = _on_band(_ensp_block, _as_block(d, kernel), kernel, evm_target)
    alpha = alpha.reshape(np.shape(d)[:-1])
    return out.reshape(np.shape(d)), (float(alpha) if alpha.ndim == 0 else alpha)


def _ensp_block(band, kernel, evm_target):
    """ensp_precode on the active bands (S, n_tx, n_active) of a block, in
    bin order, and a checked target: (precoded band, alpha (S, n_tx)).  A
    cap that overflows is infinite, and alpha 1."""
    removed = _notch_component(kernel, band)
    d_norm = np.linalg.norm(band, axis=-1)
    r_norm = np.linalg.norm(removed, axis=-1)
    safe = np.where(r_norm > 0, r_norm, 1.0)
    with np.errstate(over="ignore"):
        cap = evm_target * d_norm / safe
    alpha = np.where(r_norm > 0, np.minimum(1.0, cap), 0.0)
    return band - alpha[..., None] * removed, alpha


def bisection_rank1_oracle(x, u, b):
    """Reference projection onto {z : |u^H z|^2 <= b} by bisection on mu.

    Searches mu >= 0 in z(mu) = x - (mu / (1 + mu ||u||^2)) u (u^H x) until
    the constraint holds with equality, ||u^H z|^2 - b| <= 1e-12, for at
    most 200 halvings.  Requires a violated start and b > 0 (the b = 0
    notch is a limit that bisection cannot reach at finite mu).
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = h_of(mid)
        if abs(val) <= 1e-12:
            break
        if val > 0:
            lo = mid
        else:
            hi = mid
    return z_of(mid)


# The slow oracle's barrier schedule: one Newton minimization at each
# t = 1, 10, ..., 1e7.
_BARRIER_T = tuple(10.0 ** k for k in range(8))


@dataclass(frozen=True)
class OracleConfig:
    """Inner Newton tolerance and step budget of the slow oracle, at every
    t of its fixed barrier schedule (_BARRIER_T)."""

    inner_tol: float = 1e-10
    max_inner: int = 60

    def __post_init__(self):
        if self.inner_tol <= 0:
            raise ConfigError("oracle tolerances must be positive", field="oracle")


@dataclass
class LogBarrierProblem:
    """Small convex instance for the reference solver.

    ``rank1`` lists the (u, b) pairs of the rank-1 sets
    {x : |u^H x|^2 <= b}: every direction u must be nonzero and every
    bound b positive.  objective "least_squares": closest grid to
    ``reference`` under the rank-1 constraints (rows independent, no
    balls).  objective "epigraph":
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
        self.rank1 = [(np.asarray(u, dtype=complex), b) for u, b in self.rank1]
        if not self.rank1:
            raise ConfigError("oracle needs at least one rank-1 constraint", field="oracle.rank1")
        for u, b in self.rank1:
            if not u.any():
                raise DegenerateConstraintError("constraint direction is identically zero")
            if not b > 0:                                  # NaN fails too
                raise DegenerateConstraintError("log-barrier oracle requires strictly positive bounds")


@dataclass(frozen=True)
class LogBarrierResult:
    solution: np.ndarray
    delta_t: float
    kkt_residual: float
    newton_steps: int
    objective_value: float


def _realified_forms(u):
    """Rows [p; q] of each direction u (last axis): u^H x = p.v + i q.v for
    v = [Re x; Im x].  Returns shape u.shape[:-1] + (2, 2 * u.shape[-1])."""
    p = np.concatenate([u.real, u.imag], axis=-1)
    q = np.concatenate([-u.imag, u.real], axis=-1)
    return np.stack([p, q], axis=-2)


def _support_indices(problem):
    cols = np.any(problem.reference != 0, axis=0)
    for u, _ in problem.rank1:
        cols |= u != 0
    if problem.frob_ball is not None:
        cols |= np.any(np.atleast_2d(np.asarray(problem.frob_ball[0], complex)) != 0, axis=0)
    if problem.col_balls is not None:
        cols |= np.any(np.atleast_2d(np.asarray(problem.col_balls[0], complex)) != 0, axis=0)
    return np.flatnonzero(cols)


def _newton_minimize(fgh, v0, tol, max_iter):
    """Damped Newton with backtracking; fgh returns inf outside the domain."""
    v = v0.copy()
    steps = 0
    for _ in range(max_iter):
        val, grad, hess = fgh(v)
        if not np.isfinite(val):
            raise NumericalError("barrier minimization started outside its domain")
        try:
            chol = np.linalg.cholesky(hess)
            step = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
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
        # once 0.25 t decrement rounds away against val, the Armijo test
        # certifies no decrease, so the stage ends instead of stepping on
        if t < 1e-14 or val - 0.25 * t * decrement == val:
            break
        v = v - t * step
        steps += 1
    return v, steps


def _central_path(v, quad, lin, families, config):
    """Barrier method for min quad ||v||^2 + lin.v subject to stacked
    quadratic constraints s_c(v) = beta_c + h_c.v - ||G_c v + g_c||^2 >= 0.

    Each family is (G (C, R, D), g (C, R), h (C, D), beta (C,)).  The
    barrier t (quad ||v||^2 + lin.v) - sum log s_c is minimized by Newton
    from the strictly interior v for each t of the schedule _BARRIER_T.
    Returns (v, kkt, Newton steps), with kkt the larger of the stationarity
    norm under the central-path multipliers lambda_c = 1/(t s_c) (the
    barrier gradient divided by t) and the complementarity gap 1/t, both
    at the last t.
    """
    eye = np.eye(v.size)

    def make_fgh(t, start):
        # Values are taken relative to the stage's start and each G_c w + g_c
        # as its value there plus G_c (w - start): Newton's line search then
        # compares values of the size of the stage's decrease, free of the
        # cancellation in G_c w + g_c near an active constraint.
        at_start = [gmat @ start + gvec for gmat, gvec, _, _ in families]

        def fgh(w):
            move = w - start
            val = t * (quad * float(move @ (w + start)) + float(lin @ move))
            grad = t * (2.0 * quad * w + lin)
            hess = (2.0 * t * quad) * eye
            for (gmat, _, hvec, beta), a0 in zip(families, at_start):
                a = a0 + gmat @ move
                s = beta + hvec @ w - np.einsum("cr,cr->c", a, a)
                if np.any(s <= 0):
                    return np.inf, None, None
                val -= float(np.log(s).sum())
                # dvec = -grad s_c; the Hessian of -log s_c is
                # 2 G_c^T G_c / s_c + dvec dvec^T / s_c^2.
                dvec = 2.0 * np.einsum("crd,cr->cd", gmat, a) - hvec
                flat = gmat.reshape(-1, w.size)
                scaled = dvec / s[:, None]
                grad = grad + scaled.sum(axis=0)
                hess = hess + 2.0 * (flat.T / np.repeat(s, gmat.shape[1])) @ flat \
                    + scaled.T @ scaled
            return val, grad, hess
        return fgh

    total_steps = 0
    for t in _BARRIER_T:
        v, steps = _newton_minimize(make_fgh(t, v), v, config.inner_tol, config.max_inner)
        total_steps += steps
    _, grad_t, _ = make_fgh(t, v)(v)            # at the schedule's last t
    kkt = max(float(np.linalg.norm(grad_t)) / t, 1.0 / t)
    return v, kkt, total_steps


def _solve_ls_row(ref_row, dirs, bounds, config):
    """Least-squares-to-reference for one row under rank-1 constraints.

    The minimizer lies in ref + span{u_m} (any orthogonal component only
    grows the objective without moving a constraint), so the barrier path is
    followed in an orthonormal basis of that span: 2*rank(U) real unknowns
    instead of 2N, with objective, minimizer, and gradient norms unchanged.
    """
    bounds = np.asarray(bounds, dtype=float)
    u_mat = np.stack(dirs)                       # (M, N)
    c0 = u_mat.conj() @ ref_row                  # u_m^H ref

    # Feasible reference is its own solution (zero multipliers satisfy KKT).
    if np.all(np.abs(c0) ** 2 <= bounds):
        return ref_row.copy(), 0.0, 0, 0.0

    left, sing, _ = np.linalg.svd(u_mat.T, full_matrices=False)
    rank = int(np.sum(sing > max(sing[0], 1.0) * 1e-13)) if sing.size else 0
    basis = left[:, :rank]                       # orthonormal span of {u_m}
    w_red = basis.conj().T @ u_mat.T             # columns: reduced u_m
    # |u_m^H (ref + basis y)|^2 = ||G_m z + [Re c0_m, Im c0_m]||^2, z = [Re y; Im y]
    forms = _realified_forms(w_red.T)

    # Strictly interior start: null every constraint direction.
    y0 = np.linalg.lstsq(w_red.conj().T, -c0, rcond=None)[0]
    v0 = np.concatenate([y0.real, y0.imag])
    family = (forms, np.stack([c0.real, c0.imag], axis=1), np.zeros((len(bounds), v0.size)),
              bounds)
    v, kkt, steps = _central_path(v0, 1.0, np.zeros(v0.size), [family], config)
    # The basis is orthonormal, so reduced and full-space norms coincide.
    x = ref_row + basis @ (v[:rank] + 1j * v[rank:])
    return x, kkt, steps, float(np.linalg.norm(x - ref_row) ** 2)


def _solve_epigraph(problem, config):
    """min delta_t with |u^H x_j|^2 <= delta_t * b_m and hard balls.

    The unknowns are w = [Re x_0, Im x_0, ..., Re x_{n-1}, Im x_{n-1},
    delta_t] on the support columns; ``lift`` picks the grid part of w.
    """
    ref = problem.reference
    n_rows = ref.shape[0]
    support = _support_indices(problem)
    k = support.size
    dim = 2 * k * n_rows + 1
    lift = np.eye(dim - 1, dim)

    def realified(grid):
        return np.concatenate([grid.real, grid.imag], axis=1).ravel()

    def ball(center, gmat, rad_sq):
        # ||x - center||^2 <= rad^2 over the rows of gmat
        c = realified(np.atleast_2d(np.asarray(center, complex))[:, support])
        g = -(gmat @ np.append(c, 0.0))
        return gmat, g, np.zeros((len(gmat), dim)), rad_sq

    # Row j, point m: |u_m^H x_j|^2 <= delta_t b_m, with h = b_m e_dt.
    forms = _realified_forms(np.stack([u[support] for u, _ in problem.rank1]))
    bounds = np.tile([b for _, b in problem.rank1], n_rows)
    g_rank1 = np.einsum("jl,mrx->jmrlx", np.eye(n_rows), forms).reshape(
        len(bounds), 2, dim - 1) @ lift
    h_rank1 = np.zeros((len(bounds), dim))
    h_rank1[:, -1] = bounds
    families = [(g_rank1, np.zeros((len(bounds), 2)), h_rank1, np.zeros(len(bounds)))]
    if problem.frob_ball is not None:
        center, radius = problem.frob_ball
        if radius <= 0:
            raise DegenerateConstraintError("epigraph oracle needs a positive ball radius")
        families.append(ball(center, lift[None], np.array([float(radius) ** 2])))
    if problem.col_balls is not None:
        center, radii = problem.col_balls
        radii = np.asarray(radii, dtype=float)[support]
        if np.any(radii <= 0):
            raise DegenerateConstraintError("epigraph oracle needs positive column radii")
        cols = lift.reshape(n_rows, 2, k, dim).transpose(2, 0, 1, 3).reshape(k, 2 * n_rows, dim)
        families.append(ball(center, cols, radii ** 2))

    # Start at the reference with delta_t twice its worst scale.
    w = np.append(realified(ref[:, support]), 0.0)
    worst = float(np.max(np.sum((g_rank1 @ w) ** 2, axis=1) / bounds))
    w[-1] = 2.0 * worst + 1e-9
    lin = np.zeros(dim)
    lin[-1] = 1.0
    w, kkt, steps = _central_path(w, 0.0, lin, families, config)
    sol = ref.copy()
    grid = w[:-1].reshape(n_rows, 2, k)
    sol[:, support] = grid[:, 0] + 1j * grid[:, 1]
    return sol, float(w[-1]), kkt, steps


def logbarrier_solve(problem, config=None):
    """Interior-point reference solver for small instances.

    Returns a LogBarrierResult whose kkt_residual is the larger of the
    stationarity norm (under the central-path multipliers) and the
    complementarity gap 1/t at the schedule's last t, 1e7.
    """
    config = config or OracleConfig()
    if problem.objective == "least_squares":
        if problem.frob_ball is not None or problem.col_balls is not None:
            raise ConfigError("least_squares oracle mode supports rank-1 constraints only")
        support = _support_indices(problem)
        dirs = [u[support] for u, _ in problem.rank1]
        bounds = [b for _, b in problem.rank1]
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
