"""Closed-form Euclidean projections used by the splitting solvers.

Two families: the rank-1 quadratic set {x : |u^H x|^2 <= b}, whose projection
moves x only along u, and norm balls (Frobenius over a whole grid, or one
ball per column) that carry error-vector budgets.  The solvers keep their
iterates as deviations from the ball's center, so their batched ball
projections (_frobenius_balls, _columns_balls) act on zero-centred balls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConstraintError

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Rank1Constraint:
    """The set {x : |u^H x|^2 <= b}."""

    u: np.ndarray
    b: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if not u.any():
            raise DegenerateConstraintError("constraint direction is identically zero")
        if self.b < 0:
            raise DegenerateConstraintError("constraint bound must be non-negative")
        object.__setattr__(self, "u", u)


def project_rank1(x, u, b):
    """Project x onto {z : |u^H z|^2 <= b}.

    x may carry leading batch dimensions; the projection acts on the last
    axis, and b is a scalar or one bound per row, broadcast over the batch
    dimensions.  When every row is inside its set, x is returned unchanged
    (bitwise); otherwise inside rows get a zero update, and an outside row
    moves along u by exactly the amount that lands |u^H z| on sqrt(b):

        z = x + (sqrt(b) - |c|) / (||u||^2 |c|) * u * c,   c = u^H x.

    Both products go through einsum, whose rounding does not depend on the
    batch shape, so a row gets the same bits alone as in any batch.
    """
    u = np.asarray(u, dtype=complex)
    if not u.any():
        raise DegenerateConstraintError("constraint direction is identically zero")
    b = np.asarray(b, dtype=float)
    if (b < 0).any():
        raise DegenerateConstraintError("constraint bound must be non-negative")
    x = np.asarray(x, dtype=complex)
    c = np.einsum("...k,k->...", x, u.conj())
    mag = np.abs(c)
    outside = mag ** 2 > b
    if not outside.any():
        return x.copy()
    unorm_sq = float(np.vdot(u, u).real)
    # (sqrt(b) - |c|) / (||u||^2 |c|), evaluated only where |c|^2 > b (there
    # |c| > 0, so the division is safe; b = 0 projects onto the hyperplane).
    coef = np.zeros_like(mag)
    np.divide(np.sqrt(b) - mag, unorm_sq * mag, out=coef, where=outside)
    return x + np.einsum("...,k->...k", coef * c, u)


def _inward_radius(radius, center_norm, n):
    """radius pulled in so that center + (result / dist) * diff lands inside.

    With n complex entries per ball, rounding s * diff, adding the center
    back and recomputing the norm move the recomputed distance by at most
    eps ((n + 5.5) radius + 0.51 ||center||) to first order (no underflow).
    The radius is pulled in by twice that bound, a relative change of
    2 eps (n + 6 + ||center|| / radius): about 1e-14 for error budgets of a
    few percent.  It clamps at 0, where the result is the center.
    """
    slack = 2.0 * _EPS * ((n + 6) * radius + center_norm)
    return np.maximum(radius - slack, 0.0)


def _symbol_norms(x):
    """Frobenius norm of every x[s] of a complex stack, each bitwise equal
    to np.linalg.norm(x[s]) (for any layout with positive strides).

    np.linalg.norm reads a complex array in memory order (its trailing axes
    by decreasing stride, as ravel(order="K")) and sums the squares as two
    real dot products over the real and imaginary parts; np.vecdot makes
    the same two (strided) BLAS dot products for every symbol of the stack.
    A stack of one symbol, as in every per-symbol call, skips the stacking,
    and a C-contiguous stack is in memory order already.
    """
    if x.shape[0] == 1:
        return np.array([np.linalg.norm(x[0])])
    if not x.flags.c_contiguous:
        x = x.transpose(0, *(1 + np.argsort([-stride for stride in x.strides[1:]], kind="stable")))
    flat = x.reshape(len(x), -1)
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _ball_factors(dist, radii, inner):
    """(factors, outside) for deviations at distances dist from the centers
    of balls of the given radii, and their radii pulled in (_inward_radius):
    a factor is 1 inside its ball and inner / dist outside, where outside
    is True."""
    outside = dist > radii
    return np.divide(inner, dist, out=np.ones_like(dist), where=outside), outside


def _frobenius_balls(dev, radii, inner):
    """Every deviation dev[s] from a ball's center projected onto the
    zero-centred ball {||e||_F <= radii[s]}, in one pass.

    dev is a complex stack (S, ...), radii (S,) the non-negative radii and
    inner (S,) the radii pulled in by _inward_radius for the centers' norms
    and the number of entries of each ball.  A deviation inside its ball
    comes back bitwise, one outside is scaled radially toward zero, so that
    the distance recomputed from center + result stays within the radius.
    A ball whose other entries are zero (guard bins) is projected on its
    nonzero part alone, with its full size in inner.
    """
    factors, _ = _ball_factors(_symbol_norms(dev), radii, inner)
    return dev * factors.reshape(factors.shape + (1,) * (dev.ndim - 1))


def _columns_balls(dev, radii, inner):
    """Every column of the deviations dev (..., n_rows, n_cols) projected
    onto its zero-centred ball {||e_k|| <= radii_k}, for radii the caller
    has checked to be non-negative and pulled in (inner, _inward_radius
    for the centers' column norms and n_rows entries): a column inside
    comes back bitwise, one outside is scaled radially toward zero."""
    factors, _ = _ball_factors(np.linalg.norm(dev, axis=-2), radii, inner)
    return dev * factors[..., None, :]
