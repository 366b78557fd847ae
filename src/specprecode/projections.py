"""Closed-form Euclidean projections used by the splitting solvers.

Two families: the rank-1 quadratic set {x : |u^H x|^2 <= b}, whose projection
moves x only along u, and norm balls (Frobenius over a whole grid, or one
ball per column) that carry error-vector budgets.  The solvers keep their
iterates as deviations from the ball's center, so their one batched ball
projection (_project_balls) acts on zero-centred balls, with the distances
and radii that constrained.EvmConstraint derives for either budget.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateConstraintError

_EPS = np.finfo(float).eps


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
    few percent.  It clamps at 0, where the result is the center.  Where
    the bound overflows, as it does for an infinite radius, the radius is
    pulled in by the same relative change without the center's term,
    which is negligible there: an infinite radius stays infinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        slack = 2.0 * _EPS * ((n + 6) * radius + center_norm)
        inner = np.where(slack < np.inf, radius - slack, radius * (1.0 - 2.0 * _EPS * (n + 6)))
    return np.maximum(inner, 0.0)


def _symbol_norms(x):
    """Frobenius norm of every x[s] of a complex stack, each bitwise equal
    to np.linalg.norm(x[s]) (for any layout with positive strides).

    np.linalg.norm reads a complex array in memory order (its trailing axes
    by decreasing stride, as ravel(order="K")) and sums the squares as two
    real dot products over the real and imaginary parts; np.vecdot makes
    the same two (strided) BLAS dot products for every symbol of the stack.
    A C-contiguous stack is in memory order already.
    """
    if not x.flags.c_contiguous:
        x = x.transpose(0, *(1 + np.argsort([-stride for stride in x.strides[1:]], kind="stable")))
    flat = x.reshape(len(x), -1)
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _column_norms(x):
    """Norm of every column x[s, :, k] of a complex stack (S, n_tx, n_cols),
    shaped (S, 1, n_cols): sqrt(sum over the antennas of re^2 + im^2), as
    one real square-and-sum of the stack's float view over the antennas
    (np.einsum) and one add of each column's real and imaginary parts.
    It stays within a few ulps of np.linalg.norm(x, axis=1), which forms a
    conjugate copy and a complex product, and a symbol's values do not
    depend on the stack it is in.
    """
    flat = np.ascontiguousarray(x, dtype=complex).view(float)
    sq = np.einsum("sti,sti->si", flat, flat)
    return np.sqrt(sq[:, 0::2] + sq[:, 1::2])[:, None, :]


def _project_balls(dev, dist, radii, inner, out=None):
    """Deviations dev from the centers of balls projected onto the
    zero-centred balls, in one pass, into ``out`` where given (dev itself
    for an in-place projection).

    dist holds the distances of dev from the centers, radii the
    non-negative radii and inner the radii pulled in by _inward_radius for
    the centers' norms and the entries of a ball; all three broadcast
    against dev, one entry per ball.  A deviation inside its ball (dist <=
    radius) comes back bitwise, one outside is scaled by inner / dist
    toward zero, so that the distance recomputed from center + result stays
    within the radius.  A ball whose other entries are zero (guard bins) is
    projected on its nonzero part alone, with its full size in inner.
    """
    return np.multiply(dev, np.divide(inner, dist, out=np.ones_like(dist), where=dist > radii),
                       out=out)
