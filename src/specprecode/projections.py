"""Closed-form Euclidean projections used by the splitting solvers.

Two families: the rank-1 quadratic set {x : |u^H x|^2 <= b}, whose projection
moves x only along u, and norm balls (Frobenius over a whole grid, or one
ball per column) that carry error-vector budgets.
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

    def violation(self, x):
        """|u^H x|^2 - b, positive when x is outside the set."""
        inner = np.tensordot(np.conj(self.u), np.asarray(x, dtype=complex),
                             axes=([0], [-1]))
        return (np.abs(inner) ** 2 - self.b)


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


def _inward_scale(radius, dist, center_norm, n):
    """radius / dist, pulled in so that center + s * diff lands inside.

    With n complex entries per ball, rounding s * diff, adding the center
    back and recomputing the norm move the recomputed distance by at most
    eps ((n + 5.5) radius + 0.51 ||center||) to first order (no underflow).
    The scale is pulled in by twice that bound, a relative change of
    2 eps (n + 6 + ||center|| / radius): about 1e-14 for error budgets of a
    few percent.  s clamps at 0, where the result is the center.
    """
    slack = 2.0 * _EPS * ((n + 6) * radius + center_norm)
    return np.maximum(radius - slack, 0.0) / dist


def _symbol_norms(x):
    """Frobenius norm of every x[s] of a complex stack, each bitwise equal
    to np.linalg.norm(x[s]) (for any layout with positive strides).

    np.linalg.norm reads a complex array in memory order (its trailing axes
    by decreasing stride, as ravel(order="K")) and sums the squares as two
    real dot products over the real and imaginary parts; this makes the
    same two (strided) dot products for every symbol, stacked in one matmul.
    """
    order = 1 + np.argsort([-stride for stride in x.strides[1:]], kind="stable")
    flat = x.transpose(0, *order).reshape(x.shape[0], 1, -1)
    re, im = flat.real, flat.imag
    sq = re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)
    return np.sqrt(sq[:, 0, 0])


def project_frobenius_ball(x, center, radius):
    """Project onto {z : ||z - center||_F <= radius}.

    Pure radial scaling toward the center when outside, so that the
    recomputed distance of the result is at most radius; the identity
    inside.
    """
    if radius < 0:
        raise DegenerateConstraintError("ball radius must be non-negative")
    x = np.asarray(x, dtype=complex)
    center = np.asarray(center, dtype=complex)
    diff = x - center
    dist = float(np.linalg.norm(diff))
    if dist <= radius:
        return x.copy()
    return center + _inward_scale(radius, dist, np.linalg.norm(center), x.size) * diff


def _frobenius_balls(x, centers, radii, center_norms, size):
    """project_frobenius_ball of every x[s] onto its own ball, in one pass.

    x and centers are complex stacks (S, ...), radii (S,) the non-negative
    radii, center_norms (S,) the centers' norms (_symbol_norms) and size
    the number of entries of each ball.  With size x[0].size, each
    symbol's result is bitwise that of project_frobenius_ball alone; a ball
    whose other entries are zero in both x and the center (guard bins) is
    projected on its nonzero part alone, with its full size here.
    """
    diff = x - centers
    dist = _symbol_norms(diff)
    outside = dist > radii
    if not outside.any():
        return x.copy()
    # An infinite distance gives inside symbols s = 0; they are taken from x.
    scale = _inward_scale(radii, np.where(outside, dist, np.inf), center_norms, size)
    expand = (slice(None),) + (None,) * (x.ndim - 1)
    return np.where(outside[expand], centers + scale[expand] * diff, x)


def project_columns_ball(x, center, radii):
    """Project each column k onto {z_k : ||z_k - center_k|| <= radii_k}.

    x and center are (..., n_rows, n_cols); radii is (..., n_cols), one
    radius per column of every leading index.  Columns already inside
    their ball pass through unchanged (bitwise); the others are scaled
    toward their center so that their recomputed distance is at most their
    radius.
    """
    x = np.asarray(x, dtype=complex)
    center = np.asarray(center, dtype=complex)
    radii = np.asarray(radii, dtype=float)
    if np.any(radii < 0):
        raise DegenerateConstraintError("ball radii must be non-negative")
    return _columns_balls(x, center, radii, np.linalg.norm(center, axis=-2))


def _columns_balls(x, center, radii, center_norms):
    """project_columns_ball for radii the caller has checked to be
    non-negative and center column norms it has computed
    (np.linalg.norm(center, axis=-2)), for a ball applied many times."""
    diff = x - center
    dist = np.linalg.norm(diff, axis=-2)
    outside = dist > radii
    if not outside.any():
        return x.copy()
    # An infinite distance gives inside columns s = 0; they are taken from x.
    scale = _inward_scale(radii, np.where(outside, dist, np.inf), center_norms,
                          x.shape[-2])
    return np.where(outside[..., None, :], center + diff * scale[..., None, :], x)
