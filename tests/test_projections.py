"""Closed-form projection primitives against their variational certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprecode import DegenerateConstraintError, bisection_rank1_oracle, project_rank1
from specprecode.projections import _column_norms, _inward_radius, _project_balls, _symbol_norms
from specprecode.unconstrained import _BandDeviations


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# Per-ball projections onto balls of any center: the oracles of the
# solvers' one batched zero-centred projection, _project_balls, for either
# budget's balls.

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
    return center + (_inward_radius(radius, np.linalg.norm(center), x.size) / dist) * diff


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
    diff = x - center
    dist = np.linalg.norm(diff, axis=-2)
    outside = dist > radii
    if not outside.any():
        return x.copy()
    inner = _inward_radius(radii, np.linalg.norm(center, axis=-2), x.shape[-2])
    factors = np.where(outside, inner / np.where(outside, dist, 1.0), 1.0)
    return np.where(outside[..., None, :], center + diff * factors[..., None, :], x)


def feasible_points(rng, u, b, count):
    """Random points satisfying |u^H z|^2 <= b, built directly."""
    n = u.size
    unorm_sq = float(np.vdot(u, u).real)
    z = random_complex(rng, count, n)
    inner = z @ u.conj()
    z_perp = z - np.outer(inner / unorm_sq, u)
    radius = rng.uniform(0, 1, count) * np.sqrt(b) / unorm_sq
    phase = np.exp(2j * np.pi * rng.uniform(0, 1, count))
    return z_perp + np.outer(radius * phase, u)


class TestRank1Projection:
    def test_feasible_point_unchanged(self):
        rng = np.random.default_rng(0)
        u = random_complex(rng, 6)
        x = random_complex(rng, 6)
        b = float(np.abs(np.vdot(u, x)) ** 2) * 4.0
        assert np.array_equal(project_rank1(x, u, b), x)

    def test_zero_bound_is_exact_notch(self):
        rng = np.random.default_rng(1)
        u = random_complex(rng, 5)
        x = random_complex(rng, 5)
        out = project_rank1(x, u, 0.0)
        expected = x - u * np.vdot(u, x) / np.vdot(u, u)
        assert np.allclose(out, expected, atol=1e-12)
        assert np.abs(np.vdot(u, out)) < 1e-12

    def test_active_case_lands_on_boundary(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = random_complex(rng, 8)
            x = random_complex(rng, 8) * 3.0
            b = 0.25 * float(np.abs(np.vdot(u, x)) ** 2)
            out = project_rank1(x, u, b)
            assert np.abs(np.vdot(u, out)) ** 2 == pytest.approx(b, rel=1e-9)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = random_complex(rng, 4)
            x = random_complex(rng, 4) * 2.0
            b = 0.5
            if np.abs(np.vdot(u, x)) ** 2 <= b:
                x = x * 10.0
            out = project_rank1(x, u, b)
            ref = bisection_rank1_oracle(x, u, b)
            assert np.linalg.norm(out - ref) <= 1e-8 * np.linalg.norm(x)

    def test_variational_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = random_complex(rng, 6)
            x = random_complex(rng, 6) * 2.0
            b = rng.uniform(0.1, 2.0)
            p = project_rank1(x, u, b)
            z = feasible_points(rng, u, b, 100)
            lhs = np.real(np.sum(np.conj(x - p) * (z - p), axis=1))
            bound = 1e-9 * np.linalg.norm(x) * np.linalg.norm(z - p, axis=1)
            assert np.all(lhs <= bound)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(5)
        u = random_complex(rng, 7)
        b = 0.7
        x = random_complex(rng, 7) * 3.0
        y = random_complex(rng, 7) * 3.0
        px, py = project_rank1(x, u, b), project_rank1(y, u, b)
        assert np.linalg.norm(project_rank1(px, u, b) - px) <= 1e-12
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_batched_rows_match_individual(self):
        rng = np.random.default_rng(6)
        u = random_complex(rng, 5)
        batch = random_complex(rng, 3, 5) * 2.0
        out = project_rank1(batch, u, 0.4)
        for j in range(3):
            assert np.array_equal(out[j], project_rank1(batch[j], u, 0.4))

    def test_degenerate_inputs_rejected(self):
        x = np.ones(4, dtype=complex)
        with pytest.raises(DegenerateConstraintError):
            project_rank1(x, np.zeros(4), 1.0)
        with pytest.raises(DegenerateConstraintError):
            project_rank1(x, x, -1.0)


class TestBallProjections:
    def test_center_and_zero_radius(self):
        rng = np.random.default_rng(8)
        center = random_complex(rng, 2, 4)
        x = random_complex(rng, 2, 4)
        assert np.array_equal(project_frobenius_ball(center, center, 1.0), center)
        assert np.allclose(project_frobenius_ball(x, center, 0.0), center)

    def test_radial_scaling_midpoint(self):
        rng = np.random.default_rng(9)
        center = random_complex(rng, 2, 2)
        direction = random_complex(rng, 2, 2)
        r = 0.5 * np.linalg.norm(direction)
        out = project_frobenius_ball(center + direction, center, r)
        assert np.allclose(out, center + direction / 2.0, atol=1e-12)

    def test_inside_unchanged(self):
        rng = np.random.default_rng(10)
        center = random_complex(rng, 3, 3)
        x = center + 0.01 * random_complex(rng, 3, 3)
        assert np.array_equal(project_frobenius_ball(x, center, 10.0), x)

    def test_columns_scale_to_their_radii(self):
        rng = np.random.default_rng(11)
        center = random_complex(rng, 4, 3)
        dirs = random_complex(rng, 4, 3)
        dirs /= np.linalg.norm(dirs, axis=0)
        x = center + dirs * np.array([2.0, 0.2, 1.0])
        out = project_columns_ball(x, center, np.array([1.0, 0.5, 0.0]))
        dist = np.linalg.norm(out - center, axis=0)
        assert np.allclose(dist, [1.0, 0.2, 0.0], atol=1e-12)

    def test_columns_huge_radii_identity(self):
        rng = np.random.default_rng(12)
        center = random_complex(rng, 3, 4)
        x = random_complex(rng, 3, 4)
        out = project_columns_ball(x, center, np.full(4, 1e6))
        assert np.allclose(out, x, atol=1e-12)

    def test_negative_radius_rejected(self):
        x = np.ones((2, 2), dtype=complex)
        with pytest.raises(DegenerateConstraintError):
            project_frobenius_ball(x, x, -0.1)
        with pytest.raises(DegenerateConstraintError):
            project_columns_ball(x, x, np.array([1.0, -1.0]))

    def test_ball_variational_inequality(self):
        rng = np.random.default_rng(13)
        center = random_complex(rng, 2, 5)
        x = center + 3.0 * random_complex(rng, 2, 5)
        r = 1.0
        p = project_frobenius_ball(x, center, r)
        for _ in range(100):
            z = center + r * rng.uniform(0, 1) * (lambda v: v / np.linalg.norm(v))(
                random_complex(rng, 2, 5))
            lhs = np.real(np.vdot(x - p, z - p))
            assert lhs <= 1e-9 * np.linalg.norm(x) * np.linalg.norm(z - p)


@st.composite
def ball_cases(draw):
    """A center, a point and per-column radii over wide magnitude ranges;
    radii run from zero to past each column's distance, so draws mix
    inside and outside columns."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    center_scale = 10.0 ** draw(st.floats(-6, 6))
    diff_scale = 10.0 ** draw(st.floats(-6, 6))
    rng = np.random.default_rng(seed)
    center = center_scale * random_complex(rng, rows, cols)
    x = center + diff_scale * random_complex(rng, rows, cols)
    fractions = rng.uniform(0.0, 1.3, cols)
    fractions[rng.uniform(size=cols) < 0.2] = 0.0
    return x, center, fractions


class TestBallProjectionsLandInside:
    """The recomputed distance of a projected point never exceeds its
    radius in floating point, and points already inside come back bitwise."""

    @settings(max_examples=300, deadline=None)
    @given(ball_cases())
    def test_frobenius(self, case):
        x, center, fractions = case
        radius = float(np.linalg.norm(x - center)) * fractions[0]
        out = project_frobenius_ball(x, center, radius)
        assert np.linalg.norm(out - center) <= radius
        if np.linalg.norm(x - center) <= radius:
            assert np.array_equal(out, x)

    @settings(max_examples=300, deadline=None)
    @given(ball_cases())
    def test_columns(self, case):
        x, center, fractions = case
        dist = np.linalg.norm(x - center, axis=0)
        radii = dist * fractions
        out = project_columns_ball(x, center, radii)
        assert np.all(np.linalg.norm(out - center, axis=0) <= radii)
        inside = dist <= radii
        assert np.array_equal(out[:, inside], x[:, inside])


@st.composite
def rank1_batches(draw):
    """A batch of rows, a direction and one bound per row; the bounds run
    from zero to past each row's |u^H x|^2, so draws mix inside and outside
    rows."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 32))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    scale = 10.0 ** draw(st.floats(-6, 6))
    rng = np.random.default_rng(seed)
    x = scale * random_complex(rng, rows, n)
    u = random_complex(rng, n)
    fractions = rng.uniform(0.0, 1.3, rows)
    fractions[rng.uniform(size=rows) < 0.2] = 0.0
    return x, u, fractions * np.abs(x @ u.conj()) ** 2


class TestRank1PerRowBounds:
    """One bound per row gives each row its own set."""

    @settings(max_examples=300, deadline=None)
    @given(rank1_batches())
    def test_matches_per_row_calls_and_lands_inside(self, case):
        x, u, b = case
        out = project_rank1(x, u, b)
        rows = np.stack([project_rank1(x[j], u, b[j]) for j in range(b.size)])
        assert np.array_equal(out, rows)
        inside = np.abs(x @ u.conj()) ** 2 <= b
        assert np.array_equal(out[inside], x[inside])
        # roundoff of the step and of the recomputed inner product
        slack = 4 * (x.shape[1] + 2) * np.finfo(float).eps * np.linalg.norm(x, axis=1)
        assert np.all(np.abs(out @ u.conj()) <= np.sqrt(b) + slack * np.linalg.norm(u))

    @settings(max_examples=50, deadline=None)
    @given(rank1_batches(), st.data())
    def test_negative_bound_rejected(self, case, data):
        x, u, b = case
        b[data.draw(st.integers(0, b.size - 1))] = -data.draw(st.floats(1e-300, 1e6))
        with pytest.raises(DegenerateConstraintError):
            project_rank1(x, u, b)


@st.composite
def symbol_stacks(draw):
    """Two (S, n_tx, N) complex stacks of one layout: contiguous, a strided
    slice of a larger stack, or gathered by index arrays (symbols in a
    random order, columns a sorted subset, as the active band is taken)."""
    n_sym = draw(st.integers(1, 33))
    n_tx = draw(st.integers(1, 4))
    n = draw(st.integers(2, 600))
    layout = draw(st.sampled_from(["contiguous", "sliced", "fancy"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-6, 6))

    def stack():
        if layout == "contiguous":
            return scale * random_complex(rng, n_sym, n_tx, n)
        if layout == "sliced":
            return (scale * random_complex(rng, 2 * n_sym, n_tx + 1, 2 * n))[::2, 1:, ::2]
        base = scale * random_complex(rng, n_sym + 3, n_tx, n + 5)
        cols = np.sort(rng.choice(n + 5, n, replace=False))
        return base[rng.permutation(n_sym + 3)[:n_sym]][..., cols]
    return rng, stack(), stack()


class TestBatchedHelpers:
    """The batched norm and ball projections give every symbol the bits of
    the per-symbol calls."""

    @settings(max_examples=100, deadline=None)
    @given(symbol_stacks())
    def test_symbol_norms_match_linalg_norm(self, case):
        _, x, _ = case
        assert np.array_equal(_symbol_norms(x), [np.linalg.norm(s) for s in x])

    @settings(max_examples=100, deadline=None)
    @given(symbol_stacks())
    def test_selective_and_band_norms_within_ulps(self, case):
        # the selective column distance and the band form's symbol norms
        # against the generic norms, and each symbol alone against a block.
        # A column sums at most 8 squares, a symbol up to 4800, which BLAS
        # adds in another order than the two strided dot products of
        # _symbol_norms: on 64000 random symbols of these sizes 0.1 % of
        # the norms differ by 4 ulps and 0.005 % by 5, so the symbol norms
        # get 8 ulps.
        _, x, _ = case
        cols, band = _column_norms(x), _BandDeviations.norms(x)
        ref_cols, ref_band = np.linalg.norm(x, axis=1, keepdims=True), _symbol_norms(x)
        assert np.all(np.abs(cols - ref_cols) <= 4 * np.spacing(ref_cols))
        assert np.all(np.abs(band - ref_band) <= 8 * np.spacing(ref_band))
        assert np.array_equal(cols, np.concatenate([_column_norms(s[None]) for s in x]))
        assert np.array_equal(band, np.concatenate([_BandDeviations.norms(s[None]) for s in x]))

    @settings(max_examples=100, deadline=None)
    @given(symbol_stacks())
    def test_frobenius_balls_match_single_balls(self, case):
        rng, x, centers = case
        # radii from zero to past each symbol's distance: inside and outside mix
        fractions = rng.uniform(0.0, 1.3, len(x))
        fractions[rng.uniform(size=len(x)) < 0.2] = 0.0
        dev = x - centers
        radii = fractions * _symbol_norms(dev)
        inner = _inward_radius(radii, 0.0, dev[0].size)
        out = _project_balls(dev, _symbol_norms(dev)[:, None, None], radii[:, None, None],
                             inner[:, None, None])
        singles = [project_frobenius_ball(d, 0, r) for d, r in zip(dev, radii)]
        assert np.array_equal(out, singles)

    @settings(max_examples=100, deadline=None)
    @given(symbol_stacks())
    def test_columns_balls_match_single_balls(self, case):
        rng, x, centers = case
        dev = x - centers
        radii = rng.uniform(0.0, 1.3, (len(x), x.shape[-1])) * np.linalg.norm(dev, axis=-2)
        radii[rng.uniform(size=radii.shape) < 0.2] = 0.0
        inner = _inward_radius(radii, 0.0, dev.shape[-2])
        out = _project_balls(dev, np.linalg.norm(dev, axis=-2, keepdims=True),
                             radii[:, None, :], inner[:, None, :])
        singles = [project_columns_ball(d, np.zeros_like(d), r) for d, r in zip(dev, radii)]
        assert np.array_equal(out, singles)
