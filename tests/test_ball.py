"""Geometry kernel: identities, closed-form values, and metric properties."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypdiff import ball
from hypdiff.ball import (
    conformal_factor,
    distance,
    dlog,
    exp_map,
    gyration,
    gyromidpoint,
    log_map,
    mobius_add,
    parallel_transport,
    project_to_ball,
)

from _oracles import assert_bitwise, gyromidpoint_reference, mobius_scalar_reference
from conftest import NanScratch

K1 = -1.0


def random_points(rng, count, dim, kappa, max_frac=0.7):
    """Points sampled via exp_o of Gaussian tangents, capped away from the rim."""
    radius = 1.0 / np.sqrt(-kappa)
    raw = rng.standard_normal((count, dim))
    raw *= rng.uniform(0.0, max_frac * radius, size=(count, 1)) / np.linalg.norm(
        raw, axis=1, keepdims=True
    )
    return project_to_ball(raw, kappa)


class TestCurvature:
    def test_rejects_nonnegative(self):
        x = np.array([0.1, 0.2])
        with pytest.raises(ValueError):
            project_to_ball(x, 0.0)
        with pytest.raises(ValueError):
            project_to_ball(x, 1.0)
        with pytest.raises(ValueError):
            project_to_ball(x, float("nan"))

    def test_kernel_constants_stay_finite(self):
        # the kernels form 2 kappa^2, which overflows past |kappa| = 9.48e153
        x, y, w = np.array([0.3, 0.1]), np.array([-0.2, 0.4]), np.array([1.0, -0.5])
        kappa = -9e153
        r = 1.0 / np.sqrt(-kappa)
        got = dlog(r * x, r * y, r * w, kappa) / r
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, dlog(x, y, w, K1), rtol=1e-9)
        with pytest.raises(ValueError, match="9.48e153"):
            project_to_ball(x, -1e154)
        with pytest.raises(ValueError, match="9.48e153"):
            dlog(x, y, w, -1e154)


class TestMobiusAdd:
    def test_identity_element(self):
        x = np.array([0.1, -0.3])
        np.testing.assert_allclose(mobius_add(x, np.zeros(2), K1), x, atol=1e-15)
        np.testing.assert_allclose(mobius_add(np.zeros(2), x, K1), x, atol=1e-15)

    def test_inverse(self):
        rng = np.random.default_rng(7)
        x = random_points(rng, 16, 3, K1)
        out = mobius_add(x, -x, K1)
        assert np.abs(out).max() < 1e-15

    def test_euclidean_limit(self):
        x = np.array([0.1, 0.2])
        y = np.array([0.3, -0.1])
        np.testing.assert_allclose(mobius_add(x, y, -1e-8), x + y, atol=1e-6)

    def test_left_cancellation(self):
        rng = np.random.default_rng(8)
        for kappa in (-0.1, -1.0, -2.0):
            x = random_points(rng, 64, 4, kappa)
            y = random_points(rng, 64, 4, kappa)
            back = mobius_add(-x, mobius_add(x, y, kappa), kappa)
            assert np.abs(back - y).max() < 1e-10

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            mobius_add(np.array([np.nan, 0.0]), np.zeros(2), K1)


class TestMobiusScalar:
    """The kernel _mobius_scalar, r (x) x, which the gyromidpoint uses."""

    def test_one_is_identity(self):
        x = np.array([0.3, -0.2, 0.05])
        np.testing.assert_allclose(ball._mobius_scalar(1.0, x, K1), x, atol=1e-15)

    def test_zero_point(self):
        np.testing.assert_array_equal(ball._mobius_scalar(2.5, np.zeros(3), K1), np.zeros(3))

    def test_closed_form_norm(self):
        # |r (x) x| = tanh(r atanh(|x|)) for kappa = -1
        x = np.array([0.3, 0.0])
        out = ball._mobius_scalar(2.0, x, K1)
        expected = np.tanh(2.0 * np.arctanh(0.3))
        assert np.linalg.norm(out) == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(out / np.linalg.norm(out), [1.0, 0.0], atol=1e-12)

    def test_collinear(self):
        rng = np.random.default_rng(9)
        x = random_points(rng, 1, 5, K1)[0]
        out = ball._mobius_scalar(0.7, x, K1)
        cross = out - (out @ x) / (x @ x) * x
        assert np.abs(cross).max() < 1e-12


class TestExpLog:
    def test_exp_zero(self):
        x = np.array([0.2, 0.1])
        np.testing.assert_array_equal(exp_map(x, np.zeros(2), K1), x)

    def test_log_same_point(self):
        x = np.array([0.2, 0.1])
        np.testing.assert_array_equal(log_map(x, x, K1), np.zeros(2))

    def test_exp_origin_value(self):
        out = exp_map(np.zeros(2), np.array([0.5, 0.0]), K1)
        np.testing.assert_allclose(out, [np.tanh(0.5), 0.0], atol=1e-15)

    def test_log_inverts_exp_example(self):
        y = exp_map(np.zeros(2), np.array([0.5, 0.0]), K1)
        np.testing.assert_allclose(log_map(np.zeros(2), y, K1), [0.5, 0.0], atol=1e-12)

    def test_round_trips(self):
        rng = np.random.default_rng(11)
        for kappa in (-0.1, -1.0, -2.0):
            for dim in (2, 8, 64):
                x = random_points(rng, 200, dim, kappa)
                v = rng.standard_normal((200, dim))
                v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1.0)
                back = log_map(x, exp_map(x, v, kappa), kappa)
                assert np.abs(back - v).max() < 1e-9
                y = random_points(rng, 200, dim, kappa)
                there = exp_map(x, log_map(x, y, kappa), kappa)
                assert np.abs(there - y).max() < 1e-9

    def test_log_norm_gives_distance(self):
        rng = np.random.default_rng(12)
        x = random_points(rng, 32, 3, K1)
        y = random_points(rng, 32, 3, K1)
        lam = conformal_factor(x, K1)
        lhs = lam * np.linalg.norm(log_map(x, y, K1), axis=-1)
        np.testing.assert_allclose(lhs, distance(x, y, K1), atol=1e-9)

    def test_euclidean_limit_at_origin(self):
        kappa = -1e-6
        v = np.array([0.3, -0.1, 0.2])
        o = np.zeros(3)
        np.testing.assert_allclose(exp_map(o, v, kappa), v, atol=1e-4)
        np.testing.assert_allclose(log_map(o, v, kappa), v, atol=1e-4)


class TestDistance:
    def test_zero_iff_same(self):
        x = np.array([0.4, 0.1])
        assert distance(x, x, K1) == 0.0
        assert distance(x, np.array([0.4, 0.2]), K1) > 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        x = random_points(rng, 64, 4, K1)
        y = random_points(rng, 64, 4, K1)
        np.testing.assert_allclose(distance(x, y, K1), distance(y, x, K1), atol=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(14)
        x, y, z = (random_points(rng, 128, 3, K1) for _ in range(3))
        assert np.all(
            distance(x, z, K1) <= distance(x, y, K1) + distance(y, z, K1) + 1e-12
        )

    def test_origin_exp_distance(self):
        # d(o, exp_o(v)) = 2 |v| for kappa = -1
        rng = np.random.default_rng(15)
        v = 0.8 * rng.standard_normal((64, 3))
        d = distance(np.zeros(3), exp_map(np.zeros(3), v, K1), K1)
        np.testing.assert_allclose(d, 2.0 * np.linalg.norm(v, axis=-1), atol=1e-9)

    def test_euclidean_limit(self):
        kappa = -1e-6
        x = np.array([0.12, -0.05])
        y = np.array([-0.2, 0.4])
        assert distance(x, y, kappa) / 2.0 == pytest.approx(
            np.linalg.norm(x - y), abs=1e-4
        )


class TestConformalFactor:
    def test_origin(self):
        assert conformal_factor(np.zeros(3), K1) == 2.0

    def test_formula(self):
        x = np.array([0.5, 0.0])
        assert conformal_factor(x, K1) == pytest.approx(2.0 / (1.0 - 0.25), rel=1e-12)

    def test_monotone_in_norm(self):
        radii = np.linspace(0.0, 0.9, 10)
        lam = conformal_factor(radii[:, None] * np.array([1.0, 0.0]), K1)
        assert np.all(np.diff(lam) > 0)


class TestGyration:
    def test_trivial_arguments(self):
        rng = np.random.default_rng(16)
        a = random_points(rng, 8, 3, K1)
        c = random_points(rng, 8, 3, K1)
        o = np.zeros(3)
        np.testing.assert_allclose(gyration(a, o, c, K1), c, atol=1e-12)
        np.testing.assert_allclose(gyration(o, a, c, K1), c, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(17)
        a, b, c = (random_points(rng, 128, 4, K1) for _ in range(3))
        out = gyration(a, b, c, K1)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(c, axis=-1), atol=1e-10
        )


class TestRimOverflow:
    """Two points at the projection limit round a Mobius denominator to 0.
    The raw kernels return inf; the public functions raise NonFiniteError
    without a numpy RuntimeWarning on the way."""

    def test_gyration_raises(self):
        a = np.array([0.99998])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(ball._gyration(a, a, np.array([0.1]), -1.0)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ball.NonFiniteError):
                gyration(a, a, np.array([0.1]), -1)

    def test_parallel_transport_raises(self):
        x = np.array([1.0 - 1e-5, 0.0])
        v = np.array([0.3, -0.2])
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(ball._parallel_transport(-x, x, v, -1.0)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ball.NonFiniteError):
                parallel_transport(-x, x, v, -1)


class TestParallelTransport:
    def test_same_point(self):
        x = np.array([0.2, -0.1])
        v = np.array([0.5, 0.3])
        np.testing.assert_allclose(parallel_transport(x, x, v, K1), v, atol=1e-12)

    def test_from_origin(self):
        # gyration against the origin is the identity, leaving (2 / lambda_y) v
        rng = np.random.default_rng(18)
        y = random_points(rng, 8, 3, K1)
        v = rng.standard_normal((8, 3))
        lam = conformal_factor(y, K1)[:, None]
        np.testing.assert_allclose(
            parallel_transport(np.zeros(3), y, v, K1), 2.0 / lam * v, atol=1e-12
        )

    def test_metric_preserved(self):
        rng = np.random.default_rng(19)
        for kappa in (-0.5, -1.0, -2.0):
            x = random_points(rng, 256, 4, kappa)
            y = random_points(rng, 256, 4, kappa)
            v = rng.standard_normal((256, 4))
            lhs = conformal_factor(y, kappa) * np.linalg.norm(
                parallel_transport(x, y, v, kappa), axis=-1
            )
            rhs = conformal_factor(x, kappa) * np.linalg.norm(v, axis=-1)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestGyromidpoint:
    def test_single_point_identity(self):
        z = np.array([[0.3, -0.2]])
        np.testing.assert_allclose(
            gyromidpoint(z, np.array([1.0]), K1), z[0], atol=1e-12
        )

    def test_all_points_equal(self):
        z = np.tile(np.array([0.25, 0.1]), (3, 1))
        out = gyromidpoint(z, np.array([0.2, 1.3, 0.5]), K1)
        np.testing.assert_allclose(out, z[0], atol=1e-12)

    def test_euclidean_limit_mean(self):
        pts = np.array([[0.1, 0.0], [0.3, 0.0]])
        out = gyromidpoint(pts, np.array([1.0, 1.0]), -1e-8)
        np.testing.assert_allclose(out, [0.2, 0.0], atol=1e-6)

    def test_euclidean_limit_weighted(self):
        rng = np.random.default_rng(20)
        pts = 0.3 * rng.standard_normal((4, 3))
        w = rng.uniform(0.5, 2.0, size=4)
        out = gyromidpoint(pts, w, -1e-6)
        np.testing.assert_allclose(out, (w[:, None] * pts).sum(0) / w.sum(), atol=1e-4)

    def test_degenerate_weights(self):
        pts = np.array([[0.1, 0.0], [0.2, 0.0]])
        with pytest.raises(ValueError):
            gyromidpoint(pts, np.array([0.0, 0.0]), K1)
        with pytest.raises(ValueError):  # a subnormal sum of |eta|
            gyromidpoint(pts, np.array([5e-324, 0.0]), K1)
        for points, weights in [(pts, [1.0]), (pts, [1.0, 1.0, 1.0]), (pts[:0], [])]:
            with pytest.raises(ValueError, match="one weight for each"):
                gyromidpoint(points, np.array(weights), K1)

    def test_weight_scale_free(self):
        # the denominator is at least sum |eta|, so any normal sum is well-posed
        rng = np.random.default_rng(22)
        pts = 0.3 * rng.standard_normal((3, 4, 2))
        w = np.array([1.0, 0.6, 0.1])
        for scale in (1e-20, 1e-300):
            np.testing.assert_allclose(
                gyromidpoint(pts, scale * w, K1), gyromidpoint(pts, w, K1), atol=1e-15
            )

    @settings(deadline=None, max_examples=200)
    @given(
        eta=hnp.arrays(np.float64, 3, elements=st.one_of(
            st.just(0.0), st.floats(1e-30, 1e30), st.floats(-1e30, -1e-30))),
        kappa=st.floats(-100.0, -1e-3),
        data=st.data(),
    )
    def test_power_of_two_scaling_keeps_the_bits(self, eta, kappa, data):
        """eta * 2**j blends to the same bits as eta for every j that keeps
        the nonzero weights normal, also where sums of the scaled weights
        overflow."""
        if not eta.any():
            eta[0] = 1.0
        exps = np.frexp(eta[eta != 0.0])[1]  # |x| is normal for exponents -1021..1024
        j = data.draw(st.integers(-1021 - int(exps.min()), 1024 - int(exps.max())))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = random_points(rng, 3 * 4, 2, kappa, max_frac=0.99).reshape(3, 4, 2)
        assert_bitwise(gyromidpoint(pts, np.ldexp(eta, j), kappa), gyromidpoint(pts, eta, kappa))

    @settings(deadline=None, max_examples=200)
    @given(
        eta=hnp.arrays(np.float64, st.integers(1, 5), elements=st.one_of(
            st.just(0.0), st.floats(1e-30, 1e30), st.floats(-1e30, -1e-30))),
        kappa=st.floats(-100.0, -1e-3),
        shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=4),
        data=st.data(),
    )
    def test_kernel_matches_the_stacked_reference(self, eta, kappa, shape, data):
        """The kernel on a sequence of J point arrays, of shapes that
        broadcast to one, gives the bits of the whole-array form on the
        stacked points, or raises ValueError where that does."""
        pts = []
        for _ in eta:
            # each array keeps some of the leading axes of the shape, the others 1
            kept = data.draw(hnp.arrays(np.bool_, len(shape) - 1))
            own = tuple(n if keep else 1 for n, keep in zip(shape[:-1], kept)) + shape[-1:]
            # signed zeros, so that whole columns of terms are -0.0
            coords = data.draw(hnp.arrays(np.float64, own, elements=st.one_of(
                st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))))
            fracs = data.draw(hnp.arrays(np.float64, own[:-1], elements=INSIDE))
            pts.append(rim_points(coords.reshape(-1, own[-1]), fracs.ravel(), kappa).reshape(own))
        stacked = np.stack(np.broadcast_arrays(*pts))
        try:
            want = gyromidpoint_reference(stacked, eta, kappa)
        except ValueError:
            with pytest.raises(ValueError, match="ill-posed"):
                ball._gyromidpoint(pts, eta, kappa)
            return
        assert_bitwise(ball._gyromidpoint(pts, eta, kappa), want)

    def test_nodewise_batch(self):
        rng = np.random.default_rng(21)
        stack = 0.3 * rng.standard_normal((3, 5, 2))
        w = np.array([1.0, 0.6, 0.1])
        out = gyromidpoint(stack, w, K1)
        for i in range(5):
            np.testing.assert_allclose(
                out[i], gyromidpoint(stack[:, i], w, K1), atol=1e-14
            )


class TestProject:
    def test_interior_unchanged(self):
        x = np.array([0.4, 0.1])
        np.testing.assert_array_equal(project_to_ball(x, K1), x)

    def test_forced_norm(self):
        x = np.array([2.0, 0.0])
        out = project_to_ball(x, K1)
        assert np.linalg.norm(out) == pytest.approx(1.0 - ball.BOUNDARY_EPS, rel=1e-14)

    def test_idempotent(self):
        x = np.array([3.0, -4.0])
        once = project_to_ball(x, K1)
        np.testing.assert_array_equal(project_to_ball(once, K1), once)

    def test_scales_with_radius(self):
        x = np.array([200.0, 0.0])
        out = project_to_ball(x, -0.25)  # radius 2
        assert np.linalg.norm(out) == pytest.approx(2.0 * (1.0 - ball.BOUNDARY_EPS))

    def test_non_finite_input_raises_typed_error(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ball.NonFiniteError):
                project_to_ball(np.array([0.1, bad]), K1)

    @settings(deadline=None, max_examples=300)
    @given(
        log_scale=st.floats(-8.0, float(np.log10(4.0))),
        coords=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=16),
            elements=st.floats(-1.5, 1.5),
        ),
    )
    @example(log_scale=-8.0, coords=np.array([[1.5, -1.5], [0.1, 0.2]]))
    @example(log_scale=float(np.log10(4.0)), coords=np.array([[0.0, 1.5, 0.3], [0.2, 0.1, 0.0]]))
    def test_contract_property(self, log_scale, coords):
        """Interior rows are returned bitwise; clamped rows sit on the limit
        and move under re-projection only by rounding.

        First-order rounding analysis with u = eps / 2: the computed row norm
        of a d-vector has relative error <= (d/2 + 1) u, the quotient and the
        product add u each, so a clamped row's norm is within (d + 4) u of
        the limit when measured, and re-projection moves it by at most
        (d + 6) u relative to the limit.  Both fit in (d/2 + 3) eps.
        """
        kappa = -min(10.0 ** log_scale, 4.0)
        x = coords / np.sqrt(-kappa)
        limit = (1.0 - ball.BOUNDARY_EPS) / np.sqrt(-kappa)
        tol = (x.shape[-1] / 2.0 + 3.0) * np.finfo(np.float64).eps
        once = project_to_ball(x, kappa)
        twice = project_to_ball(once, kappa)
        inside = np.linalg.norm(x, axis=-1) <= limit
        np.testing.assert_array_equal(once[inside], x[inside])
        radii = np.linalg.norm(once[~inside], axis=-1) / limit
        assert np.all(np.abs(radii - 1.0) <= tol)
        moved = np.linalg.norm(twice - once, axis=-1) / limit
        assert np.all(moved <= tol)


class TestDlog:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for kappa in (-0.5, -1.0, -2.0):
            x = random_points(rng, 1, 4, kappa)[0]
            y = random_points(rng, 1, 4, kappa)[0]
            w = rng.standard_normal(4)
            eps = 1e-6
            fd = (log_map(x, y + eps * w, kappa) - log_map(x, y - eps * w, kappa)) / (
                2.0 * eps
            )
            np.testing.assert_allclose(dlog(x, y, w, kappa), fd, atol=1e-8)

    def test_identity_at_base(self):
        x = np.array([0.3, -0.1, 0.2])
        w = np.array([1.0, 2.0, -0.5])
        np.testing.assert_allclose(dlog(x, x, w, K1), w, atol=1e-12)


def rim_points(coords, fractions, kappa):
    """Rows of coords rescaled to the given fractions of the radius; zero
    rows stay at the origin."""
    norms = np.linalg.norm(coords, axis=-1, keepdims=True)
    unit = coords / np.where(norms == 0.0, 1.0, norms)
    return unit * fractions[:, None] / np.sqrt(-kappa)


# radius fractions of ball points: the interior and the last 1e-5 before the
# rim (the projection limit); OUTSIDE adds rows past it for the projection
INSIDE = st.one_of(st.floats(0.0, 0.99), st.floats(1.0 - 2e-5, 1.0 - ball.BOUNDARY_EPS))
OUTSIDE = st.one_of(INSIDE, st.floats(1.0 - ball.BOUNDARY_EPS, 1.5))


@st.composite
def point_sets(draw, count=2, fractions=INSIDE):
    """kappa in [-4, -1e-8], `count` (rows, dim) point sets and one tangent
    set of the same shape, its rows up to 10 radii long."""
    kappa = -(10.0 ** draw(st.floats(-8.0, float(np.log10(4.0)))))
    rows = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 6))
    sets = []
    for frac in [fractions] * count + [st.floats(0.0, 10.0)]:
        coords = draw(hnp.arrays(np.float64, (rows, dim), elements=st.floats(-1.0, 1.0)))
        fracs = draw(hnp.arrays(np.float64, (rows,), elements=frac))
        sets.append(rim_points(coords, fracs, kappa))
    return kappa, sets


class TestRawKernels:
    """Each raw kernel, with norms reused from gathers where it accepts
    them, gives the public function's bits."""

    @settings(deadline=None, max_examples=200)
    @given(point_sets())
    def test_match_public_functions(self, case):
        k, (x, y, v) = case
        kappa = k
        pts = np.concatenate([x, y])  # gathers from one point set
        sq = ball._sqnorm(pts)
        i = np.arange(len(x))
        j = len(x) + np.arange(len(y))[::-1]
        xi, yj = pts[i], pts[j]
        assert_bitwise(ball._log_map(xi, yj, k, sq[i], sq[j]), log_map(xi, yj, kappa))
        assert_bitwise(ball._log_map(xi, yj, k), log_map(xi, yj, kappa))
        assert_bitwise(ball._exp_map(xi, v, k, sq[i]), exp_map(xi, v, kappa))
        assert_bitwise(ball._distance(xi, yj, k, sq[i], sq[j]), distance(xi, yj, kappa))
        assert_bitwise(ball._project(ball._mobius_add(xi, yj, k), k)[0], mobius_add(xi, yj, kappa))
        assert_bitwise(ball._project(x.copy(), k)[0], project_to_ball(x, kappa))
        assert_bitwise(ball._dlog(x, y, v, k), dlog(x, y, v, kappa))
        c = 0.09 * v
        with np.errstate(invalid="ignore", divide="ignore"):
            # gyr[x, y] composes unprojected Mobius sums, whose denominators
            # can round to 0 for two points at the rim; the public forms
            # raise there instead of returning inf
            for raw, public in [
                (ball._gyration(x, y, c, k), lambda: gyration(x, y, c, kappa)),
                (ball._parallel_transport(x, y, c, k),
                 lambda: parallel_transport(x, y, c, kappa)),
            ]:
                if np.all(np.isfinite(raw)):
                    assert_bitwise(raw, public())
                else:
                    with pytest.raises(ball.NonFiniteError):
                        public()
        eta = np.array([1.0, 0.6])
        assert_bitwise(ball._gyromidpoint([x, y], eta, k), gyromidpoint(np.stack([x, y]), eta, kappa))

    @settings(deadline=None, max_examples=200)
    @given(point_sets(count=1, fractions=OUTSIDE))
    def test_projection_skips_only_exact_multiplies(self, case):
        """_project leaves x unwritten when no row clamps, and otherwise
        makes it x times the full factor array, in place; the norms it
        returns are those of the projected rows."""
        kappa, (x, _) = case
        n = np.linalg.norm(x, axis=-1, keepdims=True)
        limit = (1.0 - ball.BOUNDARY_EPS) / np.sqrt(-kappa)
        factor = np.where(n > limit, limit / np.where(n == 0.0, 1.0, n), 1.0)
        target = x.copy()
        target.flags.writeable = bool(np.any(n > limit))  # a write without a clamp raises
        out, norms = ball._project(target, kappa)
        assert out is target
        assert out.tobytes() == (x * factor).tobytes()
        assert_bitwise(norms, ball._norm(out))

    @settings(deadline=None, max_examples=100)
    @given(point_sets(count=1, fractions=OUTSIDE), st.floats(-3.0, 3.0))
    def test_mobius_scalar_matches_the_whole_array_reference(self, case, r):
        kappa, (x, _) = case
        assert_bitwise(ball._mobius_scalar(r, x, kappa), mobius_scalar_reference(r, x, kappa))

    def test_negated_point_has_the_same_squared_norm(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 7))
        assert ball._sqnorm(-x).tobytes() == ball._sqnorm(x).tobytes()


@st.composite
def kernel_cases(draw):
    """kappa in [-4, -1e-8], d in {1, 2, 16}, and (x, y, v, w) operands of
    one kernel call in one of two layouts: broadcast rows (r, 1, d) against
    columns (1, n, d), as in the dense pass, or (E, d) gathers of one point
    set, as in the edge pass.  Points lie inside the ball or in its last
    1e-5; gathers repeat points, so some pairs coincide; tangents (up to 10
    radii long) have zero rows."""
    kappa = -(10.0 ** draw(st.floats(-8.0, float(np.log10(4.0)))))
    dim = draw(st.sampled_from([1, 2, 16]))
    count = draw(st.integers(1, 6))
    coords = draw(hnp.arrays(np.float64, (count, dim), elements=st.floats(-1.0, 1.0)))
    fracs = draw(hnp.arrays(np.float64, (count,), elements=INSIDE))
    pts = rim_points(coords, fracs, kappa)
    if draw(st.booleans()):
        r, n = draw(st.integers(1, count)), draw(st.integers(1, count))
        x, y = pts[:r, None, :], pts[None, :n, :]
        tangent_shape = (r, n, dim)
    else:
        pairs = draw(hnp.arrays(np.int64, (2, draw(st.integers(1, 8))),
                                elements=st.integers(0, count - 1)))
        x, y = pts[pairs[0]], pts[pairs[1]]
        tangent_shape = x.shape
    tangents = []
    for _ in range(2):
        v = draw(hnp.arrays(np.float64, tangent_shape, elements=st.floats(-1.0, 1.0)))
        lengths = draw(hnp.arrays(np.float64, tangent_shape[:-1], elements=st.floats(0.0, 10.0)))
        zero = draw(hnp.arrays(np.bool_, tangent_shape[:-1]))
        rows = rim_points(v.reshape(-1, dim), np.where(zero, 0.0, lengths).ravel(), kappa)
        tangents.append(rows.reshape(tangent_shape))
    return kappa, x, y, *tangents


class TestScratchKernels:
    """Every kernel that takes scratch buffers gives the bits it gives
    without them: with out= and a NanScratch, so that a value read before
    it was written shows as NaN, and again on the same, reused buffers."""

    KERNELS = {
        "sqnorm": lambda k, x, y, v, w, **kw: ball._sqnorm(y, **kw),
        "norm": lambda k, x, y, v, w, **kw: ball._norm(v, **kw),
        "project": lambda k, x, y, v, w, out=None, work=None: ball._project(
            copied(v, out), k, work=work)[0],
        "project_norms": lambda k, x, y, v, w, out=None, work=None: ball._project(
            v.copy(), k, out, work)[1],
        "mobius_add": lambda k, x, y, v, w, **kw: ball._mobius_add(x, y, k, **kw),
        "mobius_add_norms": lambda k, x, y, v, w, **kw: ball._mobius_add(
            x, y, k, ball._sqnorm(x), ball._sqnorm(y), **kw),
        "mobius_scalar": lambda k, x, y, v, w, **kw: ball._mobius_scalar(0.7, y, k, **kw),
        "exp_map": lambda k, x, y, v, w, **kw: ball._exp_map(x, v, k, **kw),
        "exp_map_norms": lambda k, x, y, v, w, **kw: ball._exp_map(
            x, v, k, ball._sqnorm(x), **kw),
        "exp_map_origin": lambda k, x, y, v, w, **kw: ball._exp_map(
            np.zeros(v.shape[-1]), v, k, **kw),
        "log_map": lambda k, x, y, v, w, **kw: ball._log_map(x, y, k, **kw),
        "log_map_norms": lambda k, x, y, v, w, **kw: ball._log_map(
            x, y, k, ball._sqnorm(x), ball._sqnorm(y), **kw),
        "log_map_origin": lambda k, x, y, v, w, **kw: ball._log_map(
            np.zeros(y.shape[-1]), y, k, **kw),
        "dlog": lambda k, x, y, v, w, **kw: ball._dlog(x, y, w, k, **kw),
        "distance": lambda k, x, y, v, w, **kw: ball._distance(
            x, y, k, ball._sqnorm(x), ball._sqnorm(y), **kw),
        "gyration": lambda k, x, y, v, w, **kw: ball._gyration(x, y, v, k, **kw),
        "parallel_transport": lambda k, x, y, v, w, **kw: ball._parallel_transport(
            x, y, v, k, **kw),
        "gyromidpoint": lambda k, x, y, v, w, **kw: ball._gyromidpoint(
            [x, y, x], np.array([1.0, -0.6, 0.1]), k, **kw),
    }

    @settings(deadline=None, max_examples=300)
    @given(kernel_cases())
    def test_buffers_give_the_same_bits(self, case):
        kappa, x, y, v, w = case
        work = NanScratch()
        # gyration and transport overflow for points at the projection limit
        with np.errstate(all="ignore"):
            for name, kernel in self.KERNELS.items():
                want = kernel(kappa, x, y, v, w)
                for _ in range(2):
                    out = np.full(np.shape(want), np.nan)
                    got = kernel(kappa, x, y, v, w, out=out, work=work)
                    assert_bitwise(got, want)
                    assert got is out
                    assert work._depths == [0, 0, 0]  # every frame handed its buffers back

    def test_projection_writes_only_when_a_row_clamps(self):
        x = np.array([[0.3, 0.4], [3.0, 4.0]])
        inside = x[:1].copy()
        inside.flags.writeable = False  # nothing clamps, so nothing is written
        got, norms = ball._project(inside, K1, work=NanScratch())
        assert got is inside
        assert_bitwise(norms, [[0.5]])
        clamped = x.copy()
        norms = np.full((2, 1), np.nan)
        got, got_norms = ball._project(clamped, K1, norms, NanScratch())
        assert got is clamped and got_norms is norms
        assert_bitwise(got, project_to_ball(x, K1))
        assert_bitwise(norms, ball._norm(got))


def copied(v, out=None):
    """v copied into out, or into a new array."""
    if out is None:
        return v.copy()
    np.copyto(out, v)
    return out


PUBLIC_CALLS = {
    "project_to_ball": lambda p, k: project_to_ball(p, k),
    "mobius_add": lambda p, k: mobius_add(p, p[::-1], k),
    "conformal_factor": lambda p, k: conformal_factor(p, k),
    "exp_map": lambda p, k: exp_map(p, p[::-1], k),
    "log_map": lambda p, k: log_map(p, p[::-1], k),
    "dlog": lambda p, k: dlog(p, p[::-1], p, k),
    "distance": lambda p, k: distance(p, p[::-1], k),
    "gyration": lambda p, k: gyration(p, p[::-1], p, k),
    "parallel_transport": lambda p, k: parallel_transport(p, p[::-1], p, k),
    "gyromidpoint": lambda p, k: gyromidpoint(np.stack([p, p[::-1]]), np.ones(2), k),
}


class TestValidationBoundary:
    GOOD = np.array([[0.1, 0.2], [-0.3, 0.05]])

    @pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
    @pytest.mark.parametrize("kappa", [0.0, 1.0, np.nan, -np.inf])
    def test_bad_curvature_raises_value_error(self, name, kappa):
        with pytest.raises(ValueError) as err:
            PUBLIC_CALLS[name](self.GOOD, kappa)
        assert type(err.value) is ValueError

    @pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
    def test_nan_input_raises_non_finite_error(self, name):
        bad = self.GOOD.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ball.NonFiniteError):
            PUBLIC_CALLS[name](bad, K1)

    def test_projection_returns_a_new_array(self):
        x = np.array([[0.1, 0.2], [0.3, -0.4]])
        before = x.copy()
        out = project_to_ball(x, K1)
        assert out is not x and not np.shares_memory(out, x)
        out[0, 0] = 5.0
        np.testing.assert_array_equal(x, before)


# Radius fraction of the points of the identity properties.  Past 0.9955 R
# two points can be so far apart that log_map and distance saturate: they
# project the intermediate (-x) (+) y onto the rim margin, which caps every
# distance at 2 atanh(1 - 1e-5) / sqrt(|kappa|) (ROADMAP aim 3).  Points up
# to 0.99 R never reach that cap.
IDENTITY_RIM = 0.99
EPS = np.finfo(np.float64).eps


@st.composite
def identity_cases(draw):
    """kappa with |kappa| in [1e-8, 10], d in {1, 2, 16}, and three (rows, d)
    sets x, y, c of radius fractions up to IDENTITY_RIM; y is drawn on its
    own or on the ray of x or of -x, where the Mobius sums come closest to
    the rim.  c serves as a point set and as a tangent set."""
    kappa = -(10.0 ** draw(st.floats(-8.0, 1.0)))
    rows = draw(st.integers(1, 4))
    dim = draw(st.sampled_from([1, 2, 16]))

    def points():
        coords = draw(hnp.arrays(np.float64, (rows, dim), elements=st.floats(-1.0, 1.0)))
        fracs = draw(hnp.arrays(np.float64, (rows,), elements=st.floats(0.0, IDENTITY_RIM)))
        return rim_points(coords, fracs, kappa)

    x, y, c = points(), points(), points()
    ray = draw(st.sampled_from([None, 1.0, -1.0]))
    if ray is not None:
        y = ray * rim_points(x, np.linalg.norm(y, axis=-1) * np.sqrt(-kappa), kappa)
    return kappa, x, y, c


def half_lambda(p, kappa):
    """lambda_p / 2 = 1 / (1 - |p|^2 / R^2) for each row of p."""
    return 1.0 / (1.0 + kappa * np.sum(p * p, axis=-1))


# the worst cases: points opposite each other or on one ray, at 0.99 R
OPPOSITE = (-1.0, np.array([[0.99, 0.0]]), np.array([[-0.99, 0.0]]), np.array([[0.0, 0.99]]))
ALIGNED = (-10.0, np.full((1, 16), 0.99 / np.sqrt(160.0)),
           np.full((1, 16), 0.99 / np.sqrt(160.0)), np.full((1, 16), -0.9 / np.sqrt(160.0)))


class TestIdentityProperties:
    """Gyrovector identities over the whole drawn domain, each within a
    rounding bound in units of eps * R.

    The bounds grow towards the rim.  A Mobius sum divides by
    1 - 2k<x,y> + k^2 |x|^2 |y|^2, which for operands at radius fractions f
    can be as small as about (1 - f^2)^2; its rounding error, of a few eps
    times R, is amplified by the inverse of that, (lambda / 2)^2.  Each
    constant is about five times the worst ratio of error to that factor
    measured over 3.6 million draws of this domain with random, aligned and
    opposite points.
    """

    @settings(deadline=None, max_examples=300)
    @given(identity_cases())
    @example(case=OPPOSITE)
    @example(case=ALIGNED)
    def test_exp_inverts_log(self, case):
        """exp_x(log_x(y)) = y.  One sum (-x) (+) y, one x (+) (...): the
        factor is max(lambda_x, lambda_y)^2 / 4; worst ratio measured 28."""
        kappa, x, y, _ = case
        radius = 1.0 / np.sqrt(-kappa)
        back = exp_map(x, log_map(x, y, kappa), kappa)
        tol = 128 * EPS * radius * np.maximum(half_lambda(x, kappa), half_lambda(y, kappa)) ** 2
        assert np.all(np.linalg.norm(back - y, axis=-1) <= tol)

    @settings(deadline=None, max_examples=300)
    @given(identity_cases())
    @example(case=OPPOSITE)
    @example(case=ALIGNED)
    def test_mobius_left_cancellation(self, case):
        """(-x) (+) (x (+) y) = y, with the same factor as the exp/log pair;
        worst ratio measured 25."""
        kappa, x, y, _ = case
        radius = 1.0 / np.sqrt(-kappa)
        back = mobius_add(-x, mobius_add(x, y, kappa), kappa)
        tol = 128 * EPS * radius * np.maximum(half_lambda(x, kappa), half_lambda(y, kappa)) ** 2
        assert np.all(np.linalg.norm(back - y, axis=-1) <= tol)

    @settings(deadline=None, max_examples=300)
    @given(identity_cases())
    @example(case=OPPOSITE)
    @example(case=ALIGNED)
    def test_gyration_is_a_euclidean_isometry(self, case):
        """|gyr[x, y] c| = |c|.  The gyration composes four Mobius sums, two
        of which take both points, so the factor is (lambda_x lambda_y / 4)^2;
        worst ratio measured 370.  c stays inside the ball: at -y R^2 / |y|^2,
        outside it, y (+) c has a pole, so the composed form loses the
        linearity that the map has."""
        kappa, x, y, c = case
        radius = 1.0 / np.sqrt(-kappa)
        got = np.linalg.norm(gyration(x, y, c, kappa), axis=-1)
        tol = 2048 * EPS * radius * (half_lambda(x, kappa) * half_lambda(y, kappa)) ** 2
        assert np.all(np.abs(got - np.linalg.norm(c, axis=-1)) <= tol)

    @settings(deadline=None, max_examples=300)
    @given(identity_cases())
    @example(case=OPPOSITE)
    @example(case=ALIGNED)
    def test_transport_preserves_the_metric(self, case):
        """lambda_y |PT_{x->y}(v)| = lambda_x |v|: the transport is the
        gyration gyr[y, -x] v scaled by lambda_x / lambda_y, so the bound is
        the gyration's times lambda_x; worst ratio measured 270."""
        kappa, x, y, v = case
        radius = 1.0 / np.sqrt(-kappa)
        lx, ly = conformal_factor(x, kappa), conformal_factor(y, kappa)
        got = ly * np.linalg.norm(parallel_transport(x, y, v, kappa), axis=-1)
        tol = 2048 * EPS * radius * lx * (half_lambda(x, kappa) * half_lambda(y, kappa)) ** 2
        assert np.all(np.abs(got - lx * np.linalg.norm(v, axis=-1)) <= tol)
