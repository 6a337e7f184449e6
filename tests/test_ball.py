"""Geometry kernel: identities, closed-form values, and metric properties."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypdiff import ball
from hypdiff.ball import (
    Curvature,
    conformal_factor,
    distance,
    dlog,
    exp_map,
    gyration,
    gyromidpoint,
    log_map,
    mobius_add,
    mobius_matvec,
    mobius_scalar,
    parallel_transport,
    project_to_ball,
)

from _oracles import assert_bitwise

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
        with pytest.raises(ValueError):
            Curvature(0.0)
        with pytest.raises(ValueError):
            Curvature(1.0)
        with pytest.raises(ValueError):
            Curvature(float("nan"))

    def test_radius(self):
        assert Curvature(-4.0).radius == pytest.approx(0.5)


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
    def test_one_is_identity(self):
        x = np.array([0.3, -0.2, 0.05])
        np.testing.assert_allclose(mobius_scalar(1.0, x, K1), x, atol=1e-15)

    def test_zero_point(self):
        np.testing.assert_array_equal(mobius_scalar(2.5, np.zeros(3), K1), np.zeros(3))

    def test_closed_form_norm(self):
        # |r (x) x| = tanh(r atanh(|x|)) for kappa = -1
        x = np.array([0.3, 0.0])
        out = mobius_scalar(2.0, x, K1)
        expected = np.tanh(2.0 * np.arctanh(0.3))
        assert np.linalg.norm(out) == pytest.approx(expected, abs=1e-12)
        np.testing.assert_allclose(out / np.linalg.norm(out), [1.0, 0.0], atol=1e-12)

    def test_collinear(self):
        rng = np.random.default_rng(9)
        x = random_points(rng, 1, 5, K1)[0]
        out = mobius_scalar(0.7, x, K1)
        cross = out - (out @ x) / (x @ x) * x
        assert np.abs(cross).max() < 1e-12

    def test_rejects_nonfinite_scalar(self):
        with pytest.raises(ValueError):
            mobius_scalar(float("inf"), np.array([0.1, 0.1]), K1)


class TestMobiusMatvec:
    def test_identity_matrix(self):
        x = np.array([0.2, -0.4])
        np.testing.assert_allclose(mobius_matvec(np.eye(2), x, K1), x, atol=1e-12)

    def test_origin(self):
        w = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(mobius_matvec(w, np.zeros(2), K1), np.zeros(3))

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((3, 5))
        x = random_points(rng, 4, 5, K1)
        got = mobius_matvec(w, x, K1)
        o5, o3 = np.zeros(5), np.zeros(3)
        want = exp_map(o3, log_map(o5, x, K1) @ w.T, K1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mobius_matvec(np.eye(3), np.zeros(2), K1)


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
        with pytest.raises(ball.NonFiniteError):
            mobius_scalar(np.nan, np.array([0.1, 0.2]), K1)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
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

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(point_sets())
    def test_match_public_functions(self, case):
        k, (x, y, v) = case
        kappa = Curvature(k)
        pts = np.concatenate([x, y])  # gathers from one point set
        sq = ball._sqnorm(pts)
        i = np.arange(len(x))
        j = len(x) + np.arange(len(y))[::-1]
        xi, yj = pts[i], pts[j]
        assert_bitwise(ball._log_map(xi, yj, k, sq[i], sq[j]), log_map(xi, yj, kappa))
        assert_bitwise(ball._log_map(xi, yj, k), log_map(xi, yj, kappa))
        assert_bitwise(ball._exp_map(xi, v, k, sq[i]), exp_map(xi, v, kappa))
        assert_bitwise(ball._distance(xi, yj, k, sq[i], sq[j]), distance(xi, yj, kappa))
        assert_bitwise(ball._project(ball._mobius_add(xi, yj, k), k), mobius_add(xi, yj, kappa))
        assert_bitwise(ball._project(x, k), project_to_ball(x, kappa))
        assert_bitwise(ball._mobius_scalar(0.3, x, k), mobius_scalar(0.3, x, kappa))
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
        stack = np.stack([x, y])
        eta = np.array([1.0, 0.6])
        assert_bitwise(ball._gyromidpoint(stack, eta, k), gyromidpoint(stack, eta, kappa))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(point_sets(count=1, fractions=OUTSIDE))
    def test_projection_skips_only_exact_multiplies(self, case):
        """_project returns its input when no row clamps, and otherwise
        equals x times the full factor array."""
        kappa, (x, _) = case
        n = np.linalg.norm(x, axis=-1, keepdims=True)
        limit = (1.0 - ball.BOUNDARY_EPS) / np.sqrt(-kappa)
        factor = np.where(n > limit, limit / np.where(n == 0.0, 1.0, n), 1.0)
        out = ball._project(x, kappa)
        assert (out is x) == bool(np.all(n <= limit))
        assert out.tobytes() == (x * factor).tobytes()

    def test_negated_point_has_the_same_squared_norm(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 7))
        assert ball._sqnorm(-x).tobytes() == ball._sqnorm(x).tobytes()


PUBLIC_CALLS = {
    "project_to_ball": lambda p, k: project_to_ball(p, k),
    "mobius_add": lambda p, k: mobius_add(p, p[::-1], k),
    "mobius_scalar": lambda p, k: mobius_scalar(0.5, p, k),
    "mobius_matvec": lambda p, k: mobius_matvec(np.eye(2), p, k),
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
