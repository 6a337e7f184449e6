"""Integrators: step identities, flat-limit equivalence, orders, interpolation."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hypdiff import ball, solvers
from hypdiff.solvers import (
    AB_COEFFS,
    AM_COEFFS,
    NonFiniteStateError,
    SolverSpec,
    _hrk4_step,
    geodesic_interpolate,
    rotation_flow,
    rotation_solution,
    solve,
)

from _oracles import (
    abm_pec_solve, adams_update_reference, assert_bitwise, geodesic_flow,
    heuler_update_reference, rk38_step, rk4_update_reference,
)

K1 = -1.0
H0 = np.array([[0.3, 0.1, -0.2, 0.15], [0.05, -0.25, 0.1, 0.2]])


def identity_flow(h, t):
    return h


def heuler_step(h, t, tau, flow, kappa):
    """One heuler step at time t, as solve makes it."""
    spec = SolverSpec(method="heuler", tau=tau, t_final=tau)
    return solvers._advance(h, t, spec, flow, kappa, 0, [], None)


def observed(h0, flow, spec, kappa):
    """Run solve and return (final, times, states) collected through observe."""
    times, states = [], []

    def observe(t, state):
        times.append(t)
        states.append(state)

    final = solve(h0, flow, spec, kappa, observe=observe)
    return final, times, states


class TestCoefficients:
    def test_rows_sum_to_one(self):
        for table in (AB_COEFFS, AM_COEFFS):
            for order, row in table.items():
                assert len(row) == order
                assert sum(row) == pytest.approx(1.0, abs=1e-15)

    def test_rk_weights(self):
        assert solvers.RK4_WEIGHTS == (1.0, 3.0, 3.0, 1.0)
        assert sum(solvers.RK4_WEIGHTS) == 8.0


class TestSolverSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverSpec(method="euler")
        with pytest.raises(ValueError):
            SolverSpec(tau=0.0)
        with pytest.raises(ValueError):
            SolverSpec(tau=2.0, t_final=1.0)
        with pytest.raises(ValueError):
            SolverSpec(s_min=3, s_max=2)
        with pytest.raises(ValueError):
            SolverSpec(s_max=5)


# coordinates with both signed zeros among them, and whole rows of them
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))


@st.composite
def update_cases(draw):
    """(h, tangents, other bases, kappa): a state, 1-D or 2-D, inside the
    ball of radius 1/sqrt(|kappa|); four tangents, some rows signed zeros;
    and four other points for queue bases."""
    kappa = draw(st.sampled_from([-1.0, -0.25, -3.0]))
    shape = draw(st.sampled_from([(3,), (1, 2), (7, 3), (12, 4)]))

    def points():
        x = draw(hnp.arrays(np.float64, shape, elements=_COORD))
        return 0.9 * x / (np.sqrt(shape[-1]) * np.sqrt(-kappa))

    def tangent():
        v = draw(hnp.arrays(np.float64, shape, elements=_COORD))
        rows = draw(hnp.arrays(np.int8, shape[:-1] + (1,), elements=st.integers(-1, 1)))
        # rows marked 1 or -1 become +0.0 or -0.0 rows
        return np.where(rows == 0, v, np.copysign(0.0, rows))

    return (points(), [tangent() for _ in range(4)], [points() for _ in range(4)], kappa)


class TestUpdate:
    """solvers._update, the one rule that makes every new state, equals the
    steps' earlier fills bitwise, on any blocks, pooled or serial."""

    PROFILE = settings(deadline=None, max_examples=25,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])

    @staticmethod
    def run(pool, h, tau, terms, k):
        if pool is None:
            return solvers._update(h, tau, terms, k)
        with pool:
            return solvers._update(h, tau, terms, k, pool)

    @pytest.fixture(params=[(None, 48), (1, 12), (2, 12), (2, 48), (3, 10 ** 6)],
                    ids=["serial", "1-thread", "2-threads", "2-threads-48", "3-threads-one-block"])
    def pool(self, request, block_pool):
        threads, block_floats = request.param
        pool = block_pool(threads or 1, block_floats)
        return None if threads is None else pool

    @PROFILE
    @given(update_cases(), st.sampled_from([0.5, 0.1, 1.0 / 3.0]))
    def test_heuler_is_the_one_term_update(self, pool, case, tau):
        h, (slope, *_), _, k = case
        got = self.run(pool, h, tau, zip(AB_COEFFS[1], (slope,)), k)
        assert_bitwise(got, heuler_update_reference(h, tau, slope, k))

    @PROFILE
    @given(update_cases(), st.sampled_from([0.5, 0.1, 1.0 / 3.0]))
    def test_hrk4_stage_mix(self, pool, case, tau):
        h, slopes, _, k = case
        got = self.run(pool, h, tau, zip(solvers._RK4_W, slopes), k)
        assert_bitwise(got, rk4_update_reference(h, tau, solvers._RK4_W, slopes, k))

    @PROFILE
    @given(update_cases(), st.sampled_from([0.5, 0.1]), st.integers(1, 4),
           st.sampled_from([AB_COEFFS, AM_COEFFS]), st.lists(st.booleans(), min_size=4, max_size=4))
    def test_adams_queue(self, pool, case, tau, order, table, at_h):
        # a queue head at the current state is transported like any other
        h, tangents, others, k = case
        queue = [(v, h if same else b) for v, b, same in zip(tangents, others, at_h)]
        got = self.run(pool, h, tau, zip(table[order], queue), k)
        assert_bitwise(got, adams_update_reference(table[order], queue, h, tau, k))


class TestHEuler:
    def test_identity_flow_fixed_point(self):
        out = heuler_step(H0, 0.0, 0.5, identity_flow, K1)
        np.testing.assert_allclose(out, H0, atol=1e-15)

    def test_projective_identity_at_unit_step(self):
        rng = np.random.default_rng(0)
        target = 0.3 * rng.standard_normal(H0.shape)

        def flow(h, t):
            return ball.exp_map(h, target, K1)

        out = heuler_step(H0, 0.0, 1.0, flow, K1)
        np.testing.assert_allclose(out, flow(H0, 0.0), atol=1e-12)

    def test_geodesic_flow_single_step_exact(self):
        # projective Euler follows geodesics exactly; see the rotation flow
        # below for a flow with measurable truncation error
        h0 = np.array([0.2, -0.1, 0.15, 0.05])
        v0 = np.array([0.3, 0.2, -0.1, 0.1])
        flow = geodesic_flow(h0, v0, K1)
        out = heuler_step(h0, 0.0, 0.1, flow, K1)
        exact = ball.exp_map(h0, 0.1 * v0, K1)
        assert ball.distance(out, exact, K1) < 1e-12


class TestHRK4:
    def test_identity_flow_fixed_point(self):
        out = _hrk4_step(H0, 0.0, 0.5, identity_flow, K1)
        np.testing.assert_allclose(out, H0, atol=1e-14)

    def test_flat_limit_matches_classical_38_rule(self):
        kflat = -1e-8
        rng = np.random.default_rng(1)
        a = 0.5 * rng.standard_normal((4, 4))
        b = 0.3 * rng.standard_normal(4)

        def field(y, t):
            return y @ a.T + b * np.cos(t)

        def flow(h, t):
            return ball.exp_map(h, field(h, t), kflat)

        y0 = np.array([0.1, -0.2, 0.15, 0.05])
        got = _hrk4_step(y0, 0.3, 0.2, flow, kflat)
        want = rk38_step(y0, 0.3, 0.2, field)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_geodesic_flow_exact(self):
        h0 = np.array([0.2, -0.1, 0.15, 0.05])
        v0 = np.array([0.3, 0.2, -0.1, 0.1])
        flow = geodesic_flow(h0, v0, K1)
        spec = SolverSpec(method="hrk4", tau=0.25, t_final=1.0)
        final = solve(h0, flow, spec, K1)
        assert ball.distance(final, ball.exp_map(h0, v0, K1), K1) < 1e-12


class TestHAM:
    def test_identity_flow_constant_trajectory(self):
        spec = SolverSpec(method="ham", tau=1.0, t_final=6.0)
        _, _, states = observed(H0, identity_flow, spec, K1)
        assert len(states) == 7
        for state in states:
            np.testing.assert_allclose(state, H0, atol=1e-13)

    def test_warmup_prefix_equals_hrk4_bitwise(self):
        rng = np.random.default_rng(2)
        a = 0.4 * rng.standard_normal((4, 4))

        def flow(h, t):
            return ball.exp_map(h, h @ a.T, K1)

        s_min = 3
        spec = SolverSpec(method="ham", tau=0.25, t_final=2.0, s_min=s_min)
        _, times_ham, states_ham = observed(H0, flow, spec, K1)
        spec_rk = SolverSpec(method="hrk4", tau=0.25, t_final=2.0)
        _, times_rk, states_rk = observed(H0, flow, spec_rk, K1)
        for i in range(s_min + 1):
            assert times_ham[i] == times_rk[i]
            np.testing.assert_array_equal(states_ham[i], states_rk[i])
        assert not np.array_equal(states_ham[s_min + 1], states_rk[s_min + 1])

    def test_flat_limit_matches_classical_abm(self):
        kflat = -1e-8
        rng = np.random.default_rng(3)
        a = 0.5 * rng.standard_normal((3, 3))
        b = 0.2 * rng.standard_normal(3)

        def field(y, t):
            return y @ a.T + b

        def flow(h, t):
            return ball.exp_map(h, field(h, t), kflat)

        y0 = np.array([0.1, -0.15, 0.2])
        spec = SolverSpec(method="ham", tau=0.25, t_final=2.0, s_min=2, s_max=4)
        final = solve(y0, flow, spec, kflat)
        want = abm_pec_solve(y0, field, 2.0, 0.25, s_min=2, s_max=4)
        np.testing.assert_allclose(final, want, atol=1e-6)

    def test_too_few_steps_raises(self):
        spec = SolverSpec(method="ham", tau=1.0, t_final=1.5, s_min=2)
        with pytest.raises(ValueError, match="s_min"):
            solve(H0, identity_flow, spec, K1)


class TestConvergenceOrders:
    def test_fitted_orders(self):
        rows = solvers.convergence_study(
            ["heuler", "hrk4", "ham"], [0.2, 0.1, 0.05, 0.025], kappa=K1
        )
        orders = {m: o for m, _, _, o in rows}
        assert 0.8 <= orders["heuler"] <= 1.2
        assert 3.5 <= orders["hrk4"] <= 4.5
        assert orders["ham"] >= 2.0

    def test_rotation_solution_is_isometric(self):
        h0 = np.array([0.3, 0.1, -0.2, 0.15])
        out = rotation_solution(h0, (1.0, 0.7), 2.0)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(h0), rel=1e-12)

    def test_needs_two_taus(self):
        with pytest.raises(ValueError):
            solvers.convergence_study(["heuler"], [0.1])


class TestInterpolation:
    def test_endpoints(self):
        x = np.array([0.1, 0.2])
        y = np.array([-0.3, 0.4])
        np.testing.assert_allclose(geodesic_interpolate(x, y, 0.0, K1), x, atol=1e-15)
        np.testing.assert_allclose(geodesic_interpolate(x, y, 1.0, K1), y, atol=1e-10)

    def test_distance_ratio(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = 0.6 * rng.uniform(-1, 1, size=3)
            y = 0.6 * rng.uniform(-1, 1, size=3)
            ratio = rng.uniform(0.05, 0.95)
            z = geodesic_interpolate(x, y, ratio, K1)
            measured = ball.distance(x, z, K1) / ball.distance(x, y, K1)
            assert abs(measured - ratio) / ratio < 1e-8

    def test_flat_limit_linear(self):
        kflat = -1e-8
        x = np.array([0.1, 0.4])
        y = np.array([0.5, -0.2])
        z = geodesic_interpolate(x, y, 0.3, kflat)
        np.testing.assert_allclose(z, x + 0.3 * (y - x), atol=1e-6)

    def test_ratio_out_of_range(self):
        x, y = np.zeros(2), np.array([0.1, 0.0])
        with pytest.raises(ValueError):
            geodesic_interpolate(x, y, 1.5, K1)
        with pytest.raises(ValueError):
            geodesic_interpolate(x, y, -0.1, K1)


class TestSolve:
    def test_grid_timestamps_exact_multiple(self):
        spec = SolverSpec(method="heuler", tau=0.5, t_final=2.0)
        _, times, _ = observed(H0, identity_flow, spec, K1)
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_partial_final_step_interpolates(self):
        rng = np.random.default_rng(5)
        a = 0.4 * rng.standard_normal((4, 4))

        def flow(h, t):
            return ball.exp_map(h, h @ a.T, K1)

        spec = SolverSpec(method="heuler", tau=1.0, t_final=1.5)
        final, times, states = observed(H0, flow, spec, K1)
        assert times == [0.0, 1.0, 1.5]
        np.testing.assert_array_equal(states[-1], final)
        h1 = states[1]
        overshoot = heuler_step(h1, 1.0, 1.0, flow, K1)
        np.testing.assert_array_equal(
            final, geodesic_interpolate(h1, overshoot, 0.5, K1)
        )
        ratios = ball.distance(h1, final, K1) / ball.distance(h1, overshoot, K1)
        np.testing.assert_allclose(ratios, 0.5, atol=1e-8)

    def test_states_stay_in_ball(self):
        rng = np.random.default_rng(6)
        a = 2.0 * rng.standard_normal((4, 4))  # strong field

        def flow(h, t):
            return ball.exp_map(h, h @ a.T + 0.5, K1)

        spec = SolverSpec(method="hrk4", tau=0.5, t_final=8.0)
        _, _, states = observed(H0, flow, spec, K1)
        limit = (1.0 - ball.BOUNDARY_EPS) / np.sqrt(-K1)
        for state in states:
            assert np.linalg.norm(state, axis=-1).max() <= limit * (1 + 1e-12)

    def test_nonfinite_abort_carries_step_index(self):
        def flow(h, t):
            if t >= 2.0:
                return np.full_like(h, np.nan)
            return h

        spec = SolverSpec(method="heuler", tau=1.0, t_final=5.0)
        with pytest.raises(NonFiniteStateError) as err:
            solve(H0, flow, spec, K1)
        assert err.value.step_index == 2

    def test_plain_value_error_propagates(self):
        def flow(h, t):
            raise ValueError("non-finite looking message from the flow")

        spec = SolverSpec(method="heuler", tau=1.0, t_final=2.0)
        with pytest.raises(ValueError) as err:
            solve(H0, flow, spec, K1)
        assert type(err.value) is ValueError
        assert "from the flow" in str(err.value)

    def test_floating_point_error_becomes_nonfinite_state(self):
        def flow(h, t):
            if t > 1.0:  # first reached by a stage of step 1
                raise FloatingPointError("overflow encountered in multiply")
            return h

        spec = SolverSpec(method="hrk4", tau=1.0, t_final=3.0)
        with pytest.raises(NonFiniteStateError) as err:
            solve(H0, flow, spec, K1)
        assert err.value.step_index == 1
        assert isinstance(err.value.__cause__, FloatingPointError)

    @pytest.mark.parametrize("method", solvers.METHODS)
    @pytest.mark.parametrize("failure", ["nan", "raise"])
    def test_nonfinite_first_slope_is_a_state_error(self, method, failure):
        # ham takes its first slope, at t=0, before its first step
        def flow(h, t):
            if failure == "raise":
                raise FloatingPointError("overflow encountered in multiply")
            return np.full_like(h, np.nan)

        spec = SolverSpec(method=method, tau=0.5, t_final=1.0)
        with pytest.raises(NonFiniteStateError) as err:
            solve(H0, flow, spec, K1)
        assert err.value.step_index == 0

    @pytest.mark.parametrize("method, step_index", [("heuler", 4), ("hrk4", 3), ("ham", 3)])
    def test_nonfinite_slope_fails_the_new_state(self, monkeypatch, method, step_index):
        # an infinite slope from t=2 on passes no flow check, so the update's
        # check of the state it makes must stop the step that first uses it:
        # heuler's step at t=2, hrk4's last stage from t=1.5, and ham's
        # corrector from t=1.5, whose predicted point is slope at t=2
        real = solvers._field

        def field(base, at, t, flow, k, pool=None):
            out = real(base, at, t, flow, k, pool)
            return np.full_like(out, np.inf) if t >= 2.0 else out

        monkeypatch.setattr(solvers, "_field", field)
        spec = SolverSpec(method=method, tau=0.5, t_final=3.0)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError) as err:
            solve(H0, identity_flow, spec, K1)
        assert err.value.step_index == step_index
        assert isinstance(err.value.__cause__, ball.NonFiniteError)
        assert str(err.value.__cause__) == "non-finite state"

    def test_observer_does_not_change_result(self):
        rng = np.random.default_rng(7)
        a = 0.4 * rng.standard_normal((4, 4))

        def flow(h, t):
            return ball.exp_map(h, h @ a.T, K1)

        for method in ("heuler", "hrk4", "ham"):
            spec = SolverSpec(method=method, tau=0.25, t_final=1.6)
            plain = solve(H0, flow, spec, K1)
            final, times, _ = observed(H0, flow, spec, K1)
            np.testing.assert_array_equal(final, plain)
            assert times == [0.25 * i for i in range(7)] + [1.6]

    def test_flow_shape_mismatch(self):
        def bad_flow(h, t):
            return h[:1]

        spec = SolverSpec(method="heuler", tau=1.0, t_final=1.0)
        with pytest.raises(ValueError, match="shape"):
            solve(H0, bad_flow, spec, K1)

