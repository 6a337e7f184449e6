"""Integrators: step identities, flat-limit equivalence, orders, interpolation."""

import numpy as np
import pytest

from hypdiff import ball, solvers
from hypdiff.solvers import (
    AB_COEFFS,
    AM_COEFFS,
    NonFiniteStateError,
    SolverSpec,
    _heuler_step,
    _hrk4_step,
    geodesic_interpolate,
    rotation_flow,
    rotation_solution,
    solve,
)

from _oracles import abm_pec_solve, geodesic_flow, rk38_step

K1 = -1.0
H0 = np.array([[0.3, 0.1, -0.2, 0.15], [0.05, -0.25, 0.1, 0.2]])


def identity_flow(h, t):
    return h


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


class TestHEuler:
    def test_identity_flow_fixed_point(self):
        out = _heuler_step(H0, 0.0, 0.5, identity_flow, K1)
        np.testing.assert_allclose(out, H0, atol=1e-15)

    def test_projective_identity_at_unit_step(self):
        rng = np.random.default_rng(0)
        target = 0.3 * rng.standard_normal(H0.shape)

        def flow(h, t):
            return ball.exp_map(h, target, K1)

        out = _heuler_step(H0, 0.0, 1.0, flow, K1)
        np.testing.assert_allclose(out, flow(H0, 0.0), atol=1e-12)

    def test_geodesic_flow_single_step_exact(self):
        # projective Euler follows geodesics exactly; see the rotation flow
        # below for a flow with measurable truncation error
        h0 = np.array([0.2, -0.1, 0.15, 0.05])
        v0 = np.array([0.3, 0.2, -0.1, 0.1])
        flow = geodesic_flow(h0, v0, K1)
        out = _heuler_step(h0, 0.0, 0.1, flow, K1)
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
        overshoot = _heuler_step(h1, 1.0, 1.0, flow, K1)
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

