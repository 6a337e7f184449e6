"""Projective fixed-grid integrators on the Poincare ball.

A *flow* is a map F(state, t) -> state on the ball; the integrated field is
its log at the current point, X(h, t) = log_h(F(h, t)).  Steppers advance by
exp_h(tau * X_est) where X_est lives in the tangent space at the current grid
point:

* ``heuler``  - explicit Euler, X_est = log_h(F(h, t)).
* ``hrk4``    - 4-stage Runge-Kutta, weights {1, 3, 3, 1}/8 (the 3/8 rule)
  with stage times t + tau/3, t + 2 tau/3, t + tau.  Stage slopes are the
  field at the staged points pulled back into T_h exactly via the analytic
  differential of the log map, so the classical fourth order survives the
  curvature (a naive log/exp pullback drops to second order).
* ``ham``     - Adams-Bashforth predictor / Adams-Moulton corrector (PEC,
  one corrector application per step) over a queue of past field slopes,
  parallel-transported into the current tangent space; warm-started with
  ``hrk4`` steps and ramping the order up to s_max.

All three reduce to their classical flat-space counterparts as kappa -> 0,
and all three integrate geodesic flows exactly.  If the horizon is not a
multiple of tau, the final state is obtained by geodesic interpolation of the
overshooting step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import ball

FlowFn = Callable[[np.ndarray, float], np.ndarray]
ObserveFn = Callable[[float, np.ndarray], None]

METHODS = ("heuler", "hrk4", "ham")

# Classical Adams-Bashforth / Adams-Moulton rows up to order 4, newest slope
# first.  Each row sums to 1; asserted below to guard table entry errors.
AB_COEFFS = {
    1: (1.0,),
    2: (3.0 / 2.0, -1.0 / 2.0),
    3: (23.0 / 12.0, -16.0 / 12.0, 5.0 / 12.0),
    4: (55.0 / 24.0, -59.0 / 24.0, 37.0 / 24.0, -9.0 / 24.0),
}
AM_COEFFS = {
    1: (1.0,),
    2: (1.0 / 2.0, 1.0 / 2.0),
    3: (5.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0),
    4: (9.0 / 24.0, 19.0 / 24.0, -5.0 / 24.0, 1.0 / 24.0),
}

# Runge-Kutta 3/8-rule weights {1, 3, 3, 1} / 8; the quotients are exact.
RK4_WEIGHTS = (1.0, 3.0, 3.0, 1.0)
_RK4_W = tuple(w / sum(RK4_WEIGHTS) for w in RK4_WEIGHTS)

for _rows in (AB_COEFFS, AM_COEFFS):
    for _order, _row in _rows.items():
        assert abs(sum(_row) - 1.0) < 1e-12, f"bad coefficient row {_row}"


class NonFiniteStateError(RuntimeError):
    """Raised when an integration state stops being finite."""

    def __init__(self, step_index: int, t: float):
        super().__init__(f"non-finite state at step {step_index} (t={t:g})")
        self.step_index = step_index
        self.t = t


@dataclass
class SolverSpec:
    """Integrator choice, step size and horizon."""

    method: str = "hrk4"
    tau: float = 1.0
    t_final: float = 1.0
    s_min: int = 2
    s_max: int = 4

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        if not (self.t_final > 0.0 and np.isfinite(self.t_final)):
            raise ValueError("horizon must be positive and finite")
        if self.tau > self.t_final * (1.0 + 1e-12):
            raise ValueError("tau must not exceed the horizon")
        if not (1 <= self.s_min <= self.s_max <= 4):
            raise ValueError("orders must satisfy 1 <= s_min <= s_max <= 4")


def geodesic_interpolate(x: np.ndarray, y: np.ndarray, ratio: float, kappa) -> np.ndarray:
    """Point at fraction `ratio` along the geodesic from x to y.

    exp_x(ratio * log_x(y)); the distance ratio d(x, .)/d(x, y) equals ratio.
    """
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"interpolation ratio must lie in [0, 1], got {ratio}")
    k = ball._kappa_value(kappa)
    x, y = ball._finite(x, y)
    return ball._exp_map(x, ratio * ball._log_map(x, y, k), k)


def heuler_step(h: np.ndarray, t: float, tau: float, flow: FlowFn, kappa) -> np.ndarray:
    """One explicit Euler step exp_h(tau log_h(F(h, t)))."""
    k = ball._kappa_value(kappa)
    (h,) = ball._finite(h)
    return ball._exp_map(h, tau * _field(h, h, t, flow, k), k)


def _field(base: np.ndarray, at: np.ndarray, t: float, flow: FlowFn, k: float) -> np.ndarray:
    """Field log_at(F(at, t)) pulled back into the tangent space at `base`.

    The flow's output is the one input from outside the solver inside a
    step, so it is checked here; the rest runs on the raw ball kernels.
    """
    out = flow(at, t)
    if out.shape != at.shape:
        raise ValueError(f"flow output shape {out.shape} != state shape {at.shape}")
    (out,) = ball._finite(out)
    slope = ball._log_map(at, out, k)
    if at is base:
        return slope
    return ball._dlog(base, at, slope, k)


def hrk4_step(
    h: np.ndarray, t: float, tau: float, flow: FlowFn, kappa,
    g1: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One 4th-order step; returns exp_h(tau * X) with X the weighted stage mix.

    g1, when given, is the first stage: the field log_h(F(h, t)), which a
    caller that already holds it need not have evaluated again.
    """
    k = ball._kappa_value(kappa)
    (h,) = ball._finite(h)
    return ball._exp_map(h, tau * _hrk4_field(h, t, tau, flow, k, g1), k)


def _hrk4_field(
    h: np.ndarray, t: float, tau: float, flow: FlowFn, k: float,
    g1: Optional[np.ndarray] = None,
) -> np.ndarray:
    def stage(u: np.ndarray, ts: float) -> np.ndarray:
        return _field(h, ball._exp_map(h, u, k), ts, flow, k)

    if g1 is None:
        g1 = _field(h, h, t, flow, k)
    g2 = stage(tau * g1 / 3.0, t + tau / 3.0)
    g3 = stage(tau * (-g1 / 3.0 + g2), t + 2.0 * tau / 3.0)
    g4 = stage(tau * (g1 - g2 + g3), t + tau)
    return _RK4_W[0] * g1 + _RK4_W[1] * g2 + _RK4_W[2] * g3 + _RK4_W[3] * g4


def _grid(tau: float, t_final: float) -> Tuple[int, bool]:
    """Number of full steps and whether a partial interpolation step remains."""
    n = int(round(t_final / tau))
    if abs(n * tau - t_final) <= 1e-9 * max(tau, t_final) and n >= 1:
        return n, False
    return int(np.floor(t_final / tau)), True


def solve(
    h0: np.ndarray, flow: FlowFn, spec: SolverSpec, kappa,
    observe: Optional[ObserveFn] = None,
) -> np.ndarray:
    """Integrate the flow from t=0 to t=spec.t_final on the tau-grid.

    Returns the final state.  When the horizon is not a grid point, the last
    full step is cut back by geodesic interpolation with ratio (T - t)/tau.

    ``observe(t, state)``, when given, is called at t=0, after every full
    step at t = tau, 2 tau, ..., and once more at t=T if the last step was
    interpolated.  ``state`` is read-only: the solver never writes to a state
    in place, so an observer may keep the reference, and it must not write
    to it either, because ``ham`` keeps earlier states in its slope queue.
    """
    h = ball.project_to_ball(h0, kappa)
    k = ball._kappa_value(kappa)
    n_full, partial = _grid(spec.tau, spec.t_final)
    if spec.method == "ham" and n_full < spec.s_min:
        raise ValueError(
            f"ham needs at least s_min={spec.s_min} full steps before T, got {n_full}"
        )
    observe = observe or (lambda t, state: None)
    observe(0.0, h)
    queue: List[Tuple[np.ndarray, np.ndarray]] = []  # head first: (tangent, base)
    if spec.method == "ham":
        queue.append((_field(h, h, 0.0, flow, k), h))

    for i in range(n_full):
        h = _checked_advance(h, i * spec.tau, spec, flow, k, i, queue)
        observe((i + 1) * spec.tau, h)

    if partial:
        t = n_full * spec.tau
        overshoot = _checked_advance(h, t, spec, flow, k, n_full, queue)
        h = geodesic_interpolate(h, overshoot, (spec.t_final - t) / spec.tau, k)
        observe(spec.t_final, h)
    return h


def _checked_advance(h, t, spec, flow, k, step_index, queue):
    try:
        h_next = _advance(h, t, spec, flow, k, step_index, queue)
    except (ball.NonFiniteError, FloatingPointError) as exc:
        raise NonFiniteStateError(step_index, t) from exc
    _check_finite(h_next, step_index, t)
    return h_next


def _advance(h, t, spec, flow, k, step_index, queue):
    if spec.method == "heuler":
        return heuler_step(h, t, spec.tau, flow, k)
    if spec.method == "hrk4":
        return hrk4_step(h, t, spec.tau, flow, k)
    return _ham_step(h, t, spec, flow, k, step_index, queue)


def _ham_step(h, t, spec, flow, k, step_index, queue):
    tau = spec.tau
    if step_index < spec.s_min:
        # warm-up: identical hrk4 states, queue collects the field slopes.  The
        # head of the queue is the field at h at time t, the step's first stage.
        h_next = hrk4_step(h, t, tau, flow, k, g1=queue[0][0])
        t_next = (step_index + 1) * tau  # the t the solver hands the next step
        queue.insert(0, (_field(h_next, h_next, t_next, flow, k), h_next))
        return h_next
    order = min(len(queue), spec.s_max)
    x_ab = _adams_mix(AB_COEFFS[order], queue, h, k)
    h_star = ball._exp_map(h, tau * x_ab, k)
    queue.insert(0, (_field(h_star, h_star, t + tau, flow, k), h_star))
    order = min(len(queue), spec.s_max)
    x_am = _adams_mix(AM_COEFFS[order], queue, h, k)
    h_next = ball._exp_map(h, tau * x_am, k)
    while len(queue) > spec.s_max:
        queue.pop()
    return h_next


def _adams_mix(coeffs, queue, h, k):
    acc = None
    for c, (tangent, base) in zip(coeffs, queue):
        term = c * ball._parallel_transport(base, h, tangent, k)
        acc = term if acc is None else acc + term
    return acc


def _check_finite(h, step_index, t):
    if not np.all(np.isfinite(h)):
        raise NonFiniteStateError(step_index, t)


# ---------------------------------------------------------------------------
# Reference flows for verification studies
# ---------------------------------------------------------------------------

def geodesic_flow(h0: np.ndarray, v0: np.ndarray, kappa) -> FlowFn:
    """Flow F(h, t) = exp_h(PT_{h0->h}(v0)) whose solution is exp_h0(t v0).

    Every projective stepper integrates this flow exactly (geodesics
    parallel-transport their own velocity), so it verifies exactness, not
    convergence order.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)

    def flow(h: np.ndarray, t: float) -> np.ndarray:
        v = ball.parallel_transport(h0, h, np.broadcast_to(v0, h.shape), kappa)
        return ball.exp_map(h, v, kappa)

    return flow


def rotation_flow(rates, kappa) -> FlowFn:
    """Killing-field flow F(h, t) = exp_h(A h), A block-skew with the given rates.

    Euclidean rotations about the origin are ball isometries; the exact
    solution rotates coordinate pairs (2i, 2i+1) by angles rates[i] * t.  The
    solution curve is not a geodesic, so truncation orders are measurable.
    """
    rates = tuple(float(r) for r in rates)

    def flow(h: np.ndarray, t: float) -> np.ndarray:
        v = np.zeros_like(h)
        for i, w in enumerate(rates):
            a, b = 2 * i, 2 * i + 1
            v[..., a] = -w * h[..., b]
            v[..., b] = w * h[..., a]
        return ball.exp_map(h, v, kappa)

    return flow


def rotation_solution(h0: np.ndarray, rates, t: float) -> np.ndarray:
    """Exact state of :func:`rotation_flow` at time t."""
    out = np.array(h0, dtype=np.float64, copy=True)
    for i, w in enumerate(rates):
        a, b = 2 * i, 2 * i + 1
        c, s = np.cos(w * t), np.sin(w * t)
        xa, xb = out[..., a].copy(), out[..., b].copy()
        out[..., a] = c * xa - s * xb
        out[..., b] = s * xa + c * xb
    return out


def convergence_study(methods, taus, kappa=-1.0, t_final=1.0):
    """Fit empirical convergence orders on the rotation benchmark flow.

    Returns a list of (method, tau, error, fitted_order) rows; the order is
    the least-squares slope of log(error) against log(tau).
    """
    taus = [float(t) for t in taus]
    if len(taus) < 2:
        raise ValueError("need at least two step sizes to fit an order")
    rates = (1.0, 0.7)
    h0 = np.array([0.3, 0.1, -0.2, 0.15])
    flow = rotation_flow(rates, kappa)
    exact = rotation_solution(h0, rates, t_final)
    rows = []
    for method in methods:
        errors = []
        for tau in taus:
            spec = SolverSpec(method=method, tau=tau, t_final=t_final)
            h = solve(h0, flow, spec, kappa)
            errors.append(float(ball.distance(h, exact, kappa)))
        order = float(np.polyfit(np.log(taus), np.log(errors), 1)[0])
        rows.extend((method, tau, err, order) for tau, err in zip(taus, errors))
    return rows
