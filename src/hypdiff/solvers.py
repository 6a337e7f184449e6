"""Projective fixed-grid integrators on the Poincare ball.

A *flow* is a map F(state, t) -> state on the ball; the integrated field is
its log at the current point, X(h, t) = log_h(F(h, t)).  Every step makes its
new state by one rule, exp_h(tau * sum_i c_i X_i), a weighted sum of field
slopes in the tangent space at the current grid point (``_update``); the
methods differ in their coefficients and in how the slopes reach T_h:

* ``heuler``  - explicit Euler, the one-term sum c = 1, X = log_h(F(h, t)).
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

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from . import ball, blocks
from .blocks import BlockPool, Scratch

FlowFn = Callable[[np.ndarray, float], np.ndarray]
ObserveFn = Callable[[float, np.ndarray], None]

METHODS = ("heuler", "hrk4", "ham")

# Classical Adams-Bashforth / Adams-Moulton rows up to order 4, newest slope
# first.  Each row sums to 1.
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


# fill(r, out, work) writes the rows r of a result into out, with its
# temporaries in work
FillFn = Callable[[slice, np.ndarray, Scratch], None]


def _rows(pool: Optional[BlockPool], like: np.ndarray, fill: FillFn) -> np.ndarray:
    """A new array shaped like `like` whose rows r, a slice of its leading
    axis, fill(r, rows, work) writes into its rows r, made block by block by
    blocks.run_rows (on the threads of ``pool`` while it is started, each
    block with the running thread's Scratch).  One point, a 1-D array, is
    made in one block.

    Every solver kernel is a per-row expression, so the result is bitwise
    the same for any blocks; each block runs its whole chain of kernels.
    """
    out = np.empty(like.shape)
    if like.ndim < 2:
        pool = BlockPool() if pool is None else pool
        pool.run(lambda _, work: fill(slice(None), out, work), (None,))
    else:
        blocks.run_rows(lambda a, b, work: fill(slice(a, b), out[a:b], work),
                        like.shape[0], math.prod(like.shape[1:]), pool)
    return out


def geodesic_interpolate(
    x: np.ndarray, y: np.ndarray, ratio: float, kappa, pool: Optional[BlockPool] = None,
) -> np.ndarray:
    """Point at fraction `ratio` along the geodesic from x to y.

    exp_x(ratio * log_x(y)); the distance ratio d(x, .)/d(x, y) equals ratio.
    """
    if not (0.0 <= ratio <= 1.0):
        raise ValueError(f"interpolation ratio must lie in [0, 1], got {ratio}")
    x, y = np.broadcast_arrays(*ball._finite(x, y))
    return _interpolate(x, y, ratio, ball._kappa_value(kappa), pool)


def _interpolate(x, y, ratio, k, pool):
    def fill(r: slice, out: np.ndarray, work: Scratch):
        tang = ball._log_map(x[r], y[r], k, out=work.take(out.shape), work=work)
        ball._exp_map(x[r], np.multiply(ratio, tang, out=tang), k, out=out, work=work)

    return _rows(pool, x, fill)


def _update(h: np.ndarray, tau: float, terms: Iterable[tuple], k: float,
            pool: Optional[BlockPool] = None) -> np.ndarray:
    """The new state exp_h(tau * sum_i c_i X_i) of every step.

    Each term is (c, slope), a tangent at h, or (c, (slope, base)), a
    tangent at base, parallel-transported to h first (also when base is h).
    The products are added in term order: the first is the accumulator, and
    each later one is made in a second buffer and added to it.  Each block
    checks the rows it makes: a block whose rows are not all finite raises
    ball.NonFiniteError, the first in block order.
    """
    terms = list(terms)

    def fill(r: slice, out: np.ndarray, work: Scratch):
        acc, term = work.take(out.shape), work.take(out.shape)
        for i, (c, x) in enumerate(terms):
            v = term if i else acc
            if isinstance(x, tuple):
                slope, base = x
                x = ball._parallel_transport(base[r], h[r], slope[r], k, out=v, work=work)
            else:
                x = x[r]
            np.multiply(c, x, out=v)
            if i:
                np.add(acc, term, out=acc)
        ball._exp_map(h[r], np.multiply(tau, acc, out=acc), k, out=out, work=work)
        if not np.isfinite(out, out=work.take(out.shape, bool)).all():
            raise ball.NonFiniteError("non-finite state")

    return _rows(pool, h, fill)


def _field(
    base: np.ndarray, at: np.ndarray, t: float, flow: FlowFn, k: float,
    pool: Optional[BlockPool] = None,
) -> np.ndarray:
    """Field log_at(F(at, t)) pulled back into the tangent space at `base`.

    The flow's output is the one input from outside the solver inside a
    step, so each block checks its rows of it; the rest runs on the raw ball
    kernels.
    """
    out = flow(at, t)
    if out.shape != at.shape:
        raise ValueError(f"flow output shape {out.shape} != state shape {at.shape}")

    def fill(r: slice, rows: np.ndarray, work: Scratch):
        (o,) = ball._finite(out[r])
        if at is base:
            ball._log_map(at[r], o, k, out=rows, work=work)
        else:
            slope = ball._log_map(at[r], o, k, out=work.take(rows.shape), work=work)
            ball._dlog(base[r], at[r], slope, k, out=rows, work=work)

    return _rows(pool, at, fill)


def _hrk4_step(
    h: np.ndarray, t: float, tau: float, flow: FlowFn, k: float,
    g1: Optional[np.ndarray] = None, pool: Optional[BlockPool] = None,
) -> np.ndarray:
    """One 4th-order step; returns exp_h(tau * X) with X the weighted stage mix.

    g1, when given, is the first stage: the field log_h(F(h, t)), which a
    caller that already holds it need not have evaluated again.  Raises
    ball.NonFiniteError if the new state is not finite.
    """
    def stage(u: Callable[[slice, np.ndarray], np.ndarray], ts: float) -> np.ndarray:
        # u(r, v): the rows r of the stage's tangent at h, written into v
        def fill(r: slice, out: np.ndarray, work: Scratch):
            ball._exp_map(h[r], u(r, work.take(out.shape)), k, out=out, work=work)

        return _field(h, _rows(pool, h, fill), ts, flow, k, pool)

    def u2(r, v):  # tau g1 / 3
        return np.divide(np.multiply(tau, g1[r], out=v), 3.0, out=v)

    def u3(r, v):  # tau (-g1 / 3 + g2)
        np.divide(np.negative(g1[r], out=v), 3.0, out=v)
        return np.multiply(tau, np.add(v, g2[r], out=v), out=v)

    def u4(r, v):  # tau (g1 - g2 + g3)
        np.add(np.subtract(g1[r], g2[r], out=v), g3[r], out=v)
        return np.multiply(tau, v, out=v)

    if g1 is None:
        g1 = _field(h, h, t, flow, k, pool)
    g2 = stage(u2, t + tau / 3.0)
    g3 = stage(u3, t + 2.0 * tau / 3.0)
    g4 = stage(u4, t + tau)

    return _update(h, tau, zip(_RK4_W, (g1, g2, g3, g4)), k, pool)


def _grid(tau: float, t_final: float) -> Tuple[int, bool]:
    """Number of full steps and whether a partial interpolation step remains."""
    n = int(round(t_final / tau))
    if abs(n * tau - t_final) <= 1e-9 * max(tau, t_final) and n >= 1:
        return n, False
    return int(np.floor(t_final / tau)), True


def solve(
    h0: np.ndarray, flow: FlowFn, spec: SolverSpec, kappa,
    observe: Optional[ObserveFn] = None, pool: Optional[BlockPool] = None,
) -> np.ndarray:
    """Integrate the flow from t=0 to t=spec.t_final on the tau-grid.

    Returns the final state.  When the horizon is not a grid point, the last
    full step is cut back by geodesic interpolation with ratio (T - t)/tau.

    ``observe(t, state)``, when given, is called at t=0, after every full
    step at t = tau, 2 tau, ..., and once more at t=T if the last step was
    interpolated.  ``state`` is read-only: the solver never writes to a state
    in place, so an observer may keep the reference, and it must not write
    to it either, because ``ham`` keeps earlier states in its slope queue.

    The n x d kernels of every step run in row blocks, on the threads of
    ``pool`` while the caller holds it started; the states do not depend on
    the pool.

    The solver's one entry: kappa and h0 are checked here, once.  The steps
    call the raw ball kernels with the float k and check only the flow's
    output and each new state, raising NonFiniteStateError.
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
    for i in range(n_full):
        h = _advance(h, i * spec.tau, spec, flow, k, i, queue, pool)
        observe((i + 1) * spec.tau, h)

    if partial:
        t = n_full * spec.tau
        overshoot = _advance(h, t, spec, flow, k, n_full, queue, pool)
        h = _interpolate(h, overshoot, (spec.t_final - t) / spec.tau, k, pool)
        observe(spec.t_final, h)
    return h


def _advance(h, t, spec, flow, k, step_index, queue, pool):
    # the one place where a failed check inside a step becomes NonFiniteStateError
    try:
        if spec.method == "heuler":  # the one-term update
            slope = _field(h, h, t, flow, k, pool)
            return _update(h, spec.tau, zip(AB_COEFFS[1], (slope,)), k, pool)
        if spec.method == "hrk4":
            return _hrk4_step(h, t, spec.tau, flow, k, pool=pool)
        return _ham_step(h, t, spec, flow, k, step_index, queue, pool)
    except (ball.NonFiniteError, FloatingPointError) as exc:
        raise NonFiniteStateError(step_index, t) from exc


def _ham_step(h, t, spec, flow, k, step_index, queue, pool):
    tau = spec.tau
    if not queue:  # the first step: the field at h, t=0, heads the queue
        queue.append((_field(h, h, t, flow, k, pool), h))
    if step_index < spec.s_min:
        # warm-up: identical hrk4 states, queue collects the field slopes.  The
        # head of the queue is the field at h at time t, the step's first stage.
        h_next = _hrk4_step(h, t, tau, flow, k, g1=queue[0][0], pool=pool)
        t_next = (step_index + 1) * tau  # the t the solver hands the next step
        queue.insert(0, (_field(h_next, h_next, t_next, flow, k, pool), h_next))
        return h_next
    order = min(len(queue), spec.s_max)
    h_star = _update(h, tau, zip(AB_COEFFS[order], queue), k, pool)
    queue.insert(0, (_field(h_star, h_star, t + tau, flow, k, pool), h_star))
    order = min(len(queue), spec.s_max)
    h_next = _update(h, tau, zip(AM_COEFFS[order], queue), k, pool)
    while len(queue) > spec.s_max:
        queue.pop()
    return h_next


# ---------------------------------------------------------------------------
# Reference flows for verification studies
# ---------------------------------------------------------------------------

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
        raise ValueError("need at least two tau values to fit an order")
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
