"""Closed-form Poincare ball operations (gyrovector calculus).

Convention: curvature kappa < 0, scale s = |kappa|, ball radius R = 1/sqrt(s).
All functions broadcast over leading axes; the last axis holds coordinates.
Points are float64 arrays strictly inside the ball; tangent vectors are plain
arrays attached to an explicit base point argument.

Numerical safety: atanh arguments are clamped below 1, every point-valued
output is passed through the ball projection, and the degenerate 0/0
branches (zero tangent, coincident points) return exact identities instead of
evaluating the closed forms.

Validation happens once, at the public functions: they turn the curvature
into a float (``ValueError`` unless finite and negative) and every array into
float64, raising :class:`NonFiniteError` on NaN or inf coordinates.  Each
public function then calls a ``_``-prefixed kernel that takes a plain float
``k`` and finite float64 arrays and checks nothing; the kernels call each
other directly, so no input is validated twice.  Some kernels
accept the squared row norms of their point arguments (``x2``, ``y2``) so
that callers gathering rows of one point set compute them once per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative margin kept between any point and the ball boundary.  atanh blows
# up at the boundary, so interior outputs are rescaled to (1 - EPS) * R.
BOUNDARY_EPS = 1e-5

# Largest argument ever handed to atanh.
_ATANH_MAX = 1.0 - 1e-15


@dataclass(frozen=True)
class Curvature:
    """Sectional curvature of the ball, kappa < 0."""

    kappa: float

    def __post_init__(self):
        if not np.isfinite(self.kappa) or self.kappa >= 0.0:
            raise ValueError(f"curvature must be a finite negative real, got {self.kappa}")

    @property
    def scale(self) -> float:
        return -self.kappa

    @property
    def radius(self) -> float:
        return 1.0 / np.sqrt(-self.kappa)


class NonFiniteError(ValueError):
    """Raised when a coordinate or scalar handed to the kernel is NaN or inf."""


def _kappa_value(kappa) -> float:
    k = kappa.kappa if isinstance(kappa, Curvature) else float(kappa)
    if not np.isfinite(k) or k >= 0.0:
        raise ValueError(f"curvature must be a finite negative real, got {k}")
    return k


def _finite(*arrays):
    """The arrays as float64; raises NonFiniteError on any NaN or inf."""
    out = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
    for a in out:
        if not np.all(np.isfinite(a)):
            raise NonFiniteError("non-finite coordinates")
    return out


def _finite_result(out: np.ndarray) -> np.ndarray:
    """out itself; raises NonFiniteError if it holds NaN or inf.  For the
    kernels that compose unprojected Mobius sums: points at the projection
    limit can round a denominator to 0."""
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("non-finite result: points too close to the ball boundary")
    return out


# ---------------------------------------------------------------------------
# Raw kernels: float k, finite float64 arrays, no checks
# ---------------------------------------------------------------------------

def _norm(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x, axis=-1, keepdims=True)


def _sqnorm(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=-1, keepdims=True)


def _lambda(x2: np.ndarray, k: float) -> np.ndarray:
    # conformal factor from the squared norm, with keepdims
    return 2.0 / (1.0 + k * x2)


def _project(x: np.ndarray, k: float, norm=None) -> np.ndarray:
    # returns x itself when no row clamps: the multiply by 1.0 that it saves
    # is exact, so the result is bitwise the same either way
    n = _norm(x) if norm is None else norm
    max_norm = (1.0 - BOUNDARY_EPS) / np.sqrt(-k)
    clamp = n > max_norm
    if not clamp.any():
        return x
    return x * np.where(clamp, max_norm / np.where(n == 0.0, 1.0, n), 1.0)


def _project_norm(x: np.ndarray, k: float):
    """Projected x and the row norms of the projected array."""
    n = _norm(x)
    out = _project(x, k, n)
    return out, (n if out is x else _norm(out))


def _mobius_add(x, y, k, x2=None, y2=None):
    # algebraic form without the ball projection; gyration applies it to
    # tangent vectors, which may lie far outside the ball
    if x2 is None:
        x2 = _sqnorm(x)
    if y2 is None:
        y2 = _sqnorm(y)
    xy = np.sum(x * y, axis=-1, keepdims=True)
    num = (1.0 - 2.0 * k * xy - k * y2) * x + (1.0 + k * x2) * y
    den = 1.0 - 2.0 * k * xy + k * k * x2 * y2
    return num / den


def _mobius_scalar(r, x, k):
    # r (x) x = exp_o(r log_o(x)) = tanh(r atanh(sqrt(s)|x|)) x / (sqrt(s)|x|)
    sq = np.sqrt(-k)
    n = _norm(x)
    safe = np.where(n == 0.0, 1.0, n)
    arg = np.minimum(sq * n, _ATANH_MAX)
    out = np.tanh(r * np.arctanh(arg)) * x / (sq * safe)
    return _project(np.where(n == 0.0, 0.0, out), k)


def _exp_map(x, v, k, x2=None):
    if x2 is None:
        x2 = _sqnorm(x)
    sq = np.sqrt(-k)
    vn = _norm(v)
    safe = np.where(vn == 0.0, 1.0, vn)
    gyro = np.tanh(sq * _lambda(x2, k) * vn / 2.0) * v / (sq * safe)
    moved = _project(_mobius_add(x, gyro, k, x2), k)
    return _project(np.where(vn == 0.0, x + 0.0 * v, moved), k)


def _log_map(x, y, k, x2=None, y2=None):
    # sum((-x) * (-x)) equals sum(x * x) bitwise, so x2 serves both factors
    if x2 is None:
        x2 = _sqnorm(x)
    sq = np.sqrt(-k)
    same = np.all(x == y, axis=-1, keepdims=True)
    m, mn = _project_norm(_mobius_add(-x, y, k, x2, y2), k)
    degenerate = same | (mn == 0.0)
    safe = np.where(degenerate, 1.0, mn)
    arg = np.minimum(sq * mn, _ATANH_MAX)
    coef = 2.0 / (sq * _lambda(x2, k)) * np.arctanh(arg) / safe
    return np.where(degenerate, 0.0, coef * m)


def _dlog(x, y, w, k):
    s = -k
    sq = np.sqrt(s)
    a = -x
    a2 = _sqnorm(a)
    y2 = _sqnorm(y)
    ay = np.sum(a * y, axis=-1, keepdims=True)
    aw = np.sum(a * w, axis=-1, keepdims=True)
    yw = np.sum(y * w, axis=-1, keepdims=True)
    den = 1.0 - 2.0 * k * ay + k * k * a2 * y2
    m = _mobius_add(a, y, k, a2, y2)
    dnum = (-2.0 * k * aw - 2.0 * k * yw) * a + (1.0 + k * a2) * w
    dden = -2.0 * k * aw + 2.0 * k * k * a2 * yw
    u = (dnum - m * dden) / den
    r = _norm(m)
    safe = np.where(r == 0.0, 1.0, r)
    mu = m / safe
    u_rad = np.sum(mu * u, axis=-1, keepdims=True) * mu
    u_tan = u - u_rad
    coef_tan = np.where(r == 0.0, sq, np.arctanh(np.minimum(sq * r, _ATANH_MAX)) / safe)
    coef_rad = sq / (1.0 - s * r * r)
    return 2.0 / (sq * _lambda(a2, k)) * (coef_tan * u_tan + coef_rad * u_rad)


def _distance(x, y, k, x2=None, y2=None):
    sq = np.sqrt(-k)
    _, mn = _project_norm(_mobius_add(-x, y, k, x2, y2), k)
    arg = np.minimum(sq * mn, _ATANH_MAX)
    return (2.0 / sq) * np.arctanh(arg)[..., 0]


def _gyration(a, b, c, k):
    ab = _mobius_add(a, b, k)
    abc = _mobius_add(a, _mobius_add(b, c, k), k)
    return _mobius_add(-ab, abc, k)


def _parallel_transport(x, y, v, k):
    return _lambda(_sqnorm(x), k) / _lambda(_sqnorm(y), k) * _gyration(y, -x, v, k)


def _gyromidpoint(pts, weights, k):
    eta = weights.reshape((pts.shape[0],) + (1,) * (pts.ndim - 1))
    lam = _lambda(_sqnorm(pts), k)
    den = np.sum(np.abs(eta) * (lam - 1.0), axis=0)
    if np.any(np.abs(den) < 1e-15):
        raise ValueError("ill-posed gyromidpoint weights: denominator vanishes")
    inner = np.sum(eta * lam * pts, axis=0) / den
    return _mobius_scalar(0.5, inner, k)


# ---------------------------------------------------------------------------
# Public API: validate, then run the raw kernel
# ---------------------------------------------------------------------------

def project_to_ball(x: np.ndarray, kappa) -> np.ndarray:
    """Rescale each row of x whose norm exceeds r = (1 - eps) * R onto radius r.

    Rows with norm <= r come back bitwise unchanged.  A clamped row is x
    times the float64 quotient r / |x|, so its norm equals r only up to a few
    ulps and may lie slightly above r; projecting it again can therefore
    move it by a few more ulps (the map is idempotent up to rounding, not
    bitwise).  Always returns a new array.  Raises :class:`NonFiniteError`
    on non-finite input.
    """
    k = _kappa_value(kappa)
    (xa,) = _finite(x)
    out = _project(xa, k)
    return out.copy() if out is x else out


def mobius_add(x: np.ndarray, y: np.ndarray, kappa) -> np.ndarray:
    """Mobius addition x (+) y.

    ((1 - 2k<x,y> - k|y|^2) x + (1 + k|x|^2) y) / (1 - 2k<x,y> + k^2 |x|^2 |y|^2)
    """
    k = _kappa_value(kappa)
    x, y = _finite(x, y)
    return _project(_mobius_add(x, y, k), k)


def conformal_factor(x: np.ndarray, kappa) -> np.ndarray:
    """lambda_x = 2 / (1 + kappa |x|^2); equals 2 at the origin."""
    k = _kappa_value(kappa)
    (x,) = _finite(x)
    return _lambda(_sqnorm(_project(x, k)), k)[..., 0]


def exp_map(x: np.ndarray, v: np.ndarray, kappa) -> np.ndarray:
    """Exponential map: x (+) tanh(sqrt(s) lambda_x |v| / 2) v / (sqrt(s)|v|).

    exp_x(0) = x exactly (zero-tangent branch short-circuits the 0/0 form).
    """
    k = _kappa_value(kappa)
    x, v = _finite(x, v)
    return _exp_map(x, v, k)


def log_map(x: np.ndarray, y: np.ndarray, kappa) -> np.ndarray:
    """Logarithmic map, inverse of exp_map.

    2 / (sqrt(s) lambda_x) atanh(sqrt(s) |m|) m / |m|  with  m = (-x) (+) y.
    Returns the zero vector when y coincides with x.
    """
    k = _kappa_value(kappa)
    x, y = _finite(x, y)
    return _log_map(x, y, k)


def dlog(x: np.ndarray, y: np.ndarray, w: np.ndarray, kappa) -> np.ndarray:
    """Differential of y -> log_x(y) applied to w (Jacobian-vector product).

    Chain rule through m = (-x) (+) y and the radial profile
    g(m) = 2/(sqrt(s) lambda_x) atanh(sqrt(s)|m|) m/|m|: the tangential part of
    dm scales by atanh(sqrt(s) r)/r, the radial part by sqrt(s)/(1 - s r^2).
    Reduces to the identity at y = x.  Exact, so one classical Runge-Kutta
    step in T_x integrates the pulled-back field at full order.
    """
    k = _kappa_value(kappa)
    x, y, w = _finite(x, y, w)
    return _dlog(x, y, w, k)


def distance(x: np.ndarray, y: np.ndarray, kappa) -> np.ndarray:
    """Geodesic distance 2/sqrt(s) atanh(sqrt(s) |(-x) (+) y|)."""
    k = _kappa_value(kappa)
    x, y = _finite(x, y)
    return _distance(x, y, k)


def gyration(a: np.ndarray, b: np.ndarray, c: np.ndarray, kappa) -> np.ndarray:
    """gyr[a, b] c = -(a (+) b) (+) (a (+) (b (+) c)); a Euclidean isometry of c.

    c may be an arbitrary vector (typically a tangent), so the compositions
    use the raw algebraic Mobius form without the ball projection.  Raises
    :class:`NonFiniteError` when that overflows, which happens for a and b
    at the projection limit.
    """
    k = _kappa_value(kappa)
    a, b, c = _finite(a, b, c)
    # an overflow is reported by _finite_result, not by numpy warnings
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _gyration(a, b, c, k)
    return _finite_result(out)


def parallel_transport(x: np.ndarray, y: np.ndarray, v: np.ndarray, kappa) -> np.ndarray:
    """Transport tangent v from T_x to T_y: (lambda_x / lambda_y) gyr[y, -x] v.

    Preserves the metric: lambda_y |PT(v)| = lambda_x |v|.  Raises
    :class:`NonFiniteError` where the gyration overflows (see :func:`gyration`).
    """
    k = _kappa_value(kappa)
    x, y, v = _finite(x, y, v)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _parallel_transport(x, y, v, k)
    return _finite_result(out)


def gyromidpoint(points: np.ndarray, weights: np.ndarray, kappa) -> np.ndarray:
    """Weighted Mobius gyromidpoint of points (J, ..., d) with weights (J,).

    (1/2) (x) ( sum_j eta_j lambda_j z_j / sum_j |eta_j| (lambda_j - 1) ).
    Recovers the weighted arithmetic mean as kappa -> 0.  For kappa < 0 every
    lambda_j - 1 >= 1, so the denominator only degenerates when the weights
    are all (numerically) zero.
    """
    k = _kappa_value(kappa)
    pts, eta = _finite(points, weights)
    return _gyromidpoint(pts, eta, k)
