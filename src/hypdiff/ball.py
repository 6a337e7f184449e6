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
into a float (``ValueError`` unless in [-9.48e153, 0)) and every array into
float64, raising :class:`NonFiniteError` on NaN or inf coordinates.  Each
public function then calls a ``_``-prefixed kernel that takes a plain float
``k`` and finite float64 arrays and checks nothing; the kernels call each
other directly, so no input is validated twice.  Some kernels
accept the squared row norms of their point arguments (``x2``, ``y2``) so
that callers gathering rows of one point set compute them once per point.

Every point-valued kernel takes ``out`` and ``work``: it writes its result
into ``out`` (a new array when it is None) and takes its temporaries from
``work``, a :class:`hypdiff.blocks.Scratch` (in a pooled pass, the running
thread's); given none, a kernel makes one for the call.  Either way each
evaluates its closed form with the same ufuncs in the same order, so the
bits do not depend on the buffers.  ``out`` must not overlap the inputs.
The projection is the exception: ``_project`` works in place.
"""

from __future__ import annotations

import numpy as np

from .blocks import Scratch

# Relative margin kept between any point and the ball boundary.  atanh blows
# up at the boundary, so interior outputs are rescaled to (1 - EPS) * R.
BOUNDARY_EPS = 1e-5

# Largest argument ever handed to atanh.
_ATANH_MAX = 1.0 - 1e-15

# Smallest gyromidpoint denominator.  For kappa < 0 every lambda_j - 1 >= 1,
# so the denominator is at least sum |eta_j|: a bound on that sum (see
# diffusion.ResidualSpec) keeps it from vanishing at any scale of eta.
_TINY = np.finfo(np.float64).tiny


class NonFiniteError(ValueError):
    """Raised when a coordinate or scalar handed to the kernel is NaN or inf."""


def _kappa_value(kappa) -> float:
    # the kernels form 2 k^2, which overflows past |k| = 9.48e153
    k = float(kappa)
    if not np.isfinite(2.0 * k * k) or k >= 0.0:
        raise ValueError(f"curvature must be a negative real with |kappa| <= 9.48e153, got {k}")
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

def _shape(*shapes) -> tuple:
    # np.broadcast_shapes, without its cost in the usual case of one shape
    for shape in shapes:
        if shape != shapes[0]:
            return np.broadcast_shapes(*shapes)
    return shapes[0]


def _cols(*shapes) -> tuple:
    # shape of the per-row scalars (keepdims) of arrays of these shapes
    return _shape(*shapes)[:-1] + (1,)


def _dot(x, y, out=None, work=None):
    # np.sum(x * y, axis=-1, keepdims=True), the product made in work
    work = Scratch() if work is None else work
    with work.frame():
        xy = np.multiply(x, y, out=work.take(_shape(x.shape, y.shape)))
        return np.add.reduce(xy, axis=-1, keepdims=True, out=out)


def _sqnorm(x, out=None, work=None):
    return _dot(x, x, out, work)


def _norm(x, out=None, work=None):
    # np.linalg.norm(x, axis=-1, keepdims=True) is sqrt(add.reduce(x * x))
    out = _sqnorm(x, out, work)
    return np.sqrt(out, out=out)


def _lambda(x2, k, out=None):
    # conformal factor 2 / (1 + k x2) from the squared norm, with keepdims
    out = np.multiply(k, x2, out=out)
    np.add(1.0, out, out=out)
    return np.divide(2.0, out, out=out)


def _project(x, k, norm=None, work=None):
    """Projects x in place: each row whose norm exceeds the projection
    radius is multiplied by radius / norm.  x is written only when some row
    clamps, and then by a multiply by 1.0 on the others, which is exact.
    Returns x and the row norms of the projected array, written to norm if
    given."""
    work = Scratch() if work is None else work
    n = _norm(x, norm, work)
    max_norm = (1.0 - BOUNDARY_EPS) / np.sqrt(-k)
    # fmax skips NaN norms, which clamp nothing
    if not (n.size and np.fmax.reduce(n, axis=None) > max_norm):
        return x, n
    np.multiply(x, np.where(n > max_norm, max_norm / np.where(n == 0.0, 1.0, n), 1.0), out=x)
    return x, _norm(x, n, work)


def _mobius_add(x, y, k, x2=None, y2=None, out=None, work=None, den=None):
    # ((1 - 2k<x,y> - k|y|^2) x + (1 + k|x|^2) y) / (1 - 2k<x,y> + k^2|x|^2|y|^2),
    # the algebraic form without the ball projection; gyration applies it to
    # tangent vectors, which may lie far outside the ball.  The denominator
    # is written to den when given
    work = Scratch() if work is None else work
    shape = _shape(x.shape, y.shape)
    with work.frame():
        if x2 is None:
            x2 = _sqnorm(x, work.take(_cols(x.shape)), work)
        if y2 is None:
            y2 = _sqnorm(y, work.take(_cols(y.shape)), work)
        wide = np.multiply(x, y, out=work.take(shape))
        xy = np.add.reduce(wide, axis=-1, keepdims=True,
                           out=work.take(_cols(shape)) if den is None else den)
        # 1 - 2k<x,y> starts both the denominator and the coefficient of x
        den = np.multiply(2.0 * k, xy, out=xy)
        np.subtract(1.0, den, out=den)
        ky2 = np.multiply(k, y2, out=work.take(y2.shape))
        num = np.multiply(np.subtract(den, ky2, out=work.take(den.shape)), x, out=out)
        cy = np.multiply(k, x2, out=work.take(x2.shape))
        np.add(1.0, cy, out=cy)
        np.add(num, np.multiply(cy, y, out=wide), out=num)
        kx2 = np.multiply(k * k, x2, out=cy)
        np.add(den, np.multiply(kx2, y2, out=work.take(_cols(x2.shape, y2.shape))), out=den)
        return np.divide(num, den, out=num)


def _mobius_scalar(r, x, k, out=None, work=None):
    # r (x) x = exp_o(r log_o(x)) = tanh(r atanh(sqrt(s)|x|)) x / (sqrt(s)|x|),
    # 0 where x == 0: those rows divide by sqrt(s), not by 0, and are zeroed
    work = Scratch() if work is None else work
    sq = np.sqrt(-k)
    with work.frame():
        n = _norm(x, work.take(_cols(x.shape)), work)
        zero = np.equal(n, 0.0, out=work.take(n.shape, bool))
        sn = np.multiply(sq, n, out=n)
        arg = np.minimum(sn, _ATANH_MAX, out=work.take(n.shape))
        np.multiply(r, np.arctanh(arg, out=arg), out=arg)
        moved = np.multiply(np.tanh(arg, out=arg), x, out=out)
        np.copyto(sn, sq, where=zero)
        np.copyto(np.divide(moved, sn, out=moved), 0.0, where=zero)
        return _project(moved, k, sn, work)[0]


def _exp_map(x, v, k, x2=None, out=None, work=None):
    # project(where(|v| == 0, x + 0.0 v, project(x (+) gyro)))
    work = Scratch() if work is None else work
    shape = _shape(x.shape, v.shape)
    sq = np.sqrt(-k)
    with work.frame():
        if x2 is None:
            x2 = _sqnorm(x, work.take(_cols(x.shape)), work)
        vn = _norm(v, work.take(_cols(v.shape)), work)
        zero = np.equal(vn, 0.0, out=work.take(vn.shape, bool))
        safe = work.take(vn.shape)
        np.copyto(safe, vn)
        np.copyto(safe, 1.0, where=zero)
        # gyro = tanh(sq lambda_x |v| / 2) v / (sq |v|)
        lam = _lambda(x2, k, out=work.take(x2.shape))
        t = np.multiply(np.multiply(sq, lam, out=lam), vn, out=work.take(_cols(x2.shape, vn.shape)))
        np.divide(t, 2.0, out=t)
        np.tanh(t, out=t)
        gyro = np.multiply(t, v, out=work.take(shape))
        np.divide(gyro, np.multiply(sq, safe, out=safe), out=gyro)
        moved = _mobius_add(x, gyro, k, x2, out=out, work=work)
        norm = work.take(_cols(shape))
        _project(moved, k, norm, work)
        if zero.any():
            # exp_x(0) = x exactly: x + 0.0 * v on the zero-tangent rows
            np.multiply(0.0, v, out=moved, where=zero)
            np.add(x, moved, out=moved, where=zero)
        return _project(moved, k, norm, work)[0]


def _log_map(x, y, k, x2=None, y2=None, out=None, work=None):
    # 2 / (sq lambda_x) atanh(sq |m|) m / |m| with m = project((-x) (+) y),
    # 0 where y == x or m == 0.  sum((-x) * (-x)) equals sum(x * x)
    # bitwise, so x2 serves both factors
    work = Scratch() if work is None else work
    shape = _shape(x.shape, y.shape)
    cols = _cols(shape)
    sq = np.sqrt(-k)
    with work.frame():
        if x2 is None:
            x2 = _sqnorm(x, work.take(_cols(x.shape)), work)
        equal = np.equal(x, y, out=work.take(shape, bool))
        same = np.logical_and.reduce(equal, axis=-1, keepdims=True, out=work.take(cols, bool))
        m = _mobius_add(np.negative(x, out=work.take(x.shape)), y, k, x2, y2, out=out, work=work)
        m, mn = _project(m, k, work.take(cols), work)
        degenerate = np.logical_or(same, np.equal(mn, 0.0, out=work.take(cols, bool)), out=same)
        safe = work.take(cols)
        np.copyto(safe, mn)
        np.copyto(safe, 1.0, where=degenerate)
        arg = np.multiply(sq, mn, out=mn)
        np.minimum(arg, _ATANH_MAX, out=arg)
        # coef = 2 / (sq lambda_x) atanh(arg) / safe
        lam = _lambda(x2, k, out=work.take(x2.shape))
        np.divide(2.0, np.multiply(sq, lam, out=lam), out=lam)
        coef = np.multiply(lam, np.arctanh(arg, out=arg), out=arg)
        np.divide(coef, safe, out=coef)
        np.multiply(coef, m, out=m)
        if degenerate.any():
            np.copyto(m, 0.0, where=degenerate)
        return m


def _dlog(x, y, w, k, out=None, work=None):
    work = Scratch() if work is None else work
    shape = _shape(x.shape, y.shape, w.shape)
    cols = _cols(shape)
    s = -k
    sq = np.sqrt(s)
    with work.frame():
        a = np.negative(x, out=work.take(x.shape))
        a2 = _sqnorm(a, work.take(_cols(a.shape)), work)
        y2 = _sqnorm(y, work.take(_cols(y.shape)), work)
        # m = a (+) y, and den = 1 - 2k<a,y> + k^2 |a|^2 |y|^2, its denominator
        den = work.take(_cols(a.shape, y.shape))
        m = _mobius_add(a, y, k, a2, y2, out=work.take(shape), work=work, den=den)
        wide = work.take(shape)  # for one product at a time
        # dnum = (-2k<a,w> - 2k<y,w>) a + (1 + k|a|^2) w
        p = np.multiply(-2.0 * k, _dot(a, w, work.take(cols), work), out=work.take(cols))
        yw = _dot(y, w, work.take(cols), work)
        pq = np.subtract(p, np.multiply(2.0 * k, yw, out=work.take(cols)), out=work.take(cols))
        u = np.multiply(pq, a, out=work.take(shape))
        ca2 = np.multiply(k, a2, out=work.take(a2.shape))
        np.add(1.0, ca2, out=ca2)
        np.add(u, np.multiply(ca2, w, out=wide), out=u)
        # dden = -2k<a,w> + 2k^2 |a|^2 <y,w>, whose first term is p
        e = np.multiply(2.0 * k * k, a2, out=ca2)
        dden = np.add(p, np.multiply(e, yw, out=yw), out=p)
        # u = (dnum - m dden) / den
        np.subtract(u, np.multiply(m, dden, out=wide), out=u)
        np.divide(u, den, out=u)
        r = _norm(m, work.take(_cols(m.shape)), work)
        zero = np.equal(r, 0.0, out=work.take(r.shape, bool))
        safe = work.take(r.shape)
        np.copyto(safe, r)
        np.copyto(safe, 1.0, where=zero)
        mu = np.divide(m, safe, out=m)
        u_rad = np.multiply(_dot(mu, u, work.take(cols), work), mu, out=wide)
        u_tan = np.subtract(u, u_rad, out=u)
        # coef_tan = where(r == 0, sq, atanh(min(sq r, MAX)) / safe)
        coef_tan = np.multiply(sq, r, out=work.take(r.shape))
        np.minimum(coef_tan, _ATANH_MAX, out=coef_tan)
        np.arctanh(coef_tan, out=coef_tan)
        np.divide(coef_tan, safe, out=coef_tan)
        np.copyto(coef_tan, sq, where=zero)
        # coef_rad = sq / (1 - s r r)
        coef_rad = np.multiply(s, r, out=safe)
        np.multiply(coef_rad, r, out=coef_rad)
        np.subtract(1.0, coef_rad, out=coef_rad)
        np.divide(sq, coef_rad, out=coef_rad)
        # 2 / (sq lambda(a2)) (coef_tan u_tan + coef_rad u_rad)
        np.multiply(coef_tan, u_tan, out=u_tan)
        np.add(u_tan, np.multiply(coef_rad, u_rad, out=u_rad), out=u_tan)
        lam = _lambda(a2, k, out=e)
        np.divide(2.0, np.multiply(sq, lam, out=lam), out=lam)
        return np.multiply(lam, u_tan, out=out)


def _distance(x, y, k, x2=None, y2=None, out=None, work=None):
    # 2 / sq atanh(sq |project((-x) (+) y)|)
    work = Scratch() if work is None else work
    shape = _shape(x.shape, y.shape)
    sq = np.sqrt(-k)
    with work.frame():
        neg = np.negative(x, out=work.take(x.shape))
        m = _mobius_add(neg, y, k, x2, y2, out=work.take(shape), work=work)
        _, mn = _project(m, k, work.take(_cols(shape)), work)
        arg = np.multiply(sq, mn, out=mn)
        np.minimum(arg, _ATANH_MAX, out=arg)
        np.arctanh(arg, out=arg)
        return np.multiply(2.0 / sq, arg[..., 0], out=out)


def _gyration(a, b, c, k, out=None, work=None):
    work = Scratch() if work is None else work
    with work.frame():
        ab = _mobius_add(a, b, k, out=work.take(_shape(a.shape, b.shape)), work=work)
        bc = _mobius_add(b, c, k, out=work.take(_shape(b.shape, c.shape)), work=work)
        abc = _mobius_add(a, bc, k, out=work.take(_shape(a.shape, bc.shape)),
                          work=work)
        return _mobius_add(np.negative(ab, out=ab), abc, k, out=out, work=work)


def _parallel_transport(x, y, v, k, out=None, work=None):
    # (lambda_x / lambda_y) gyr[y, -x] v
    work = Scratch() if work is None else work
    with work.frame():
        lx = _sqnorm(x, work.take(_cols(x.shape)), work)
        ly = _sqnorm(y, work.take(_cols(y.shape)), work)
        _lambda(lx, k, out=lx)
        _lambda(ly, k, out=ly)
        ratio = np.divide(lx, ly, out=work.take(_cols(x.shape, y.shape)))
        g = _gyration(y, np.negative(x, out=work.take(x.shape)), v, k, out=out, work=work)
        return np.multiply(ratio, g, out=g)


def _gyromidpoint(pts, weights, k, out=None, work=None):
    # (1/2) (x) (sum_j eta_j lambda_j z_j / sum_j |eta_j| (lambda_j - 1)) over
    # the broadcastable point arrays z_j of pts, each j-sum added in order from
    # +0.0, as np.sum over a stacked axis adds it (but for one row of 8 or more
    # points, which it adds pairwise).  eta is the weights times the power of
    # two 2**-e that brings max |eta| into [0.5, 1): an exact scaling, so no
    # sum overflows and the quotient keeps its bits; den is checked on the weights' scale
    work = Scratch() if work is None else work
    e = int(np.frexp(np.max(np.abs(weights), initial=0.0))[1])
    shape = _shape(*(p.shape for p in pts))
    with work.frame():
        num, den = work.take(shape), work.take(_cols(shape))
        num.fill(0.0)
        den.fill(0.0)
        for p, eta in zip(pts, np.ldexp(weights, -e)):
            with work.frame():
                lam = _sqnorm(p, work.take(_cols(p.shape)), work)
                _lambda(lam, k, out=lam)
                c = np.multiply(eta, lam, out=work.take(lam.shape))
                np.add(num, np.multiply(c, p, out=work.take(p.shape)), out=num)
                np.add(den, np.multiply(abs(eta), np.subtract(lam, 1.0, out=lam), out=lam), out=den)
        if np.any(den < np.ldexp(_TINY, -e)):
            raise ValueError("ill-posed gyromidpoint weights: denominator vanishes")
        return _mobius_scalar(0.5, np.divide(num, den, out=num), k, out=out, work=work)


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
    return _project(xa.copy(), k)[0]


def mobius_add(x: np.ndarray, y: np.ndarray, kappa) -> np.ndarray:
    """Mobius addition x (+) y.

    ((1 - 2k<x,y> - k|y|^2) x + (1 + k|x|^2) y) / (1 - 2k<x,y> + k^2 |x|^2 |y|^2)
    """
    k = _kappa_value(kappa)
    x, y = _finite(x, y)
    return _project(_mobius_add(x, y, k), k)[0]


def conformal_factor(x: np.ndarray, kappa) -> np.ndarray:
    """lambda_x = 2 / (1 + kappa |x|^2); equals 2 at the origin."""
    k = _kappa_value(kappa)
    (x,) = _finite(x)
    return _lambda(_sqnorm(_project(x.copy(), k)[0]), k)[..., 0]


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
    Recovers the weighted arithmetic mean as kappa -> 0.  The result depends
    on the ratios of the weights only: they are scaled by a power of two, which
    changes no bit of it, so weights whose sum overflows are well-posed.  For
    kappa < 0 every lambda_j - 1 >= 1, so the denominator is at least
    sum_j |eta_j|, and ``ValueError`` is raised only when it falls below the
    smallest normal float, as it does for all-zero weights.
    """
    k = _kappa_value(kappa)
    pts, eta = _finite(points, weights)
    if not len(pts) or eta.shape != (len(pts),):
        raise ValueError("gyromidpoint needs one weight for each of one or more points")
    return _gyromidpoint(list(pts), eta, k)
