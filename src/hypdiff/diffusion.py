"""Graph diffusion dynamics on the Poincare ball.

The vector flow moves each node by the exponential map of its
diffusivity-weighted tangent aggregate,

    F(z)_i = exp_{z_i}( sigma[ sum_j a_ij * log_{z_i}(z_j) ] ),

optionally blended with the current and initial states through a weighted
gyromidpoint (the residual flow, which keeps the Dirichlet energy from
collapsing to zero).  Runs integrate the flow with the projective solvers and
record the hyperbolic Dirichlet energy along the trajectory.

Curvature is held constant over a run; the local/isotropic diffusivity
depends only on topology and frozen parameters and is built once, while the
global attention part is recomputed from the evolving embeddings at every
flow evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import ball, blocks, diffusivity as dv, solvers
from .blocks import BlockPool, Scratch
from .graphs import Graph

SIGMAS = ("identity", "tanh")

EnergyTrace = List[Tuple[float, float]]
# rows(a, b) -> the (b - a, n) dense weights of nodes a..b-1
RowSource = Callable[[int, int], np.ndarray]


@dataclass
class EmbeddingState:
    """n x d matrix of ball points, on the ball of curvature kappa."""

    points: np.ndarray
    kappa: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("embedding state must be an (n, d) matrix")
        self.points = ball.project_to_ball(pts, self.kappa)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass
class ResidualSpec:
    """Gyromidpoint weights for (dynamic, current, initial) states."""

    eta: Tuple[float, float, float] = (1.0, 0.6, 0.1)

    def __post_init__(self):
        if len(self.eta) != 3:
            raise ValueError("residual needs exactly three weights")
        if not np.all(np.isfinite(self.eta)):
            raise ValueError("residual weights must be finite")
        # the blend does not depend on the scale of eta, but the
        # gyromidpoint's denominator, at least sum |eta|, must stay normal;
        # a sum that overflows is well-posed
        with np.errstate(over="ignore"):
            total = np.sum(np.abs(self.eta))
        if total < ball._TINY:
            raise ValueError("residual weights must not all vanish (sum of |eta| below 2.2e-308)")


def _apply_sigma(agg: np.ndarray, sigma: str) -> np.ndarray:
    """agg with the activation applied in place."""
    if sigma == "identity":
        return agg
    if sigma == "tanh":
        return np.tanh(agg, out=agg)
    raise ValueError(f"unknown activation {sigma!r}, expected one of {SIGMAS}")


def diffusion_flow(
    points: np.ndarray,
    dmat: dv.DiffusivityMatrix,
    kappa,
    sigma: str = "identity",
    global_part: Optional[RowSource] = None,
    pool: Optional[BlockPool] = None,
    residual: Optional[ResidualSpec] = None,
    z0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One flow evaluation F(z) under the given diffusivity weights.

    The sparse part aggregates over neighbors (scalar or per-channel edge
    weights of dmat); the optional dense global part aggregates over all
    pairs, its weights made by global_part(a, b) as a (b - a, n) array for
    each block of rows a..b-1 (e.g. GlobalAttention.rows).  With a residual
    spec, each row's exp map is blended with its rows of points and z0, the
    initial state, through the weighted gyromidpoint.  Both passes run in
    row blocks, and so do the squared norms before them and the closing exp
    map and blend, on the threads of ``pool`` while its context is open,
    with their temporaries in the running thread's Scratch.  Aggregation
    order is fixed, so results are bitwise reproducible and do not depend on
    the pool.
    """
    n, dim = points.shape
    if dmat.graph.n != n:
        raise ValueError("diffusivity matrix size does not match state")
    if residual is not None and np.shape(z0) != points.shape:
        raise ValueError("residual states must share one shape")
    pool = BlockPool() if pool is None else pool
    k = ball._kappa_value(kappa)
    sq = np.empty((n, 1))
    blocks.run_rows(lambda a, b, work: ball._sqnorm(points[a:b], sq[a:b], work), n, dim, pool)
    agg = _edge_aggregate(points, dmat, k, sq, pool)
    if global_part is not None:
        _global_aggregate(points, global_part, k, sq, pool, agg)
    eta = None if residual is None else np.asarray(residual.eta, float)
    out = np.empty_like(points)

    def close(a: int, b: int, work: Scratch):
        part = agg[a:b]
        finite = np.isfinite(part, out=work.take(part.shape, bool))
        if not finite.all():
            bad = a + int(np.nonzero(~finite.all(axis=1))[0][0])
            raise FloatingPointError(f"non-finite tangent aggregate at node {bad}")
        moved = out[a:b] if eta is None else work.take(part.shape)
        ball._exp_map(points[a:b], _apply_sigma(part, sigma), k, sq[a:b], out=moved, work=work)
        if eta is not None:
            ball._gyromidpoint([moved, points[a:b], z0[a:b]], eta, k, out=out[a:b], work=work)

    blocks.run_rows(close, n, dim, pool)
    return out


def _gather(a: np.ndarray, index: np.ndarray, work: Scratch) -> np.ndarray:
    """The rows index of a, in an array of work.  The indices are in range
    (Graph checks them); under the default mode="raise" np.take would first
    copy its `out`."""
    return np.take(a, index, axis=0, out=work.take((index.size,) + a.shape[1:]), mode="clip")


def _edge_aggregate(
    points: np.ndarray, dmat: dv.DiffusivityMatrix, k: float, sq: np.ndarray, pool: BlockPool,
) -> np.ndarray:
    """sum over edges (i, j) of a_ij log_{z_i}(z_j) for every node i, one
    blocks.row_ranges range of source nodes with edges at a time, run by pool.

    Bitwise the sequential np.add.at of all weighted edge rows from zeros:
    each node's edges lie in one range, in edge order, so a bincount of a
    range's (edges, dim) rows into the bins (src - lo) * dim + c adds each
    node's entries one at a time in edge order from 0.0, into disjoint rows.
    sq holds the squared row norms of points.
    """
    dim = points.shape[1]
    out = np.zeros_like(points)
    src_all, dst_all = dmat.graph.directed_edges
    weights, offsets = dmat.edge_weights, dmat.graph.offsets
    channels = np.arange(dim, dtype=np.int64)

    def block(nodes: Tuple[int, int], work: Scratch):
        lo, hi = nodes
        edges = slice(offsets[lo], offsets[hi])
        src, dst, w = src_all[edges], dst_all[edges], weights[edges]
        tang = ball._log_map(
            _gather(points, src, work), _gather(points, dst, work), k,
            _gather(sq, src, work), _gather(sq, dst, work),
            out=work.take((src.size, dim)), work=work,
        )
        rows = np.multiply(w[:, None] if w.ndim == 1 else w, tang, out=tang)
        # the bin (src - lo) * dim + c of every entry of rows
        base = np.multiply(src[:, None], dim, out=work.take((src.size, 1), np.int64))
        np.subtract(base, lo * dim, out=base)
        bins = np.add(base, channels, out=work.take((src.size, dim), np.int64))
        sums = np.bincount(bins.ravel(), weights=rows.ravel(), minlength=(hi - lo) * dim)
        out[lo:hi] = sums.reshape(hi - lo, dim)

    ranges = blocks.row_ranges(dim * offsets, pool.threads)
    pool.run(block, [(lo, hi) for lo, hi in ranges if offsets[hi] > offsets[lo]])
    return out


def _global_aggregate(
    points: np.ndarray, weights: RowSource, k: float, sq: np.ndarray, pool: BlockPool,
    agg: np.ndarray,
):
    """Adds sum_j w_ij log_{z_i}(z_j) to row i of agg for every node i, in
    row blocks run by pool, with the rows a..b-1 of w made by weights(a, b)
    inside the block.

    Each entry depends only on its own row of log maps and weights, so the
    blocks give bitwise the result of one (n, n, d) pass, and no (n, n)
    array of weights is held.  sq holds the squared row norms of points.
    """
    n, dim = points.shape
    y, y2 = points[None, :, :], sq[None, :, :]

    def block(a: int, b: int, work: Scratch):
        w = weights(a, b)
        if w.shape != (b - a, n):
            raise ValueError(f"global part gave {w.shape} weights for rows {a}..{b - 1} of {n}")
        tang = ball._log_map(points[a:b, None, :], y, k, sq[a:b, None, :], y2,
                             out=work.take((b - a, n, dim)), work=work)
        np.add(agg[a:b], np.einsum("ij,ijd->id", w, tang), out=agg[a:b])

    # twice the budget of the other passes: each block has a fixed cost to
    # hand out, and at n=800, d=16 a pass on two threads took 152 ms in 5-row
    # blocks and 133 ms in 10-row ones; 4x the budget raised the peak RSS of
    # a global run by 8-13%
    blocks.run_rows(block, n, n * dim, pool, floats=2 * blocks._DENSE_BLOCK_FLOATS)


def dirichlet_energy(
    points: np.ndarray, g: Graph, kappa, pool: Optional[BlockPool] = None,
) -> float:
    """Hyperbolic Dirichlet energy: half the sum over edges of the squared
    distance between degree-normalized tangent images,

        1/2 sum_{(i,j) in E} d( exp_o(log_o(z_i)/sqrt(1+d_i)),
                                exp_o(log_o(z_j)/sqrt(1+d_j)) )^2.

    The normalized images and then the edge distances are made in row
    blocks (on the threads of ``pool`` while it is started, with their
    temporaries in the running thread's Scratch), so no (edges, d) array is
    held; the distances are summed once, in edge order.
    """
    if not len(g.edge_array):
        return 0.0
    k = ball._kappa_value(kappa)
    n, dim = points.shape
    o = np.zeros(dim)
    root = np.sqrt(1.0 + g.degrees)[:, None]
    normalized = np.empty_like(points)
    sq = np.empty((n, 1))

    def normalize(a: int, b: int, work: Scratch):
        scaled = ball._log_map(o, points[a:b], k, out=work.take((b - a, dim)), work=work)
        np.divide(scaled, root[a:b], out=scaled)
        ball._exp_map(o, scaled, k, out=normalized[a:b], work=work)
        ball._sqnorm(normalized[a:b], sq[a:b], work)

    src, dst = g.edge_array.T
    d = np.empty(src.size)

    def distances(a: int, b: int, work: Scratch):
        i, j = src[a:b], dst[a:b]
        ball._distance(_gather(normalized, i, work), _gather(normalized, j, work), k,
                       _gather(sq, i, work), _gather(sq, j, work), out=d[a:b], work=work)

    blocks.run_rows(normalize, n, dim, pool)
    blocks.run_rows(distances, src.size, dim, pool)
    return 0.5 * float(np.sum(np.multiply(d, d, out=d)))


def initial_state(
    n: int, dim: int, kappa: float, seed: int, scale: float = 0.1
) -> EmbeddingState:
    """Seeded Gaussian tangent vectors at the origin mapped into the ball.
    Raises ValueError for a kappa outside [-9.48e153, 0)."""
    rng = np.random.default_rng(seed)
    return features_to_state(scale * rng.standard_normal((n, dim)), kappa)


def features_to_state(features: np.ndarray, kappa: float) -> EmbeddingState:
    """Map raw feature rows into the ball by exp at the origin.  Raises
    ValueError for a kappa outside [-9.48e153, 0)."""
    features = np.asarray(features, dtype=np.float64)
    pts = ball.exp_map(np.zeros(features.shape[1]), features, kappa)
    return EmbeddingState(points=pts, kappa=kappa)


def build_flow(
    g: Graph,
    cfg: dv.DiffusivityConfig,
    dim: int,
    kappa,
    sigma: str = "identity",
    residual: Optional[ResidualSpec] = None,
    z0: Optional[np.ndarray] = None,
    pool: Optional[BlockPool] = None,
) -> solvers.FlowFn:
    """Assemble the flow function for a run.

    Topology-dependent weights (isotropic, curvature attention) are fixed at
    build time in one DiffusivityMatrix; the global attention part is
    re-evaluated from the current embeddings inside every flow call, one
    GlobalAttention per call whose rows each dense block makes for itself.
    The flow runs its passes on ``pool``, whose threads may start after this
    call.
    """
    if sigma not in SIGMAS:
        raise ValueError(f"unknown activation {sigma!r}, expected one of {SIGMAS}")
    if residual is not None and z0 is None:
        raise ValueError("residual flow needs the initial state")
    params = dv.AttentionParams.init(dim, cfg.heads, cfg.seed)
    if cfg.scheme in ("isotropic", "global"):
        static = dv.isotropic_weights(g)
    else:
        static = dv.local_diffusivity(dv.orc_curvatures(g, cfg.alpha), params)
    # the global schemes mix beta * global + (1 - beta) * edge part; the
    # global part is computed at every evaluation
    beta = cfg.global_weight
    if beta > 0.0:
        static = replace(static, edge_weights=(1.0 - beta) * static.edge_weights)

    def flow(points: np.ndarray, t: float) -> np.ndarray:
        glob = None
        if beta > 0.0:
            glob = dv.GlobalAttention(points, params, cfg.heads, kappa, beta).rows
        return diffusion_flow(points, static, kappa, sigma, glob, pool, residual, z0)

    return flow


def run_diffusion(
    z0: EmbeddingState,
    g: Graph,
    dcfg: dv.DiffusivityConfig,
    spec: solvers.SolverSpec,
    residual: Optional[ResidualSpec] = None,
    sigma: str = "identity",
) -> Tuple[EmbeddingState, EnergyTrace]:
    """Integrate the diffusion flow and record energy at every grid point.

    Energies are computed as the solver reaches each grid point, so memory
    does not grow with the horizon.  The flow passes, the solver's row
    kernels and the energy run on one BlockPool that lives for the
    integration only: it starts after the diffusivity is built (whose ORC LP
    workers are forked, which must not happen while the pool's threads run)
    and its threads are joined on return and on error.
    """
    if z0.n != g.n:
        raise ValueError(f"state has {z0.n} rows but graph has {g.n} nodes")
    kappa = z0.kappa
    pool = BlockPool()
    flow = build_flow(
        g, dcfg, z0.dim, kappa, sigma=sigma, residual=residual, z0=z0.points, pool=pool,
    )
    energies: EnergyTrace = []

    def observe(t: float, state: np.ndarray):
        energies.append((t, dirichlet_energy(state, g, kappa, pool)))

    with pool:
        final = solvers.solve(z0.points, flow, spec, kappa, observe=observe, pool=pool)
    return EmbeddingState(points=final, kappa=kappa), energies
