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

from . import ball, diffusivity as dv, solvers
from .ball import Curvature
from .graphs import Graph

SIGMAS = ("identity", "tanh")

# Floats in one (rows, n, d) block of log maps in the dense global pass.  A
# block allocates a few arrays of this size (512 KB each), small enough to
# stay in cache: at n=800, d=16 a pass took 170 ms against 210 ms with 8 MB
# blocks and 315 ms with no blocks at all.
_DENSE_BLOCK_FLOATS = 1 << 16

EnergyTrace = List[Tuple[float, float]]


@dataclass
class EmbeddingState:
    """n x d matrix of ball points at diffusion time t."""

    points: np.ndarray
    curvature: Curvature
    t: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("embedding state must be an (n, d) matrix")
        self.points = ball.project_to_ball(pts, self.curvature)

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
        if np.sum(np.abs(self.eta)) == 0.0:
            raise ValueError("residual weights must not all vanish")


def gradient(points: np.ndarray, pairs: np.ndarray, kappa) -> np.ndarray:
    """Tangent-space differences log_{z_i}(z_j) for index pairs (i, j).

    The flat limit recovers z_j - z_i.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= points.shape[0]):
        raise IndexError("pair index out of range")
    return ball.log_map(points[pairs[:, 0]], points[pairs[:, 1]], kappa)


def _apply_sigma(agg: np.ndarray, sigma: str) -> np.ndarray:
    if sigma == "identity":
        return agg
    if sigma == "tanh":
        return np.tanh(agg)
    raise ValueError(f"unknown activation {sigma!r}, expected one of {SIGMAS}")


def diffusion_flow(
    points: np.ndarray, dmat: dv.DiffusivityMatrix, kappa, sigma: str = "identity"
) -> np.ndarray:
    """One flow evaluation F(z) under the given diffusivity weights.

    The sparse part aggregates over neighbors (scalar or per-channel weights);
    the dense global part aggregates over all pairs.  Aggregation order is
    fixed, so results are bitwise reproducible.
    """
    n, dim = points.shape
    if dmat.n != n:
        raise ValueError("diffusivity matrix size does not match state")
    k = ball._kappa_value(kappa)
    sq = ball._sqnorm(points)
    src, dst = dmat.edge_index
    if src.size:
        tang = ball._log_map(points[src], points[dst], k, sq[src], sq[dst])
        w = dmat.edge_weights
        agg = dmat.source_sums(w[:, None] * tang if w.ndim == 1 else w * tang)
    else:
        agg = np.zeros((n, dim))
    if dmat.global_part is not None:
        agg += _global_aggregate(points, dmat.global_part, k, sq, _block_rows(n, dim))
    if not np.all(np.isfinite(agg)):
        bad = int(np.nonzero(~np.isfinite(agg).all(axis=1))[0][0])
        raise FloatingPointError(f"non-finite tangent aggregate at node {bad}")
    return ball._exp_map(points, _apply_sigma(agg, sigma), k, sq)


def _block_rows(n: int, dim: int) -> int:
    """Rows per block of the dense pass, so one (rows, n, dim) block holds at
    most _DENSE_BLOCK_FLOATS floats."""
    return max(1, _DENSE_BLOCK_FLOATS // (n * dim))


def _global_aggregate(
    points: np.ndarray, weights: np.ndarray, k: float, sq: np.ndarray, rows: int
) -> np.ndarray:
    """sum_j weights_ij log_{z_i}(z_j) for every node i, `rows` nodes at a time.

    Each entry depends only on its own row of log maps and weights, so the
    blocks give bitwise the result of one (n, n, d) pass at a fraction of its
    memory.  sq holds the squared row norms of points.
    """
    n = points.shape[0]
    out = np.empty_like(points)
    y, y2 = points[None, :, :], sq[None, :, :]
    for a in range(0, n, rows):
        tang = ball._log_map(points[a : a + rows, None, :], y, k, sq[a : a + rows, None, :], y2)
        out[a : a + rows] = np.einsum("ij,ijd->id", weights[a : a + rows], tang)
    return out


def residual_flow(
    z_dot: np.ndarray,
    z_t: np.ndarray,
    z_0: np.ndarray,
    spec: ResidualSpec,
    kappa,
) -> np.ndarray:
    """Node-wise gyromidpoint of {dynamic, current, initial} states."""
    if not (z_dot.shape == z_t.shape == z_0.shape):
        raise ValueError("residual states must share one shape")
    stack = np.stack([z_dot, z_t, z_0], axis=0)
    return ball.gyromidpoint(stack, np.asarray(spec.eta), kappa)


def dirichlet_energy(points: np.ndarray, g: Graph, kappa) -> float:
    """Hyperbolic Dirichlet energy: half the sum over edges of the squared
    distance between degree-normalized tangent images,

        1/2 sum_{(i,j) in E} d( exp_o(log_o(z_i)/sqrt(1+d_i)),
                                exp_o(log_o(z_j)/sqrt(1+d_j)) )^2.
    """
    if not g.edges:
        return 0.0
    k = ball._kappa_value(kappa)
    o = np.zeros(points.shape[1])
    scaled = ball._log_map(o, points, k) / np.sqrt(1.0 + g.degrees)[:, None]
    normalized = ball._exp_map(o, scaled, k)
    sq = ball._sqnorm(normalized)
    src, dst = g.edge_array.T
    d = ball._distance(normalized[src], normalized[dst], k, sq[src], sq[dst])
    return 0.5 * float(np.sum(d * d))


def initial_state(
    n: int, dim: int, curvature: Curvature, seed: int, scale: float = 0.1
) -> EmbeddingState:
    """Seeded Gaussian tangent vectors at the origin mapped into the ball."""
    rng = np.random.default_rng(seed)
    tang = scale * rng.standard_normal((n, dim))
    pts = ball.exp_map(np.zeros(dim), tang, curvature)
    return EmbeddingState(points=pts, curvature=curvature, t=0.0)


def features_to_state(features: np.ndarray, curvature: Curvature) -> EmbeddingState:
    """Map raw feature rows into the ball by exp at the origin."""
    features = np.asarray(features, dtype=np.float64)
    pts = ball.exp_map(np.zeros(features.shape[1]), features, curvature)
    return EmbeddingState(points=pts, curvature=curvature, t=0.0)


def build_flow(
    g: Graph,
    cfg: dv.DiffusivityConfig,
    dim: int,
    kappa,
    sigma: str = "identity",
    residual: Optional[ResidualSpec] = None,
    z0: Optional[np.ndarray] = None,
) -> solvers.FlowFn:
    """Assemble the flow function for a run.

    Topology-dependent weights (isotropic, curvature attention) are fixed at
    build time; the global attention part is re-evaluated from the current
    embeddings inside every flow call.
    """
    if sigma not in SIGMAS:
        raise ValueError(f"unknown activation {sigma!r}, expected one of {SIGMAS}")
    if residual is not None and z0 is None:
        raise ValueError("residual flow needs the initial state")
    params = dv.AttentionParams.init(dim, cfg.heads, cfg.seed)
    if cfg.scheme == "isotropic":
        static = dv.isotropic_weights(g)
        needs_global = False
    elif cfg.scheme == "local":
        orc = dv.orc_curvatures(g, cfg.alpha)
        static = dv.local_diffusivity(g, orc, params, cfg.channel_mode)
        needs_global = False
    else:
        # the edge part of beta * global + (1 - beta) * local; the global part
        # is attached at every evaluation
        if cfg.scheme == "global":
            local = dv.isotropic_weights(g)
        else:  # local_global
            orc = dv.orc_curvatures(g, cfg.alpha)
            local = dv.local_diffusivity(g, orc, params, cfg.channel_mode)
        static = replace(local, edge_weights=(1.0 - cfg.beta) * local.edge_weights)
        needs_global = True

    def flow(points: np.ndarray, t: float) -> np.ndarray:
        dmat = static
        if needs_global and cfg.beta > 0.0:
            glob = dv.global_diffusivity(points, params, cfg.heads, kappa)
            dmat = dv.DiffusivityMatrix(
                n=static.n,
                edge_index=static.edge_index,
                edge_weights=static.edge_weights,
                global_part=cfg.beta * glob,
            )
        out = diffusion_flow(points, dmat, kappa, sigma)
        if residual is not None:
            out = residual_flow(out, points, z0, residual, kappa)
        return out

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
    does not grow with the horizon.
    """
    if z0.n != g.n:
        raise ValueError(f"state has {z0.n} rows but graph has {g.n} nodes")
    kappa = z0.curvature
    flow = build_flow(
        g, dcfg, z0.dim, kappa, sigma=sigma, residual=residual, z0=z0.points,
    )
    energies: EnergyTrace = []

    def observe(t: float, state: np.ndarray):
        energies.append((t, dirichlet_energy(state, g, kappa)))

    final = solvers.solve(z0.points, flow, spec, kappa, observe=observe)
    state = EmbeddingState(points=final, curvature=kappa, t=spec.t_final)
    return state, energies
