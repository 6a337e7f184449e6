"""Edge and pairwise diffusivity weights for graph diffusion.

Four schemes:

* ``isotropic``     - degree weights 1/sqrt(d_i d_j) on edges.
* ``local``         - Ollivier-Ricci curvature scores fed through a small
  MLP and softmax-normalized over each neighborhood, per channel.
* ``global``        - dense sigmoid-kernel attention over all node pairs,
  mixed with the isotropic part by beta.
* ``local_global``  - beta * global + (1 - beta) * local.

The Ollivier-Ricci computation places lazy-random-walk measures on the two
endpoint neighborhoods and solves the exact transportation LP under hop-
distance costs; optimality is certified by the LP dual.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import ball, blocks
from .graphs import Graph

SCHEMES = ("isotropic", "local", "global", "local_global")

LEAKY_SLOPE = 0.01


@dataclass
class DiffusivityConfig:
    scheme: str = "isotropic"
    beta: float = 0.5
    heads: int = 1
    alpha: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.heads < 1:
            raise ValueError("heads must be a positive integer")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def global_weight(self) -> float:
        """beta for the schemes with a global attention part, else 0."""
        return self.beta if self.scheme in ("global", "local_global") else 0.0


@dataclass(eq=False)
class AttentionParams:
    """Frozen random parameters for the attention-style diffusivities.

    w_query/w_key: (d, heads*d) projections of tangent embeddings.
    mlp_*: the curvature score network R -> R^d -> LeakyReLU -> R^d.
    """

    w_query: np.ndarray
    w_key: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray

    @classmethod
    def init(cls, dim: int, heads: int, seed: int) -> "AttentionParams":
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(dim)

        def u(*shape):
            return rng.uniform(-bound, bound, size=shape)

        return cls(
            w_query=u(dim, heads * dim),
            w_key=u(dim, heads * dim),
            mlp_w1=u(dim),
            mlp_b1=u(dim),
            mlp_w2=u(dim, dim),
            mlp_b2=u(dim),
        )


@dataclass(eq=False)
class DiffusivityMatrix:
    """Sparse per-edge weights on a graph.

    edge_weights: (M,) scalar or (M, d) per-channel, all nonnegative, one row
    per column of graph.directed_edges, so node i's weights are the rows
    graph.offsets[i]..graph.offsets[i+1]-1.
    """

    graph: Graph = field(repr=False)
    edge_weights: np.ndarray

    def __post_init__(self):
        self.edge_weights = np.asarray(self.edge_weights, dtype=np.float64)
        if self.edge_weights.shape[0] != self.graph.directed_edges.shape[1]:
            raise ValueError("edge weight count does not match the graph's directed edges")
        if not np.all(self.edge_weights >= 0):
            raise ValueError("diffusivity weights must be nonnegative")


@dataclass(eq=False)
class OrcResult:
    """Coarse Ollivier-Ricci curvature on the edges of a graph.

    wasserstein and dual_gap are (m,) arrays, one entry per row of
    graph.edge_array: the transport cost W between the endpoint measures and
    |primal - dual| of its LP.
    """

    graph: Graph = field(repr=False)
    wasserstein: np.ndarray
    dual_gap: np.ndarray

    def __post_init__(self):
        shape = self.graph.edge_array.shape[:1]
        if np.shape(self.wasserstein) != shape or np.shape(self.dual_gap) != shape:
            raise ValueError(f"wasserstein and dual_gap must have shape {shape}, one entry "
                             "per edge of the graph")

    @property
    def curvature(self) -> np.ndarray:
        """K = 1 - W, since adjacent nodes are at hop distance 1."""
        return 1.0 - self.wasserstein


def isotropic_weights(g: Graph) -> DiffusivityMatrix:
    """Degree-normalized adjacency weights a_ij = 1/sqrt(d_i d_j) on edges."""
    deg = g.degrees
    ei = g.directed_edges
    assert np.all(deg[ei] > 0), "edge endpoint with zero degree"
    w = 1.0 / np.sqrt(deg[ei[0]] * deg[ei[1]])
    return DiffusivityMatrix(g, w)


# ---------------------------------------------------------------------------
# Ollivier-Ricci curvature
# ---------------------------------------------------------------------------

def _measure(g: Graph, v: int, alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """Lazy-random-walk measure: mass alpha at v, (1-alpha)/deg on neighbors.

    Returns the support nodes and their masses.  Zero-mass atoms are dropped
    so the LP stays minimal.
    """
    nbrs = g.neighbors(v)
    nodes = np.concatenate([[v], nbrs])
    masses = np.concatenate([[alpha], np.full(nbrs.size, (1.0 - alpha) / nbrs.size)])
    keep = masses > 0.0
    return nodes[keep], masses[keep]


def _ground_costs(g: Graph, su: np.ndarray, sv: np.ndarray) -> np.ndarray:
    """Hop distances between the measure supports of an edge (u, v).

    su lies in N[u] and sv in N[v] with u ~ v, so every distance is at most 3:
    0 for the same node, 1 for adjacent nodes, 2 for nodes with a common
    neighbour and 3 otherwise.  Read off the neighbour slices, without BFS.
    """
    atoms = np.concatenate([su, sv])
    lens = g.degrees[atoms]
    ends = np.cumsum(lens)
    total = int(ends[-1])
    # the neighbour slices of all atoms back to back, then sv itself
    gather = np.arange(total) + np.repeat(g.offsets[atoms] - (ends - lens), lens)
    flat = np.concatenate([g.directed_edges[1, gather], sv])
    # neighbour indicator rows of all atoms, over the nodes that occur here
    cols, local = np.unique(flat, return_inverse=True)
    ind = np.zeros((atoms.size, cols.size))
    ind[np.repeat(np.arange(atoms.size), lens), local[:total]] = 1.0
    ind_u, ind_v = ind[: su.size], ind[su.size :]
    same = su[:, None] == sv[None, :]
    adjacent = ind_u[:, local[total:]] > 0.0
    shared = ind_u @ ind_v.T > 0.0
    return np.where(same, 0.0, np.where(adjacent, 1.0, np.where(shared, 2.0, 3.0)))


def _highs():
    """scipy's HiGHS binding ``scipy.optimize._highspy._core``.

    Importing it loads all of scipy.optimize, about 29k new objects of which
    the cyclic garbage collector would free some 350 in 85 collections
    (about 40 ms), so the import runs with the collector paused.  The
    caller's collector state is restored whether or not the import succeeds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        from scipy.optimize._highspy import _core
    finally:
        if enabled:
            gc.enable()
    return _core


class LpSolution(NamedTuple):
    """What HiGHS reports for one transportation LP."""

    status: str  # HiGHS model status, "Optimal" when solved
    fun: float  # primal objective
    row_dual: np.ndarray  # duals of the supply rows, then of the kept demand rows


def linprog(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> LpSolution:
    """The balanced transportation LP of transport_cost, solved by HiGHS.

    Variable i*nd + j is the mass moved from supply atom i to demand atom j.
    The rows are the ns supply sums, then the first nd - 1 demand sums; the
    last demand sum is implied by the balance and left out.  The model goes
    to the pybind11 HiGHS binding bundled with scipy, which
    scipy.optimize.linprog(method="highs") calls too, with the options
    linprog sets for that method, so the results are bitwise those of
    linprog without its Python wrapper.  The binding is imported on the
    first call (see :func:`_highs`): scipy.optimize costs most of a cold
    ``import hypdiff`` and only the ORC schemes use it.
    """
    hs = _highs()

    ns, nd = cost.shape
    b_eq = np.concatenate([supply, demand[:-1]])
    # Column i*nd + j has a 1 in row i and, when j < nd - 1, one in row ns + j:
    # the entries (i, ns + j) of supply atom i in column order, less the last.
    rows = np.empty((ns, nd, 2), dtype=np.int32)
    rows[..., 0] = np.arange(ns)[:, None]
    rows[..., 1] = ns + np.arange(nd)
    index = rows.reshape(ns, 2 * nd)[:, :-1].ravel()
    start = np.append((2 * nd - 1) * np.arange(ns)[:, None] + 2 * np.arange(nd), index.size)

    lp = hs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = ns * nd
    lp.num_row_ = lp.a_matrix_.num_row_ = b_eq.size
    lp.a_matrix_.format_ = hs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = np.ones(index.size)
    lp.col_cost_ = cost.reshape(-1)
    lp.col_lower_ = np.zeros(ns * nd)
    lp.col_upper_ = np.full(ns * nd, hs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = b_eq

    solver = hs._Highs()
    for name, value in (
        ("output_flag", False),
        ("log_to_console", False),
        ("presolve", "on"),
        ("highs_debug_level", hs.HighsDebugLevel.kHighsDebugLevelNone),
        ("simplex_strategy", hs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    ):
        if solver.setOptionValue(name, value) != hs.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {name}={value!r}")
    solver.passModel(lp)
    solver.run()
    return LpSolution(
        solver.modelStatusToString(solver.getModelStatus()),
        solver.getObjectiveValue(),
        np.array(solver.getSolution().row_dual),
    )


def transport_cost(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> Tuple[float, float]:
    """Exact balanced-transportation solve; returns (optimum, dual gap).

    Minimizes <cost, plan> over plans with the given marginals via the HiGHS
    LP solver (see :func:`linprog`).  The dual certificate is checked here:
    potentials must be feasible (phi_i + psi_j <= c_ij) and match the primal
    objective.
    """
    res = linprog(cost, supply, demand)
    if res.status != "Optimal":
        raise RuntimeError(f"transportation LP failed: {res.status}")
    ns = len(supply)
    phi, psi = res.row_dual[:ns], np.append(res.row_dual[ns:], 0.0)
    slack = cost - phi[:, None] - psi[None, :]
    if slack.min() < -1e-7:
        raise RuntimeError(f"infeasible dual certificate (violation {slack.min():.2e})")
    dual_obj = float(phi @ supply + psi @ demand)
    return float(res.fun), abs(float(res.fun) - dual_obj)


# Fewest edges that justify one more LP worker.  One edge's transport LP
# takes about 1 ms (1.35 ms on the 584 edges of local-orc-150).  A two-worker
# pool finishes 20-45 ms after half the in-process time: about 14 ms to fork
# and join, the rest task round trips and the uneven tail (2 CPUs).  So two
# workers break even near 70 edges and save about a quarter at 2 * 64 (117
# edges: 117 -> 89 ms).  Karate (78 edges: 82 ms in-process, 122 ms on two
# workers) and the criterion-06 graphs (at most 86 edges) stay in-process.
_MIN_EDGES_PER_WORKER = 64
# Edges per task, so the hub edges at low node ids spread out.  4 costs
# 10-30 ms more than 8 (local-orc-150, a 257-edge graph); 16 and 32 are
# within noise.
_LP_CHUNK = 8

_worker_job: Optional[Tuple[Graph, float]] = None  # set in LP worker processes only


def _worker_count(n_edges: int) -> int:
    """Processes for n_edges transport LPs: the CPUs this process may run on,
    but at most one per _MIN_EDGES_PER_WORKER edges."""
    return max(1, min(blocks.available_cpus(), n_edges // _MIN_EDGES_PER_WORKER))


def _edge_transport(g: Graph, alpha: float, idx: int) -> Tuple[float, float]:
    """(W, dual gap) of the transport LP of edge idx."""
    u, v = g.edge_array[idx].tolist()
    su, mu = _measure(g, u, alpha)
    sv, mv = _measure(g, v, alpha)
    return transport_cost(mu, mv, _ground_costs(g, su, sv))


def _set_worker_job(g: Graph, alpha: float):
    global _worker_job
    _worker_job = (g, alpha)


def _worker_edge_transport(idx: int) -> Tuple[float, float]:
    return _edge_transport(*_worker_job, idx)


def _edge_transports(g: Graph, alpha: float) -> List[Tuple[float, float]]:
    """_edge_transport of every edge, in edge order.

    With more than one worker the LPs run in processes forked from this one,
    which see the graph through fork instead of a pickled copy and inherit
    the imported HiGHS binding; only edge indices and (W, gap) pairs cross
    the pipes, and pickled floats keep their bits.
    """
    edges = range(len(g.edge_array))
    workers = _worker_count(len(edges))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            # A dead worker fails the map with BrokenProcessPool;
            # multiprocessing.Pool would wait for its results forever.
            from concurrent.futures import ProcessPoolExecutor

            # imported and built once here instead of once in every worker
            _highs()

            g.neighbors(0)
            with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_set_worker_job, initargs=(g, alpha),
            ) as pool:
                return list(pool.map(_worker_edge_transport, edges, chunksize=_LP_CHUNK))
    return [_edge_transport(g, alpha, idx) for idx in edges]


def orc_curvatures(g: Graph, alpha: float = 0.5) -> OrcResult:
    """Coarse Ollivier-Ricci curvature K = 1 - W(m_u, m_v) for every edge.

    Ground costs are hop distances between the two measure supports (at most
    3 for adjacent endpoints, see :func:`_ground_costs`).  Edges are
    independent, so their LPs run on every CPU the process may use once the
    graph is large enough (see :func:`_edge_transports`); each LP is solved
    exactly as in a sequential loop, so the result does not depend on the
    number of workers.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    solved = _edge_transports(g, alpha)
    wvals = np.array([w for w, _ in solved], dtype=np.float64)
    gaps = np.array([gap for _, gap in solved], dtype=np.float64)
    return OrcResult(g, wvals, gaps)


def _curvature_scores(orc: OrcResult, params: AttentionParams) -> np.ndarray:
    """MLP(K) in R^d for each undirected edge: an (m, d) array in edge order."""
    hidden = np.outer(orc.curvature, params.mlp_w1) + params.mlp_b1
    hidden = np.where(hidden >= 0.0, hidden, LEAKY_SLOPE * hidden)
    return hidden @ params.mlp_w2.T + params.mlp_b2


def local_diffusivity(orc: OrcResult, params: AttentionParams) -> DiffusivityMatrix:
    """Curvature-attention weights on orc's graph, softmax-normalized over
    each neighborhood.

    The softmax runs independently on every hidden channel, giving a weight
    vector per directed edge whose per-channel neighborhood sums are 1.
    """
    g = orc.graph
    raw = _curvature_scores(orc, params)[g.edge_ids]
    weights = np.zeros_like(raw)
    bounds = g.offsets.tolist()
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a == b:
            continue  # empty neighborhood: no outgoing diffusion
        s = raw[a:b]
        s = np.exp(s - s.max(axis=0, keepdims=True))
        weights[a:b] = s / s.sum(axis=0, keepdims=True)
    return DiffusivityMatrix(g, weights)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), bitwise equal to scipy.special.expit.

    np.exp over a reversed 1-D view into a fresh array runs numpy's scalar
    libm loop, which expit uses too; over contiguous or 2-D input numpy takes
    a SIMD loop whose last bits differ on about 2% of entries.  Overflow of
    exp and underflow of the quotient are the exact limits 0 and 1, so they
    stay silent as they do in expit.  The result is a contiguous array in
    the order of x.
    """
    with np.errstate(over="ignore", under="ignore"):
        e = np.exp(np.negative(x).ravel()[::-1])
        e += 1.0
        np.divide(1.0, e, out=e)
    return np.ascontiguousarray(e[::-1]).reshape(x.shape)


class GlobalAttention:
    """beta times the dense row-stochastic sigmoid attention over tangent
    embeddings at o, made one block of rows at a time.

    Per head: scores sigmoid(q k^T) > 0, rows divided by their sums; heads
    averaged.  With zero projections all scores are 0.5 and rows are uniform.
    The per-head products q k^T are computed whole on construction; they are
    the only (n, n) arrays it holds.  Row blocks of the product would not do:
    when n is not a multiple of 8, BLAS gives q[a:b] @ k.T other bits than
    the rows of q @ k.T.
    """

    def __init__(self, points: np.ndarray, params: AttentionParams, heads: int, kappa,
                 beta: float = 1.0):
        self.n, dim = points.shape
        self.beta = beta
        tang = ball._log_map(np.zeros(dim), points, ball._kappa_value(kappa))
        q = tang @ params.w_query
        k = tang @ params.w_key
        self.products = [
            q[:, h * dim : (h + 1) * dim] @ k[:, h * dim : (h + 1) * dim].T
            for h in range(heads)
        ]

    def rows(self, a: int, b: int) -> np.ndarray:
        """Rows a..b-1 of the attention as a (b - a, n) array."""
        out = np.zeros((b - a, self.n))
        for product in self.products:
            scores = _sigmoid(product[a:b])
            out += scores / scores.sum(axis=1, keepdims=True)
        out /= len(self.products)
        out *= self.beta
        return out
