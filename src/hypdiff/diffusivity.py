"""Edge and pairwise diffusivity weights for graph diffusion.

Four schemes:

* ``isotropic``     - degree weights 1/sqrt(d_i d_j) on edges.
* ``local``         - Ollivier-Ricci curvature scores fed through a small
  MLP and softmax-normalized over each neighborhood (optionally per channel).
* ``global``        - dense sigmoid-kernel attention over all node pairs,
  mixed with the isotropic part by beta.
* ``local_global``  - beta * global + (1 - beta) * local.

The Ollivier-Ricci computation places lazy-random-walk measures on the two
endpoint neighborhoods and solves the exact transportation LP under hop-
distance costs; optimality is certified by the LP dual.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import ball
from .graphs import Graph

SCHEMES = ("isotropic", "local", "global", "local_global")
CHANNEL_MODES = ("scalar", "per_channel")

LEAKY_SLOPE = 0.01
DUAL_TOL = 1e-9


@dataclass
class DiffusivityConfig:
    scheme: str = "isotropic"
    beta: float = 0.5
    heads: int = 1
    alpha: float = 0.5
    seed: int = 0
    channel_mode: str = "per_channel"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if self.heads < 1:
            raise ValueError("heads must be a positive integer")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.channel_mode not in CHANNEL_MODES:
            raise ValueError(f"unknown channel mode {self.channel_mode!r}")


@dataclass
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


class EdgeBlock(NamedTuple):
    """The directed edges whose sources are the nodes lo..hi-1.

    edges selects them from the matrix's edge arrays (a slice when the
    sources are sorted), in edge order within each source; flat holds the
    bincount bin (src - lo) * d + c of every entry of their (edges, d) rows.
    """

    lo: int
    hi: int
    edges: object  # slice or index array
    flat: np.ndarray


@dataclass
class DiffusivityMatrix:
    """Sparse per-edge weights.

    edge_index: (2, M) directed pairs (both orientations of each edge);
    edge_weights: (M,) scalar or (M, d) per-channel, all nonnegative.
    """

    n: int
    edge_index: np.ndarray
    edge_weights: np.ndarray

    def __post_init__(self):
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64).reshape(2, -1)
        self.edge_weights = np.asarray(self.edge_weights, dtype=np.float64)
        if self.edge_weights.shape[0] != self.edge_index.shape[1]:
            raise ValueError("edge weight count does not match edge index")
        if self.edge_index.size and not (
            0 <= self.edge_index.min() and self.edge_index.max() < self.n
        ):
            raise ValueError("edge index out of range")
        if np.any(self.edge_weights < 0):
            raise ValueError("diffusivity weights must be nonnegative")

    def edge_blocks(self, dim: int, max_floats: int) -> Tuple[EdgeBlock, ...]:
        """The edges cut at source-node boundaries into blocks of at most
        max_floats // dim edges; a node with more edges gets a block of its own.

        Every node's edges lie in one block, in edge order, so a bincount over
        a block's flat bins adds each node's entries one at a time in edge
        order from 0.0, as np.add.at over all edges does: the blocks give
        bitwise the sums of one sequential scatter-add, into disjoint rows.
        Nodes without edges belong to no block.  Built once per (dim,
        max_floats) and cached.
        """
        key = (dim, max_floats)
        if key in self._edge_blocks:
            return self._edge_blocks[key]
        src = self.edge_index[0]
        max_edges = max(1, max_floats // dim)
        order = None if np.all(src[:-1] <= src[1:]) else np.argsort(src, kind="stable")
        ends = np.cumsum(np.bincount(src, minlength=self.n))  # edge offset after each node
        blocks, lo = [], 0
        while lo < self.n:
            first = int(ends[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, first + max_edges, side="right")))
            last = int(ends[hi - 1])
            if last > first:
                edges = slice(first, last) if order is None else order[first:last]
                flat = ((src[edges] - lo)[:, None] * dim + np.arange(dim)).ravel()
                blocks.append(EdgeBlock(lo, hi, edges, flat))
            lo = hi
        self._edge_blocks[key] = tuple(blocks)
        return self._edge_blocks[key]

    @cached_property
    def _edge_blocks(self) -> dict:
        # (dim, max_floats) -> tuple of EdgeBlock
        return {}


@dataclass
class OrcResult:
    """Per-edge coarse Ollivier-Ricci curvature and transport cost.

    Aligned with graph.edges; K = 1 - W since adjacent nodes are at hop
    distance 1.  dual_gap records |primal - dual| of each transport LP.
    """

    edges: Tuple[Tuple[int, int], ...]
    curvature: np.ndarray
    wasserstein: np.ndarray
    dual_gap: np.ndarray

    def curvature_by_edge(self) -> dict:
        return {e: k for e, k in zip(self.edges, self.curvature)}


def _directed_edges(g: Graph) -> np.ndarray:
    """Both orientations of every edge, sorted by (source, target)."""
    e = g.edge_array
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((dst, src))
    return np.stack([src[order], dst[order]])


def isotropic_weights(g: Graph) -> DiffusivityMatrix:
    """Degree-normalized adjacency weights a_ij = 1/sqrt(d_i d_j) on edges."""
    deg = g.degrees
    ei = _directed_edges(g)
    assert np.all(deg[ei] > 0), "edge endpoint with zero degree"
    w = 1.0 / np.sqrt(deg[ei[0]] * deg[ei[1]])
    return DiffusivityMatrix(n=g.n, edge_index=ei, edge_weights=w)


# ---------------------------------------------------------------------------
# Ollivier-Ricci curvature
# ---------------------------------------------------------------------------

def _measure(g: Graph, v: int, alpha: float) -> Tuple[List[int], np.ndarray]:
    """Lazy-random-walk measure: mass alpha at v, (1-alpha)/deg on neighbors.

    Zero-mass atoms are dropped so the LP stays minimal.
    """
    nbrs = g.neighbors(v)
    nodes = [v] + list(nbrs)
    masses = [alpha] + [(1.0 - alpha) / len(nbrs)] * len(nbrs)
    keep = [(n, m) for n, m in zip(nodes, masses) if m > 0.0]
    nodes = [n for n, _ in keep]
    return nodes, np.array([m for _, m in keep], dtype=np.float64)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call: scipy.optimize
    costs most of a cold ``import hypdiff`` and only the ORC schemes use it."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _ground_costs(g: Graph, su: List[int], sv: List[int]) -> np.ndarray:
    """Hop distances between the measure supports of an edge (u, v).

    su lies in N[u] and sv in N[v] with u ~ v, so every distance is at most 3:
    0 for the same node, 1 for adjacent nodes, 2 for nodes with a common
    neighbour and 3 otherwise.  Read off the neighbour lists, without BFS.
    """
    adj = g.adjacency
    lists = [adj[a] for a in su] + [adj[b] for b in sv]
    lens = [len(x) for x in lists]
    # neighbour indicator rows of all atoms, over the nodes that occur here
    flat = np.fromiter(itertools.chain(*lists, sv), dtype=np.int64)
    cols, local = np.unique(flat, return_inverse=True)
    ind = np.zeros((len(lists), cols.size))
    ind[np.repeat(np.arange(len(lists)), lens), local[: sum(lens)]] = 1.0
    ind_u, ind_v = ind[: len(su)], ind[len(su) :]
    same = np.asarray(su)[:, None] == np.asarray(sv)[None, :]
    adjacent = ind_u[:, local[sum(lens) :]] > 0.0
    shared = ind_u @ ind_v.T > 0.0
    return np.where(same, 0.0, np.where(adjacent, 1.0, np.where(shared, 2.0, 3.0)))


def transport_cost(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> Tuple[float, float]:
    """Exact balanced-transportation solve; returns (optimum, dual gap).

    Minimizes <cost, plan> over plans with the given marginals via the HiGHS
    LP solver.  The dual certificate is checked here: potentials must be
    feasible (phi_i + psi_j <= c_ij) and match the primal objective.
    """
    ns, nd = len(supply), len(demand)
    c = cost.reshape(-1)
    a_eq = np.zeros((ns + nd - 1, ns * nd))
    for i in range(ns):
        a_eq[i, i * nd : (i + 1) * nd] = 1.0
    for j in range(nd - 1):  # last demand row is redundant (balanced problem)
        a_eq[ns + j, j::nd] = 1.0
    b_eq = np.concatenate([supply, demand[:-1]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    duals = np.asarray(res.eqlin.marginals, dtype=np.float64)
    phi, psi = duals[:ns], np.append(duals[ns:], 0.0)
    slack = cost - phi[:, None] - psi[None, :]
    if slack.min() < -1e-7:
        raise RuntimeError(f"infeasible dual certificate (violation {slack.min():.2e})")
    dual_obj = float(phi @ supply + psi @ demand)
    return float(res.fun), abs(float(res.fun) - dual_obj)


# Fewest edges that justify one more LP worker.  Forking and joining a
# two-worker pool takes about 50 ms and one transport LP 3-4 ms (2 CPUs,
# karate and a 150-node preferential-attachment graph), so a worker that
# takes over 64 LPs saves about four times what it costs.  Karate (78 edges)
# and the criterion-06 graphs (at most 86 edges) stay in-process, where a
# pool would save at most a fifth.
_MIN_EDGES_PER_WORKER = 64
_LP_CHUNK = 8  # edges per task, so the hub edges at low node ids spread out

_worker_job: Optional[Tuple[Graph, float]] = None  # set in LP worker processes only


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _worker_count(n_edges: int) -> int:
    """Processes for n_edges transport LPs: the CPUs this process may run on,
    but at most one per _MIN_EDGES_PER_WORKER edges."""
    return max(1, min(available_cpus(), n_edges // _MIN_EDGES_PER_WORKER))


def _edge_transport(g: Graph, alpha: float, idx: int) -> Tuple[float, float]:
    """(W, dual gap) of the transport LP of edge idx."""
    u, v = g.edges[idx]
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
    the imported scipy.optimize; only edge indices and (W, gap) pairs cross
    the pipes, and pickled floats keep their bits.
    """
    edges = range(len(g.edges))
    workers = _worker_count(len(edges))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            # A dead worker fails the map with BrokenProcessPool;
            # multiprocessing.Pool would wait for its results forever.
            from concurrent.futures import ProcessPoolExecutor

            # imported and built once here instead of once in every worker
            import scipy.optimize  # noqa: F401

            g.adjacency
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
    # hop distance between endpoints is 1
    return OrcResult(edges=g.edges, curvature=1.0 - wvals, wasserstein=wvals, dual_gap=gaps)


def _curvature_scores(orc: OrcResult, params: AttentionParams) -> dict:
    """MLP(K) in R^d for each undirected edge."""
    hidden = np.outer(orc.curvature, params.mlp_w1) + params.mlp_b1
    hidden = np.where(hidden >= 0.0, hidden, LEAKY_SLOPE * hidden)
    scores = hidden @ params.mlp_w2.T + params.mlp_b2
    return {e: s for e, s in zip(orc.edges, scores)}


def local_diffusivity(
    g: Graph,
    orc: OrcResult,
    params: AttentionParams,
    channel_mode: str = "per_channel",
) -> DiffusivityMatrix:
    """Curvature-attention weights, softmax-normalized over each neighborhood.

    per_channel: softmax runs independently on every hidden channel, giving a
    weight vector per directed edge whose per-channel neighborhood sums are 1.
    scalar: channel scores are averaged before a single softmax.
    """
    if channel_mode not in CHANNEL_MODES:
        raise ValueError(f"unknown channel mode {channel_mode!r}")
    scores = _curvature_scores(orc, params)
    ei = _directed_edges(g)
    m = ei.shape[1]
    dim = params.mlp_b2.shape[0]
    raw = np.zeros((m, dim))
    for col in range(m):
        i, j = int(ei[0, col]), int(ei[1, col])
        raw[col] = scores[(min(i, j), max(i, j))]
    if channel_mode == "scalar":
        raw = raw.mean(axis=1, keepdims=True)
    weights = np.zeros_like(raw)
    for i in range(g.n):
        cols = np.nonzero(ei[0] == i)[0]
        if cols.size == 0:
            continue  # empty neighborhood: no outgoing diffusion
        s = raw[cols]
        s = np.exp(s - s.max(axis=0, keepdims=True))
        weights[cols] = s / s.sum(axis=0, keepdims=True)
    if channel_mode == "scalar":
        weights = weights[:, 0]
    return DiffusivityMatrix(n=g.n, edge_index=ei, edge_weights=weights)


def global_diffusivity(
    points: np.ndarray, params: AttentionParams, heads: int, kappa
) -> np.ndarray:
    """Dense row-stochastic sigmoid attention over tangent embeddings at o.

    Per head: scores sigmoid(q k^T) > 0, rows divided by their sums; heads
    averaged.  With zero projections all scores are 0.5 and rows are uniform.
    """
    from scipy.special import expit

    n, dim = points.shape
    tang = ball.log_map(np.zeros(dim), points, kappa)
    q = tang @ params.w_query
    k = tang @ params.w_key
    out = np.zeros((n, n))
    for h in range(heads):
        qh = q[:, h * dim : (h + 1) * dim]
        kh = k[:, h * dim : (h + 1) * dim]
        scores = expit(qh @ kh.T)
        out += scores / scores.sum(axis=1, keepdims=True)
    return out / heads

