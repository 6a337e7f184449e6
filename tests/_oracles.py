"""Independent reference implementations used as test oracles.

Everything here is deliberately written against plain arrays / dicts and not
against the package internals, so a bug in the library cannot hide inside its
own oracle.
"""

import math
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# classical flat-space integrators
# ---------------------------------------------------------------------------

def euler_step(y, t, tau, f):
    return y + tau * f(y, t)


def rk38_step(y, t, tau, f):
    """Classical Kutta 3/8-rule step, weights (1, 3, 3, 1)/8."""
    k1 = f(y, t)
    k2 = f(y + tau * k1 / 3.0, t + tau / 3.0)
    k3 = f(y + tau * (-k1 / 3.0 + k2), t + 2.0 * tau / 3.0)
    k4 = f(y + tau * (k1 - k2 + k3), t + tau)
    return y + tau * (k1 + 3.0 * k2 + 3.0 * k3 + k4) / 8.0


AB_ROWS = {1: [1.0], 2: [1.5, -0.5], 3: [23 / 12, -16 / 12, 5 / 12],
           4: [55 / 24, -59 / 24, 37 / 24, -9 / 24]}
AM_ROWS = {1: [1.0], 2: [0.5, 0.5], 3: [5 / 12, 8 / 12, -1 / 12],
           4: [9 / 24, 19 / 24, -5 / 24, 1 / 24]}


def abm_pec_solve(y0, f, t_final, tau, s_min=2, s_max=4):
    """Adams-Bashforth predictor / Adams-Moulton corrector, predict-evaluate-
    correct with a single evaluation per step, warm-started with 3/8 RK steps.
    Mirrors the hyperbolic solver's bookkeeping in flat space."""
    n = int(round(t_final / tau))
    y = np.array(y0, dtype=float)
    slopes = [f(y, 0.0)]  # newest first
    for i in range(min(s_min, n)):
        y = rk38_step(y, i * tau, tau, f)
        slopes.insert(0, f(y, (i + 1) * tau))
    for i in range(s_min, n):
        t = i * tau
        k = min(len(slopes), s_max)
        y_star = y + tau * sum(AB_ROWS[k][j] * slopes[j] for j in range(k))
        slopes.insert(0, f(y_star, t + tau))
        k = min(len(slopes), s_max)
        y = y + tau * sum(AM_ROWS[k][j] * slopes[j] for j in range(k))
        while len(slopes) > s_max:
            slopes.pop()
    return y


def heuler_update_reference(h, tau, slope, kappa):
    """The explicit Euler state exp_h(tau * slope), as the heuler step made
    it before every method shared one update: one public exp map."""
    from hypdiff import ball

    return ball.exp_map(h, tau * slope, kappa)


def rk4_update_reference(h, tau, weights, slopes, kappa):
    """exp_h(tau * (w1 g1 + w2 g2 + ...)), the stage mix added in order, as
    the hrk4 step's closing combination made it."""
    from hypdiff import ball

    mix = weights[0] * slopes[0]
    for w, g in zip(weights[1:], slopes[1:]):
        mix = mix + w * g
    return ball.exp_map(h, tau * mix, kappa)


def adams_update_reference(coeffs, queue, h, tau, kappa):
    """exp_h(tau * sum_i c_i PT_{base_i -> h}(tangent_i)) over the (tangent,
    base) pairs of the queue, newest first, as the Adams step made it: every
    tangent is transported, also from a base equal to h."""
    from hypdiff import ball

    acc = None
    for c, (tangent, base) in zip(coeffs, queue):
        term = c * ball.parallel_transport(base, h, tangent, kappa)
        acc = term if acc is None else acc + term
    return ball.exp_map(h, tau * acc, kappa)


def geodesic_flow(h0, v0, kappa):
    """Flow F(h, t) = exp_h(PT_{h0->h}(v0)) whose solution is exp_h0(t v0).

    Every projective stepper integrates this flow exactly (geodesics
    parallel-transport their own velocity), so it verifies exactness, not
    convergence order.
    """
    from hypdiff import ball

    h0 = np.asarray(h0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)

    def flow(h, t):
        v = ball.parallel_transport(h0, h, np.broadcast_to(v0, h.shape), kappa)
        return ball.exp_map(h, v, kappa)

    return flow


# ---------------------------------------------------------------------------
# the weighted gyromidpoint as whole-array expressions on stacked points
# ---------------------------------------------------------------------------

# relative margin of the ball projection, ball.BOUNDARY_EPS
RIM_EPS = 1e-5


def project_reference(x, kappa):
    """Rows of x with norm above (1 - RIM_EPS) R times R (1 - RIM_EPS) / norm;
    x itself when no row is above."""
    n = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    limit = (1.0 - RIM_EPS) / np.sqrt(-kappa)
    if not (n.size and np.fmax.reduce(n, axis=None) > limit):
        return x
    return x * np.where(n > limit, limit / np.where(n == 0.0, 1.0, n), 1.0)


def mobius_scalar_reference(r, x, kappa):
    """r (x) x = tanh(r atanh(sqrt(s)|x|)) x / (sqrt(s)|x|), 0 at x = 0."""
    sq = np.sqrt(-kappa)
    n = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    safe = np.where(n == 0.0, 1.0, n)
    arg = np.minimum(sq * n, 1.0 - 1e-15)
    out = np.tanh(r * np.arctanh(arg)) * x / (sq * safe)
    return project_reference(np.where(n == 0.0, 0.0, out), kappa)


def gyromidpoint_reference(points, weights, kappa):
    """(1/2) (x) (sum_j eta_j lambda_j z_j / sum_j |eta_j| (lambda_j - 1)) for
    points stacked on axis 0, eta the weights scaled by the power of two
    that brings max |eta| into [0.5, 1), summed by np.sum over axis 0."""
    pts = np.asarray(points, dtype=np.float64)
    e = int(np.frexp(np.max(np.abs(weights), initial=0.0))[1])
    eta = np.ldexp(weights, -e).reshape((pts.shape[0],) + (1,) * (pts.ndim - 1))
    lam = 2.0 / (1.0 + kappa * np.sum(pts * pts, axis=-1, keepdims=True))
    den = np.sum(np.abs(eta) * (lam - 1.0), axis=0)
    if np.any(den < np.ldexp(np.finfo(np.float64).tiny, -e)):
        raise ValueError("ill-posed gyromidpoint weights")
    return mobius_scalar_reference(0.5, np.sum(eta * lam * pts, axis=0) / den, kappa)


# ---------------------------------------------------------------------------
# exact transportation by exhaustive integer enumeration
# ---------------------------------------------------------------------------

def transport_enumerate(supply, demand, cost):
    """Minimum transport cost by exhaustive search over integer plans.

    supply/demand are integer vectors with equal sums; cost is a float
    matrix.  Explores every feasible integer allocation (the optimum of a
    balanced transportation LP with integral margins is attained at an
    integral vertex), pruned by the running objective.
    """
    supply = list(int(s) for s in supply)
    demand = list(int(d) for d in demand)
    assert sum(supply) == sum(demand)
    m, n = len(supply), len(demand)
    best = [math.inf]

    def rec(i, remaining_demand, acc):
        if acc >= best[0]:
            return
        if i == m:
            best[0] = acc
            return
        s = supply[i]

        def alloc(j, left, acc2):
            if acc2 >= best[0]:
                return
            if j == n - 1:
                if left <= remaining_demand[j]:
                    remaining_demand[j] -= left
                    rec(i + 1, remaining_demand, acc2 + left * cost[i][j])
                    remaining_demand[j] += left
                return
            for x in range(min(left, remaining_demand[j]) + 1):
                remaining_demand[j] -= x
                alloc(j + 1, left - x, acc2 + x * cost[i][j])
                remaining_demand[j] += x

        alloc(0, s, acc)

    rec(0, list(demand), 0.0)
    return best[0]


def transport_min_cost_flow(supply, demand, cost):
    """Minimum transport cost by successive shortest paths on integer
    supplies and demands (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
    sec. 9.7).

    Each round finds, by Bellman-Ford over the residual network (its
    backward arcs cost -cost[i][j]), a cheapest path from a supply atom with
    supply left to a demand atom with demand left, and sends the largest
    integer amount it carries.  Every flow stays integral, so with integer
    costs the returned cost is exact.
    """
    supply = [int(s) for s in supply]
    demand = [int(d) for d in demand]
    assert sum(supply) == sum(demand)
    m, n = len(supply), len(demand)
    plan = [[0] * n for _ in range(m)]
    while any(supply):
        # nodes 0..m-1 are the supply atoms, m..m+n-1 the demand atoms
        dist = [0 if s else math.inf for s in supply] + [math.inf] * n
        pred = [None] * (m + n)
        for _ in range(m + n):
            changed = False
            for i in range(m):
                for j in range(n):
                    if dist[i] + cost[i][j] < dist[m + j]:
                        dist[m + j], pred[m + j], changed = dist[i] + cost[i][j], i, True
                    if plan[i][j] and dist[m + j] - cost[i][j] < dist[i]:
                        dist[i], pred[i], changed = dist[m + j] - cost[i][j], m + j, True
            if not changed:
                break
        end = min((j for j in range(n) if demand[j]), key=lambda j: dist[m + j])
        path, node = [], m + end
        while pred[node] is not None:
            path.append((pred[node], node))
            node = pred[node]
        amount = min([supply[node], demand[end]]
                     + [plan[v][u - m] for u, v in path if v < m])
        for u, v in path:
            if v < m:
                plan[v][u - m] -= amount
            else:
                plan[u][v - m] += amount
        supply[node] -= amount
        demand[end] -= amount
    return sum(plan[i][j] * cost[i][j] for i in range(m) for j in range(n))


def transport_linprog(supply, demand, cost):
    """(optimum, row duals) of the balanced transportation LP from
    scipy.optimize.linprog(method="highs") on the dense equality matrix.

    Rows are the supply sums, then every demand sum but the last, which the
    balance implies.  hypdiff's direct HiGHS call must match it bit for bit.
    """
    from scipy.optimize import linprog

    ns, nd = len(supply), len(demand)
    a_eq = np.zeros((ns + nd - 1, ns * nd))
    for i in range(ns):
        a_eq[i, i * nd : (i + 1) * nd] = 1.0
    for j in range(nd - 1):
        a_eq[ns + j, j::nd] = 1.0
    b_eq = np.concatenate([supply, demand[:-1]])
    res = linprog(cost.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun), np.asarray(res.eqlin.marginals, dtype=np.float64)


def bfs_distances(adj, source, cutoff):
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier and d < cutoff:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def orc_enumerated(n_nodes, edges, alpha):
    """Per-edge (curvature, wasserstein) by exact integer transport: the
    integer-scaled measures and hop costs by min-cost flow.

    alpha must have an exact small rational representation (0, 0.5, 1).
    Returns a dict keyed by the canonical (u, v) edge.
    """
    adj = {i: set() for i in range(n_nodes)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = {}
    for u, v in edges:
        su = [u] + sorted(adj[u])
        sv = [v] + sorted(adj[v])
        mu = [alpha] + [(1 - alpha) / len(adj[u])] * len(adj[u])
        mv = [alpha] + [(1 - alpha) / len(adj[v])] * len(adj[v])
        su = [a for a, w in zip(su, mu) if w > 0]
        mu = [w for w in mu if w > 0]
        sv = [b for b, w in zip(sv, mv) if w > 0]
        mv = [w for w in mv if w > 0]
        scale = 2 * math.lcm(max(len(adj[u]), 1), max(len(adj[v]), 1))
        ints_u = [round(w * scale) for w in mu]
        ints_v = [round(w * scale) for w in mv]
        assert all(abs(w * scale - i) < 1e-9 for w, i in zip(mu, ints_u))
        assert all(abs(w * scale - i) < 1e-9 for w, i in zip(mv, ints_v))
        hops = [bfs_distances(adj, a, 3) for a in su]
        w_int = transport_min_cost_flow(ints_u, ints_v, [[d[b] for b in sv] for d in hops])
        w = w_int / scale
        out[(min(u, v), max(u, v))] = (1.0 - w, w)
    return out


def connected_components(n_nodes, edges):
    adj = {i: set() for i in range(n_nodes)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, comps = set(), []
    for start in range(n_nodes):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


def all_graphs_up_to(n_max):
    """All labeled simple graphs with 2..n_max nodes and >= 1 edge."""
    out = []
    for n in range(2, n_max + 1):
        possible = list(combinations(range(n), 2))
        for mask in range(1, 2 ** len(possible)):
            edges = [e for i, e in enumerate(possible) if mask >> i & 1]
            out.append((n, edges))
    return out


# ---------------------------------------------------------------------------
# the diffusion flow as one sequential scatter-add and one dense pass
# ---------------------------------------------------------------------------

def scatter_add(n, src, rows):
    """Per-source sums of edge rows by a sequential np.add.at from zeros."""
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, np.asarray(src, dtype=np.int64), rows)
    return out


def dense_log_aggregate(points, weights, kappa):
    """sum_j weights_ij log_{z_i}(z_j) from one (n, n, d) public log map."""
    from hypdiff import ball

    tang = ball.log_map(points[:, None, :], points[None, :, :], kappa)
    return np.einsum("ij,ijd->id", weights, tang)


def dirichlet_energy_reference(points, g, kappa):
    """The Dirichlet energy in one shot: public log and exp maps at the
    origin over all nodes, then one public distance over all (edges, d)
    gathers, summed as one array."""
    from hypdiff import ball

    if not len(g.edge_array):
        return 0.0
    o = np.zeros(points.shape[1])
    scaled = ball.log_map(o, points, kappa) / np.sqrt(1.0 + g.degrees)[:, None]
    normalized = ball.exp_map(o, scaled, kappa)
    src, dst = g.edge_array.T
    d = ball.distance(normalized[src], normalized[dst], kappa)
    return 0.5 * float(np.sum(d * d))


def global_attention_reference(points, params, heads, kappa):
    """The dense sigmoid attention as one expression per head, with scipy's
    expit: the mean over heads of sigmoid(q k^T) with rows divided by their
    sums."""
    from scipy.special import expit

    from hypdiff import ball

    n, dim = points.shape
    tang = ball.log_map(np.zeros(dim), points, kappa)
    q, k = tang @ params.w_query, tang @ params.w_key
    out = np.zeros((n, n))
    for h in range(heads):
        cols = slice(h * dim, (h + 1) * dim)
        scores = expit(q[:, cols] @ k[:, cols].T)
        out += scores / scores.sum(axis=1, keepdims=True)
    return out / heads


def row_source(weights):
    """diffusion_flow's global_part for a dense (n, n) weight matrix: its
    rows a..b-1 on request; None stays None."""
    if weights is None:
        return None
    return lambda a, b: weights[a:b]


def flow_reference(points, src, dst, edge_weights, global_part, kappa):
    """F(z)_i = exp_{z_i}(sum_j a_ij log_{z_i}(z_j)) through the public ball
    API: edge log maps summed by np.add.at, plus the one-shot dense pass."""
    from hypdiff import ball

    agg = np.zeros(points.shape)
    if len(src):
        tang = ball.log_map(points[src], points[dst], kappa)
        w = np.asarray(edge_weights, dtype=np.float64)
        agg = scatter_add(points.shape[0], src, w[:, None] * tang if w.ndim == 1 else w * tang)
    if global_part is not None:
        agg += dense_log_aggregate(points, global_part, kappa)
    return ball.exp_map(points, agg, kappa)


def assert_bitwise(got, want):
    """Same shape and the same float64 bits, so 0.0 and -0.0 differ."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, (got.shape, want.shape)
    assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))


def preferential_attachment(n, k, seed):
    """Seeded preferential-attachment edge list: each new node links to k
    distinct earlier nodes drawn in proportion to their degree."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(k + 1) for j in range(i + 1, k + 1)]
    ends = [v for e in edges for v in e]
    for new in range(k + 1, n):
        targets = set()
        while len(targets) < k:
            targets.add(ends[int(rng.integers(len(ends)))])
        for t in sorted(targets):
            edges.append((t, new))
            ends += [t, new]
    return edges


# ---------------------------------------------------------------------------
# graph canonicalisation and the local diffusivity, one edge at a time
# ---------------------------------------------------------------------------

def canonical_edges(n, edges):
    """The canonical edge tuple of Graph(n, edges): (min, max) pairs,
    deduplicated and sorted.  Raises ValueError for a negative n, then for
    the first self-loop or out-of-range edge in input order."""
    if n < 0:
        raise ValueError("node count must be nonnegative")
    seen = set()
    canon = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside node range [0, {n})")
        e = (min(u, v), max(u, v))
        if e not in seen:
            seen.add(e)
            canon.append(e)
    return tuple(sorted(canon))


def edge_pairs(g):
    """The canonical edges of g as a tuple of (u, v) int pairs."""
    return tuple(map(tuple, g.edge_array.tolist()))


def local_diffusivity_reference(g, orc, params):
    """(edge_index, weights) of the curvature attention: the MLP scores
    looked up per directed edge in a dict keyed by the undirected edge, then
    a softmax over each node's edges found by scanning the sources."""
    hidden = np.outer(orc.curvature, params.mlp_w1) + params.mlp_b1
    hidden = np.where(hidden >= 0.0, hidden, 0.01 * hidden)
    scores = dict(zip(edge_pairs(orc.graph), hidden @ params.mlp_w2.T + params.mlp_b2))
    e = g.edge_array
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((dst, src))
    ei = np.stack([src[order], dst[order]])
    m = ei.shape[1]
    raw = np.zeros((m, params.mlp_b2.shape[0]))
    for col in range(m):
        i, j = int(ei[0, col]), int(ei[1, col])
        raw[col] = scores[(min(i, j), max(i, j))]
    weights = np.zeros_like(raw)
    for i in range(g.n):
        cols = np.nonzero(ei[0] == i)[0]
        if cols.size == 0:
            continue
        s = raw[cols]
        s = np.exp(s - s.max(axis=0, keepdims=True))
        weights[cols] = s / s.sum(axis=0, keepdims=True)
    return ei, weights


def knn_edges_reference(features, k, metric):
    """Directed (i, j) pairs of the kNN rule, one node at a time: each row's
    distances lexsorted with the index as tie-break, the first k kept.  The
    distance matrices use the library's closed forms, so ties are the same."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if metric == "euclidean":
        sq = np.sum(x * x, axis=1)
        dist = np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T, 0.0)
    else:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        unit = x / np.where(norms == 0.0, 1.0, norms)
        dist = 1.0 - unit @ unit.T
    np.fill_diagonal(dist, np.inf)
    edges = []
    idx = np.arange(n)
    for i in range(n):
        order = np.lexsort((idx, dist[i]))
        edges.extend((i, int(j)) for j in order[:k])
    return edges


# ---------------------------------------------------------------------------
# the edge-list reader, one line at a time
# ---------------------------------------------------------------------------

def load_edge_list_reference(path):
    """Graph of an edge-list file read line by line with str.strip, split
    and int, errors naming the first offending line."""
    from hypdiff.graphs import Graph

    edges = []
    n_override = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                directive = stripped[1:].strip().replace(" ", "")
                if directive.startswith("nodes="):
                    count = directive[len("nodes="):]
                    try:
                        n_override = int(count)
                    except ValueError:
                        n_override = -1
                    if n_override < 0:
                        raise ValueError(f"{path}:{lineno}: invalid node count {count!r}, "
                                         "expected a nonnegative integer")
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer node id") from exc
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop on node {u}")
            edges.append((u, v))
    n = n_override
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
