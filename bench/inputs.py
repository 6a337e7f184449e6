"""Seeded edge-list generators for the benchmark workloads.

Only numpy's RNG is used, never ``hypdiff.graphs``: the generator must not
run code under test, and ``erdos_renyi`` is O(n^2) Python.  Files are written
in the ``# nodes=N`` edge-list format that ``hypdiff diffuse --graph`` reads.
"""

from __future__ import annotations

import os

import numpy as np


def uniform_edges(n: int, m: int, seed: int) -> np.ndarray:
    """m distinct undirected edges drawn uniformly, as a sorted (m, 2) array."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} edges do not fit on {n} nodes")
    rng = np.random.default_rng(seed)
    keys = np.zeros(0, dtype=np.int64)
    while keys.size < m:
        pairs = rng.integers(0, n, size=(2 * m, 2))
        pairs = np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1)
        drawn = np.concatenate([keys, pairs[:, 0] * n + pairs[:, 1]])
        _, first = np.unique(drawn, return_index=True)
        keys = drawn[np.sort(first)][:m]  # keep draw order, drop repeats
    keys = np.sort(keys)
    return np.stack([keys // n, keys % n], axis=1)


def preferential_edges(n: int, k: int, seed: int) -> np.ndarray:
    """Barabasi-Albert graph: each new node links to k distinct earlier nodes
    chosen with probability proportional to degree (k seed nodes, no edges)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    ends = []  # every edge endpoint once: sampling from it is degree-proportional
    edges = []
    for v in range(k, n):
        if v == k:
            targets = list(range(k))
        else:
            targets = []
            while len(targets) < k:
                t = ends[int(rng.integers(len(ends)))]
                if t not in targets:
                    targets.append(t)
        for t in targets:
            edges.append((t, v))
            ends.extend((t, v))
    return np.asarray(sorted(edges), dtype=np.int64)


def edge_file(cache_dir: str, kind: str, n: int, size: int, seed: int) -> str:
    """Path of the cached edge file for (kind, n, size, seed); writes it once.

    kind 'uniform' takes size = edge count, kind 'pa' takes size = edges per
    new node.
    """
    path = os.path.join(cache_dir, f"{kind}-n{n}-{size}-s{seed}.edges")
    if os.path.exists(path):
        return path
    if kind == "uniform":
        edges = uniform_edges(n, size, seed)
    elif kind == "pa":
        edges = preferential_edges(n, size, seed)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    os.makedirs(cache_dir, exist_ok=True)
    lines = [f"# nodes={n}"] + [f"{u} {v}" for u, v in edges.tolist()]
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
    return path
