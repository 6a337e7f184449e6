"""Undirected graph topology with degree and neighbour queries."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Tuple

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1 with a canonical edge list.

    Edges are deduplicated, stored as (u, v) with u < v, sorted; self-loops
    are rejected.
    """

    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("node count must be nonnegative")
        seen = set()
        canon = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside node range [0, {self.n})")
            e = (min(u, v), max(u, v))
            if e not in seen:
                seen.add(e)
                canon.append(e)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]], n: int | None = None) -> "Graph":
        edges = [(int(u), int(v)) for u, v in edges]
        if n is None:
            n = 1 + max((max(u, v) for u, v in edges), default=-1)
        return cls(n=n, edges=tuple(edges))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The canonical edges as a read-only (m, 2) int64 array."""
        arr = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        arr.flags.writeable = False
        return arr

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edge_array.ravel(), minlength=self.n).astype(np.int64)
        deg.flags.writeable = False
        return deg

    @cached_property
    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        nbrs: Dict[int, list] = {i: [] for i in range(self.n)}
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return {i: tuple(sorted(js)) for i, js in nbrs.items()}

    def neighbors(self, i: int) -> Tuple[int, ...]:
        return self.adjacency[i]

    def relabel(self, perm) -> "Graph":
        """Graph with node i renamed to perm[i]."""
        perm = list(perm)
        return Graph.from_edges([(perm[u], perm[v]) for u, v in self.edges], n=self.n)


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p) with edges drawn in fixed (i < j) order."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(edges, n=n)
