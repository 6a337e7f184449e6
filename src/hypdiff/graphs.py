"""Undirected graph topology with degree and neighbour queries."""

from __future__ import annotations

from functools import cached_property

import numpy as np


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Graph:
    """Simple undirected graph on nodes 0..n-1 with a canonical edge list.

    Edges are deduplicated, stored as (u, v) with u < v, sorted; self-loops
    are rejected.  ``edge_array`` holds them as a read-only (m, 2) int64
    array.  ``directed_edges`` holds both orientations of every edge
    as a (2, 2m) array sorted by (source, target), so the columns
    offsets[i]..offsets[i+1]-1 are the edges leaving node i in increasing
    order of target; every weight matrix and neighbourhood of the package
    uses this order.  Graphs are immutable, and equal when their node counts
    and canonical edges are.
    """

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        given = np.asarray(edges)
        if given.dtype.kind == "f":  # ids given as floats must be whole numbers
            pairs = given.reshape(-1, 2)
            whole = np.isfinite(pairs) & (pairs == np.trunc(pairs))
            bad = np.flatnonzero(~whole.all(axis=1))
            if bad.size:
                u, v = pairs[bad[0]].tolist()
                raise ValueError(f"non-integer node id in edge ({u}, {v})")
            if np.any(np.abs(pairs) >= 2.0**63):
                raise ValueError("node id outside the int64 range")
        try:
            given = np.array(edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError as exc:
            raise ValueError("node id outside the int64 range") from exc
        u, v = given.T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n))
        if bad.size:  # report the first bad edge in input order
            u, v = given[bad[0]].tolist()
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            raise ValueError(f"edge ({u}, {v}) outside node range [0, {n})")
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        first = np.ones(lo.size, dtype=bool)  # first of each run of equal edges
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_array", _read_only(np.stack([lo[first], hi[first]], axis=1)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Graph")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self) -> int:
        return hash((self.n, self.edge_array.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edge_array)})"

    @cached_property
    def degrees(self) -> np.ndarray:
        return _read_only(np.bincount(self.edge_array.ravel(), minlength=self.n).astype(np.int64))

    @cached_property
    def offsets(self) -> np.ndarray:
        """(n + 1,) int64: the edges leaving node i are the columns
        offsets[i]..offsets[i+1]-1 of directed_edges."""
        return _read_only(np.concatenate([[0], np.cumsum(self.degrees)]))

    @cached_property
    def directed_edges(self) -> np.ndarray:
        """Both orientations of every edge, a read-only (2, 2m) int64 array
        of (source, target) columns sorted by source, then target."""
        src, dst = np.concatenate([self.edge_array, self.edge_array[:, ::-1]]).T
        order = np.lexsort((dst, src))
        return _read_only(np.stack([src[order], dst[order]]))

    @cached_property
    def edge_ids(self) -> np.ndarray:
        """(2m,) int64: the row of edge_array of each column of directed_edges."""
        src, dst = self.directed_edges
        ids = np.empty(src.size, dtype=np.int64)
        forward = src < dst
        # the (u, v) columns come in the order of edge_array, the (v, u)
        # columns in the order of its rows sorted by (v, u)
        ids[forward] = np.arange(len(self.edge_array))
        ids[~forward] = np.lexsort(self.edge_array.T)
        return _read_only(ids)

    def neighbors(self, i: int) -> np.ndarray:
        """The neighbours of node i in increasing order (a read-only view)."""
        return self.directed_edges[1, self.offsets[i] : self.offsets[i + 1]]


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Seeded G(n, p) with edges drawn in fixed (i < j) order."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)
