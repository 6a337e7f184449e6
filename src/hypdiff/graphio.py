"""File ingestion, kNN graph construction, and forward encoder/decoder maps.

Edge lists are UTF-8 text, one ``u v`` pair per line, ``#`` comments, 0-based
ids.  A ``# nodes=N`` comment overrides the node count (otherwise max id + 1).
Feature matrices are headerless numeric CSV.  All writes go through a
temporary file and an atomic rename.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import ball
from .ball import Curvature
from .diffusion import EmbeddingState
from .graphs import Graph

KNN_METRICS = ("euclidean", "cosine")


def atomic_write(path: str, text: str):
    """Write text to path through a temporary file and an atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_edge_list(path: str) -> Graph:
    """Parse an edge-list file into a Graph.

    Duplicate edges (either orientation) collapse to one; self-loops and
    negative ids are rejected with the offending line number.
    """
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
                    n_override = int(directive[len("nodes="):])
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
    try:
        return Graph.from_edges(edges, n=n_override)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_edge_list(path: str, g: Graph):
    """Write a Graph so that load_edge_list round-trips it exactly."""
    lines = [f"# nodes={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    atomic_write(path, "\n".join(lines) + "\n")


def load_features(path: str) -> np.ndarray:
    """Read a dense headerless numeric CSV into an (n, f) float matrix."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(
                    f"{path}:{lineno}: ragged row ({len(rows[-1])} cells, expected {len(rows[0])})"
                )
    if not rows:
        raise ValueError(f"{path}: empty feature file")
    out = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{path}: non-finite feature value")
    return out


def _csv_text(header, row_format: str, n_rows: int, values) -> str:
    """An optional header line, then n_rows copies of row_format filled from
    the flat values with one `%` operation; the cells are byte-identical to
    per-cell f-strings with the same format spec, at about half the cost."""
    lines = [header] if header else []
    if n_rows:
        lines.append("\n".join([row_format] * n_rows) % tuple(values))
    return "\n".join(lines) + "\n"


def save_matrix_csv(path: str, matrix: np.ndarray):
    """Write a float matrix as headerless CSV with round-trippable precision."""
    matrix = np.atleast_2d(np.asarray(matrix))
    n_rows, n_cols = matrix.shape
    row_format = ",".join(["%.17g"] * n_cols)
    atomic_write(path, _csv_text(None, row_format, n_rows, matrix.ravel().tolist()))


def save_energy_csv(path: str, trace):
    """Write an energy trace as `t,energy` CSV."""
    values = [x for t, e in trace for x in (t, e)]
    atomic_write(path, _csv_text("t,energy", "%.17g,%.17g", len(trace), values))


def save_orc_csv(path: str, orc):
    """Write per-edge curvature results as `u,v,curvature,wasserstein` CSV."""
    values = [
        x for (u, v), k, w in zip(orc.edges, orc.curvature, orc.wasserstein)
        for x in (u, v, k, w)
    ]
    atomic_write(path, _csv_text(
        "u,v,curvature,wasserstein", "%s,%s,%.17g,%.17g", len(orc.edges), values))


def knn_graph(features: np.ndarray, k: int, metric: str = "euclidean") -> Graph:
    """Union-symmetrized k-nearest-neighbor graph over feature rows.

    Each node links to its k nearest others (self excluded); distance ties
    break toward the lower index, so the construction is deterministic.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k must be smaller than the number of rows ({n})")
    if metric == "euclidean":
        sq = np.sum(features * features, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * features @ features.T
        dist = np.maximum(d2, 0.0)
    elif metric == "cosine":
        norms = np.linalg.norm(features, axis=1, keepdims=True)
        unit = features / np.where(norms == 0.0, 1.0, norms)
        dist = 1.0 - unit @ unit.T
    else:
        raise ValueError(f"unknown metric {metric!r}, expected one of {KNN_METRICS}")
    np.fill_diagonal(dist, np.inf)
    edges = []
    idx = np.arange(n)
    for i in range(n):
        order = np.lexsort((idx, dist[i]))
        edges.extend((i, int(j)) for j in order[:k])
    return Graph.from_edges(edges, n=n)


@dataclass
class EncoderParams:
    """Feature transformation into the ball: weights, manifold bias, curvatures."""

    weight: np.ndarray
    bias: np.ndarray
    kappa_src: Curvature
    kappa_dst: Curvature

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError("encoder weight must be an (f, d) matrix")
        if self.bias.shape != (self.weight.shape[1],):
            raise ValueError("encoder bias dimension must match the output dimension")
        if np.linalg.norm(self.bias) >= self.kappa_src.radius:
            raise ValueError("encoder bias lies outside the ball")


def encode(features: np.ndarray, params: EncoderParams, sigma: str = "identity") -> EmbeddingState:
    """Map features to initial ball embeddings.

    exp_o lift, tangent weight multiplication, bias translation by parallel
    transport, then the curvature-changing activation into the target ball.
    """
    x = np.asarray(features, dtype=np.float64)
    ks, kt = params.kappa_src, params.kappa_dst
    f, d = params.weight.shape
    if x.shape[1] != f:
        raise ValueError(f"features have {x.shape[1]} columns, encoder expects {f}")
    o_f, o_d = np.zeros(f), np.zeros(d)
    lifted = ball.exp_map(o_f, x, ks)
    z_lin = ball.exp_map(o_d, ball.log_map(o_f, lifted, ks) @ params.weight, ks)
    bias_tangent = ball.log_map(o_d, params.bias, ks)
    z_bias = ball.exp_map(
        z_lin, ball.parallel_transport(o_d, z_lin, bias_tangent, ks), ks
    )
    tang = ball.log_map(o_d, z_bias, ks)
    if sigma == "tanh":
        tang = np.tanh(tang)
    elif sigma != "identity":
        raise ValueError(f"unknown activation {sigma!r}")
    points = ball.exp_map(o_d, tang, kt)
    return EmbeddingState(points=points, curvature=kt, t=0.0)


def fermi_dirac(z_i: np.ndarray, z_j: np.ndarray, r: float, t_fd: float, kappa) -> np.ndarray:
    """Edge probability 1 / (exp((d^2 - r) / t) + 1); decreasing in distance."""
    if t_fd <= 0.0:
        raise ValueError("fermi-dirac temperature must be positive")
    d = ball.distance(z_i, z_j, kappa)
    return 1.0 / (np.exp((d * d - r) / t_fd) + 1.0)
