"""File ingestion and kNN graph construction.

Edge lists are UTF-8 text, one ``u v`` pair per line, ``#`` comments, 0-based
ids.  A ``# nodes=N`` comment overrides the node count (otherwise max id + 1).
Feature matrices are headerless numeric CSV.  All writes go through a
temporary file and an atomic rename.
"""

from __future__ import annotations

import csv
import os
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .graphs import Graph

KNN_METRICS = ("euclidean", "cosine")
# Values formatted and written at a time by the CSV writers (1024 rows of 16
# columns), so that a write holds one chunk's Python floats and text, not
# the whole file's.
_CSV_CHUNK_VALUES = 1 << 14


def atomic_write(path: str, chunks: Iterable[str]):
    """Write the concatenated chunks of text to path through a temporary
    file and an atomic rename; on any failure path keeps its old content
    and the temporary file is removed.  The file is created with mode 0666
    less the umask, as open() would create it."""
    tmp = f"{os.path.abspath(path)}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Byte classes of a plain data line: runs of ASCII digits between spaces
# and tabs.  A line with any other byte is parsed on its own by _parse_line.
_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[ord("0") : ord("9") + 1] = True
_PLAIN = _DIGIT.copy()
_PLAIN[[ord(" "), ord("\t"), ord("\n")]] = True
# A run of at most this many digits fits int64.
_MAX_DIGITS = 18


def load_edge_list(path: str) -> Graph:
    """Parse an edge-list file into a Graph.

    Duplicate edges (either orientation) collapse to one; self-loops and
    negative ids are rejected with the number of the first offending line.

    Plain lines, two runs of at most 18 ASCII digits between spaces and
    tabs, are parsed all at once into an int64 array (_plain_edges).  Every
    other line (blank, comment, or holding another character such as a
    sign, an underscore or a non-ASCII digit) is read on its own with
    str.strip, str.split and int().
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    plain_lines, edges, odd = _plain_edges(text)
    lines = text.split("\n")
    loops = plain_lines[edges[:, 0] == edges[:, 1]]
    stop = int(loops[0]) if loops.size else len(lines)  # the first plain line in error
    n_override = None
    odd_edges = []  # (line, (u, v)) in line order
    for i in odd[odd < stop].tolist():
        stripped = lines[i].strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            directive = stripped[1:].strip().replace(" ", "")
            if directive.startswith("nodes="):
                n_override = _node_count(path, i + 1, directive[len("nodes="):])
            continue
        odd_edges.append((i, _parse_line(path, i + 1, stripped)))
    if loops.size:  # the first error is this plain self-loop
        _parse_line(path, stop + 1, lines[stop].strip())

    if odd_edges:
        at = np.array([i for i, _ in odd_edges])
        pairs = [pair for _, pair in odd_edges]
        try:
            more = np.array(pairs, dtype=np.int64)
        except OverflowError:  # an id beyond int64, which Graph rejects
            more = np.array(pairs, dtype=object)
        order = np.argsort(np.concatenate([plain_lines, at]), kind="stable")
        edges = np.concatenate([edges, more])[order]
    n = n_override
    if n is None:
        n = 1 + int(edges.max()) if edges.size else 0
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _plain_edges(text: str):
    """(plain lines, their (m, 2) int64 edges, the other non-blank lines)
    of an edge-list text, lines counted from 0."""
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    breaks = np.flatnonzero(raw == ord("\n"))
    n_lines = breaks.size + 1
    digit = _DIGIT[raw]
    run_start, run_end = digit.copy(), digit.copy()
    run_start[1:] &= ~digit[:-1]
    run_end[:-1] &= ~digit[1:]
    starts, ends = np.flatnonzero(run_start), np.flatnonzero(run_end)  # of each digit run
    run_line = np.searchsorted(breaks, starts)
    runs = np.bincount(run_line, minlength=n_lines)
    long = np.bincount(run_line[ends - starts >= _MAX_DIGITS], minlength=n_lines)
    other = np.bincount(np.searchsorted(breaks, np.flatnonzero(~_PLAIN[raw])), minlength=n_lines)
    plain = (runs == 2) & (long == 0) & (other == 0)
    keep = plain[run_line]  # the two runs of each plain line, in order
    starts, ends = starts[keep], ends[keep]
    ids = np.zeros(starts.size, dtype=np.int64)
    for place in range(int(np.max(ends - starts, initial=-1)) + 1):
        at = ends - place
        has = at >= starts
        ids[has] += (raw[at[has]] - ord("0")).astype(np.int64) * 10**place
    odd = np.flatnonzero(~plain & ((runs != 0) | (other != 0)))
    return np.flatnonzero(plain), ids.reshape(-1, 2), odd


def _node_count(path: str, lineno: int, text: str) -> int:
    """The count of a `# nodes=` directive on line lineno."""
    try:
        n = int(text)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise ValueError(
        f"{path}:{lineno}: invalid node count {text!r}, expected a nonnegative integer")


def _parse_line(path: str, lineno: int, stripped: str):
    """(u, v) of one stripped, non-comment line of an edge list."""
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
    return u, v


def save_edge_list(path: str, g: Graph):
    """Write a Graph so that load_edge_list round-trips it exactly."""
    edges = g.edge_array
    atomic_write(path, _csv_chunks(f"# nodes={g.n}", "%d %d", 2, len(edges),
                                   lambda a, b: edges[a:b].ravel().tolist()))


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


def _csv_chunks(header: Optional[str], row_format: str, width: int, n_rows: int,
                values: Callable[[int, int], list]) -> Iterator[str]:
    """An optional header line, then n_rows lines of row_format, in chunks
    of whole rows of about _CSV_CHUNK_VALUES values.  values(a, b) gives the
    `width` values of each of the rows a..b-1, flat, and each chunk is filled
    with one `%` operation; the cells are byte-identical to per-cell
    f-strings with the same format spec, at about half the cost.  Without a
    header and rows the text is one empty line."""
    if header is not None or not n_rows:
        yield (header or "") + "\n"
    rows = max(1, _CSV_CHUNK_VALUES // max(1, width))
    for a in range(0, n_rows, rows):
        b = min(a + rows, n_rows)
        yield "\n".join([row_format] * (b - a)) % tuple(values(a, b)) + "\n"


def save_matrix_csv(path: str, matrix: np.ndarray):
    """Write a float matrix as headerless CSV with round-trippable precision."""
    matrix = np.atleast_2d(np.asarray(matrix))
    n_rows, n_cols = matrix.shape
    row_format = ",".join(["%.17g"] * n_cols)
    atomic_write(path, _csv_chunks(None, row_format, n_cols, n_rows,
                                   lambda a, b: matrix[a:b].ravel().tolist()))


def save_energy_csv(path: str, trace):
    """Write an energy trace as `t,energy` CSV."""
    atomic_write(path, _csv_chunks("t,energy", "%.17g,%.17g", 2, len(trace), lambda a, b: [
        x for t, e in trace[a:b] for x in (t, e)]))


def save_convergence_csv(path: str, rows):
    """Write convergence_study rows as `method,tau,error,fitted_order` CSV."""
    atomic_write(path, _csv_chunks("method,tau,error,fitted_order", "%s,%.17g,%.17g,%.17g", 4,
                                   len(rows), lambda a, b: [x for row in rows[a:b] for x in row]))


def save_orc_csv(path: str, orc):
    """Write per-edge curvature results as `u,v,curvature,wasserstein` CSV."""
    edges, curvature = orc.graph.edge_array, orc.curvature

    def values(a, b):
        rows = zip(edges[a:b].tolist(), curvature[a:b], orc.wasserstein[a:b])
        return [x for (u, v), k, w in rows for x in (u, v, k, w)]

    atomic_write(path, _csv_chunks(
        "u,v,curvature,wasserstein", "%s,%s,%.17g,%.17g", 4, len(edges), values))


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
    # a stable sort keeps equal distances in index order
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    sources = np.repeat(np.arange(n, dtype=np.int64), k)
    return Graph(n, np.stack([sources, nearest.ravel()], axis=1))
