"""Output checks applied to every benchmarked ``hypdiff diffuse`` invocation."""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

# hypdiff keeps every point within this relative margin of the ball boundary.
BOUNDARY_EPS = 1e-5
# Largest accepted ORC transport-LP dual gap (acceptance criterion 06).
DUAL_TOL = 1e-9

OUTPUT_FILES = ("embeddings.csv", "energy.csv")


class CheckError(Exception):
    """An invocation's outputs are wrong."""


def digests(out_dir: str) -> dict:
    out = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def check_embeddings(path: str, n: int, dim: int, kappa: float):
    try:
        z = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable ({exc})") from exc
    if z.shape != (n, dim):
        raise CheckError(f"{path}: shape {z.shape}, expected {(n, dim)}")
    if not np.all(np.isfinite(z)):
        raise CheckError(f"{path}: non-finite coordinate")
    limit = (1.0 - BOUNDARY_EPS) / math.sqrt(-kappa) * (1.0 + 1e-12)
    norms = np.linalg.norm(z, axis=1)
    if norms.max() > limit:
        raise CheckError(f"{path}: row {int(norms.argmax())} outside the ball margin")


def check_energy(path: str, times: list) -> int:
    """Check the energy trace; returns the number of integration steps."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "t,energy":
        raise CheckError(f"{path}: missing 't,energy' header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            t, e = (float(x) for x in line.split(","))
        except ValueError as exc:
            raise CheckError(f"{path}:{lineno}: bad row {line!r}") from exc
        if not (math.isfinite(t) and math.isfinite(e)):
            raise CheckError(f"{path}:{lineno}: non-finite value")
        rows.append((t, e))
    got = [t for t, _ in rows]
    if len(got) != len(times) or any(abs(a - b) > 1e-12 for a, b in zip(got, times)):
        raise CheckError(f"{path}: times {got}, expected {times}")
    if not rows[-1][1] < rows[0][1]:
        raise CheckError(f"{path}: energy did not decay ({rows[0][1]} -> {rows[-1][1]})")
    return len(rows) - 1


def check_outputs(out_dir: str, n: int, dim: int, kappa: float, times: list) -> tuple:
    """Validate one invocation's outputs; returns (digests, steps)."""
    try:
        check_embeddings(os.path.join(out_dir, "embeddings.csv"), n, dim, kappa)
        steps = check_energy(os.path.join(out_dir, "energy.csv"), times)
        return digests(out_dir), steps
    except OSError as exc:
        raise CheckError(f"missing output: {exc}") from exc
