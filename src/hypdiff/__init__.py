"""Poincare-ball geometry, projective hyperbolic PDE solvers, and graph diffusion."""

from .diffusion import EmbeddingState, ResidualSpec, run_diffusion
from .diffusivity import AttentionParams, DiffusivityConfig, DiffusivityMatrix, OrcResult
from .graphs import Graph
from .solvers import SolverSpec

__all__ = [
    "AttentionParams",
    "DiffusivityConfig",
    "DiffusivityMatrix",
    "EmbeddingState",
    "Graph",
    "OrcResult",
    "ResidualSpec",
    "SolverSpec",
    "run_diffusion",
]

__version__ = "0.1.0"
