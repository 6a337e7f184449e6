"""Shared fixtures."""

import numpy as np
import pytest
from hypothesis import settings

from hypdiff import blocks

# every property test draws the same examples on every run, and no failing
# example is saved to a database that would change the next run's draws
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


class NanScratch(blocks.Scratch):
    """A Scratch that hands out every array filled with NaN (all bits set;
    True for bool arrays), so a kernel that reads a value it did not write
    gives NaN instead of a stale value from an earlier block."""

    def take(self, shape, dtype=np.float64):
        out = super().take(shape, dtype)
        out.view(np.uint8).fill(0xFF)
        return out


@pytest.fixture
def block_pool(monkeypatch):
    """make(threads, block_floats=48): a BlockPool, not yet started, of
    `threads` threads, with every pass cut into blocks of at most
    block_floats floats for the rest of the test; block_floats=48 cuts small
    test graphs into several blocks."""

    def make(threads: int, block_floats: int = 48) -> blocks.BlockPool:
        monkeypatch.setattr(blocks, "available_cpus", lambda: threads)
        monkeypatch.setattr(blocks, "_DENSE_BLOCK_FLOATS", block_floats)
        return blocks.BlockPool()

    return make


@pytest.fixture
def nan_block_pool(monkeypatch, block_pool):
    """block_pool whose passes, pooled or serial, run on NanScratch buffers
    for the rest of the test: a stale read from a reused buffer fails the
    bitwise comparisons loudly."""
    monkeypatch.setattr(blocks, "Scratch", NanScratch)
    return block_pool
