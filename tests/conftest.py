"""Shared fixtures."""

import pytest

from hypdiff import blocks


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
