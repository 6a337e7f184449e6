"""Bounded row blocks and the thread pool that runs them.

Every per-row and per-edge array of a diffusion step (the flow's edge and
dense passes, the solver's n x d kernels, the Dirichlet energy) is made in
blocks of contiguous rows of at most _DENSE_BLOCK_FLOATS floats, so that
its temporaries stay cache-sized and memory stays bounded as n grows.  Each
block writes only its own rows from per-row expressions, so a result is
bitwise the same for any block size and any number of threads.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

import numpy as np

# Floats in one block: (rows, n, d) log maps in the dense global pass,
# (edges, d) in the edge pass and the energy, (rows, d) in the solver.  A
# block allocates a few arrays of this size (512 KB each), small enough to
# stay in cache: at n=800, d=16 a dense pass took 170 ms against 210 ms
# with 8 MB blocks and 315 ms with no blocks.
_DENSE_BLOCK_FLOATS = 1 << 16


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class BlockPool:
    """Threads that run the independent blocks of a pass.

    One thread per CPU the process may run on, started on entering the pool
    as a context manager and joined on leaving it.  A pass runs in the
    calling thread outside that context, on a single CPU, or when it is one
    block.  Each block writes its own rows, so a pass gives the same bits
    either way.
    """

    def __init__(self):
        self.threads = available_cpus()
        self._executor = None

    def __enter__(self) -> "BlockPool":
        if self.threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(self.threads, thread_name_prefix="hypdiff-block")
        return self

    def __exit__(self, *exc):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def run(self, block: Callable, items: Sequence):
        """block(item) for every item; the first exception, in item order,
        reaches the caller unchanged."""
        if self._executor is None or len(items) < 2:
            _run_serially(block, items)
            return
        # pool threads start with numpy's default error state, not the caller's
        err = np.geterr()

        def guarded(item):
            with np.errstate(**err):
                block(item)

        for _ in self._executor.map(guarded, items):
            pass


def _run_serially(block: Callable, items: Sequence):
    for item in items:
        block(item)


def block_rows(n_rows: int, row_floats: int, threads: int = 1) -> int:
    """Rows per block for n_rows rows of row_floats floats each.

    A block holds at most _DENSE_BLOCK_FLOATS floats, or one row if a row is
    larger.  A pass that needs more than one block is cut into near-equal
    blocks, sized for the smallest multiple of `threads` blocks that keeps
    each within the budget, so that no thread waits on one short last block.
    """
    most = max(1, _DENSE_BLOCK_FLOATS // max(1, row_floats))
    count = -(-n_rows // most)
    if count <= 1:
        return max(1, n_rows)
    count = -(-count // threads) * threads
    return -(-n_rows // count)


def run_rows(block: Callable[[int, int], None], n_rows: int, row_floats: int,
             pool: Optional[BlockPool] = None):
    """block(a, b) for the row ranges a..b-1 that cut 0..n_rows-1 into
    blocks of block_rows rows; on the threads of ``pool`` while it is
    started, else one block after another in the calling thread."""
    if pool is None:
        run, threads = _run_serially, 1
    else:
        run, threads = pool.run, pool.threads
    rows = block_rows(n_rows, row_floats, threads)
    run(lambda a: block(a, min(a + rows, n_rows)), range(0, n_rows, rows))
