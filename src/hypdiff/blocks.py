"""Bounded row blocks and the thread pool that runs them.

Every per-row and per-edge array of a diffusion step (the flow's edge and
dense passes, the solver's n x d kernels, the Dirichlet energy) is made in
blocks of contiguous rows of at most _DENSE_BLOCK_FLOATS floats (twice that
in the dense pass), so that its temporaries stay cache-sized and memory
stays bounded as n grows.  Each block writes only its own rows from per-row
expressions, so a result is bitwise the same for any block size and any
number of threads.

A block computes its temporaries in the Scratch of the thread that runs it:
reusable work arrays that a started BlockPool keeps per thread and drops
when it stops, so the blocks of a run allocate (and fault in) their
temporaries once instead of on every block.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

# Floats in one block: (edges, d) in the edge pass and the energy, (rows, d)
# in the solver; the dense global pass gives its (rows, n, d) log maps twice
# this.  A block allocates a few arrays of this size (512 KB each), small
# enough to stay in cache: at n=800, d=16 a dense pass took 170 ms against
# 210 ms with 8 MB blocks and 315 ms with no blocks.
_DENSE_BLOCK_FLOATS = 1 << 16


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class Scratch:
    """Reusable work arrays of one thread, handed out from three stacks.

    take(shape, dtype) returns an array backed by the next buffer of one
    stack: bool arrays, columns of per-row scalars (last axis 1), and other
    float arrays, so that a column never holds on to a buffer of whole rows.
    The arrays taken inside a frame() are handed back when it closes, so a
    kernel that takes its temporaries inside a frame leaves the stacks as it
    found them, and the blocks of a pass, which repeat the same requests,
    reuse the same buffers.  The buffer at each depth grows to the largest
    array taken there, rounded up to a power of two but not past one block
    of _DENSE_BLOCK_FLOATS floats unless the array is larger, so blocks that
    differ a little in size (edge blocks end at node boundaries) share it.

    An array taken here is valid until its frame closes: what a block
    returns must be copied out (or written through ``out=``) before that.
    A Scratch made for one kernel call, as the kernels do when given none,
    is dropped with the call.
    """

    def __init__(self):
        self._stacks = ([], [], [])  # raw byte buffers: bools, columns, rows
        self._depths = [0, 0, 0]  # buffers taken from each stack
        self._marks: list = []  # _depths when each open frame opened

    def frame(self) -> "Scratch":
        """Opens a frame, closed by leaving the ``with`` block it heads."""
        self._marks.append(tuple(self._depths))
        return self

    def __enter__(self) -> "Scratch":
        return self

    def __exit__(self, *exc):
        self._depths[:] = self._marks.pop()

    def take(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous array of this shape and dtype."""
        dtype = np.dtype(dtype)
        kind = 0 if dtype == bool else 1 if shape[-1] == 1 else 2
        stack, depth = self._stacks[kind], self._depths[kind]
        nbytes = math.prod(shape) * dtype.itemsize
        if depth == len(stack):
            stack.append(np.empty(_buffer_size(nbytes), np.uint8))
        elif len(stack[depth]) < nbytes:
            stack[depth] = np.empty(_buffer_size(nbytes), np.uint8)
        self._depths[kind] = depth + 1
        return np.ndarray(shape, dtype, stack[depth])


def _buffer_size(nbytes: int) -> int:
    """nbytes rounded up to a power of two, but not past one block unless
    it is larger."""
    block = _DENSE_BLOCK_FLOATS * 8
    return max(nbytes, min(1 << max(nbytes - 1, 0).bit_length(), block))


class BlockPool:
    """Threads that run the independent blocks of a pass, and each thread's
    Scratch.

    One worker per CPU the process may run on: threads - 1 helper threads,
    started on entering the pool as a context manager and joined on leaving
    it, and the calling thread.  A pass of two or more blocks on a started
    pool hands one drain task to each helper and drains in the calling
    thread as well; the workers take the blocks in item order from one
    shared cursor, so each thread wakes once per pass, not once per block.
    A pass runs in the calling thread alone outside that context, on a
    single CPU, or when it is one block; a caller without a pool runs its
    passes on an unstarted one, so run() is the one loop over blocks.  Each
    block writes its own rows, so a pass gives the same bits either way.

    While the pool is started, every thread that runs its blocks (its
    helpers and the calling thread) keeps one Scratch for all passes; the
    buffers are dropped when the pool stops.  Outside that context each
    pass gets a Scratch of its own.
    """

    def __init__(self):
        self.threads = available_cpus()
        self._executor = None
        self._local = None  # threading.local holding each thread's Scratch

    def __enter__(self) -> "BlockPool":
        self._local = threading.local()
        if self.threads > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(self.threads - 1, thread_name_prefix="hypdiff-block")
        return self

    def __exit__(self, *exc):
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._local = None

    def _scratch(self) -> Scratch:
        """The calling thread's Scratch while the pool is started, else a
        new one."""
        if self._local is None:
            return Scratch()
        work = getattr(self._local, "work", None)
        if work is None:
            work = self._local.work = Scratch()
        return work

    def run(self, block: Callable, items: Sequence):
        """block(item, work) for every item, with work the running thread's
        Scratch, in a frame of its own; the first exception, in item order,
        reaches the caller unchanged.

        A failed block stops the workers from taking more items, and run()
        returns or raises only once every block it started has finished.
        Items are taken in order, so every item before the first failing one
        has run.  The failed blocks' frames are cleared before the raise: the
        traceback keeps its lines but no longer holds their locals (their
        thread's Scratch among them).
        """
        # helper threads start with numpy's default error state, not the caller's
        err = np.geterr()
        lock = threading.Lock()
        taken = 0
        failed = {}  # item index -> the exception its block raised

        def drain():
            nonlocal taken
            work = self._scratch()
            with np.errstate(**err):
                while True:
                    with lock:
                        if failed or taken == len(items):
                            return
                        i, taken = taken, taken + 1
                    try:
                        with work.frame():
                            block(items[i], work)
                    except BaseException as exc:
                        with lock:
                            failed[i] = exc
                        return

        helpers = []
        if self._executor is not None and len(items) > 1:
            helpers = [self._executor.submit(drain) for _ in range(self.threads - 1)]
        try:
            drain()
        finally:
            for helper in helpers:
                helper.result()
        if failed:
            # imported on failure only: imported with this module, it shifted
            # the heap so that a 5000-node run's peak RSS rose by 1 MB
            import traceback

            for exc in failed.values():
                traceback.clear_frames(exc.__traceback__)
            raise failed[min(failed)]


def row_ranges(ends: np.ndarray, threads: int = 1,
               floats: Optional[int] = None) -> List[Tuple[int, int]]:
    """Consecutive row ranges (a, b) that cover every row once, for rows
    whose floats end at the cumulative counts ends, an (n + 1,) int array.

    A range holds at most `floats` floats (by default _DENSE_BLOCK_FLOATS),
    or is a single row.  A pass that needs more than one range is cut into
    near-equal ranges, as many as the smallest multiple of `threads` that
    keeps each within the budget, as far as the row sizes allow, so that no
    thread waits on one short last range.
    """
    floats = _DENSE_BLOCK_FLOATS if floats is None else floats
    n = len(ends) - 1

    def cut(a: int, target) -> int:
        """The first boundary at or past target (the last one if that is
        the end), but within the budget from a, and past a."""
        at = np.searchsorted(ends, target) if target < ends[n] else n
        budget = np.searchsorted(ends, ends[a] + floats, "right") - 1
        return max(a + 1, int(min(at, budget)))

    count, a = 0, 0
    while a < n:  # the fewest ranges: each as long as the budget allows
        a, count = cut(a, ends[n]), count + 1
    if count > 1:
        count = -(-count // threads) * threads
    ranges, a = [], 0
    while a < n:
        left = ends[n] - ends[a]
        b = cut(a, ends[a] + -(-left // max(1, count - len(ranges))))
        ranges.append((a, b))
        a = b
    return ranges


def run_rows(block: Callable[[int, int, Scratch], None], n_rows: int, row_floats: int,
             pool: Optional[BlockPool] = None, floats: Optional[int] = None):
    """block(a, b, work) for the row_ranges (a, b) of n_rows rows of
    row_floats floats each, at most `floats` floats per range, run by
    ``pool`` (an unstarted BlockPool when None)."""
    pool = BlockPool() if pool is None else pool
    ranges = row_ranges(row_floats * np.arange(n_rows + 1), pool.threads, floats)
    pool.run(lambda rows, work: block(*rows, work), ranges)
