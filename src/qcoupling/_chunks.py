"""One in-order engine for every chunked random draw of rows x width
values.  Chunk j comes from Generator(SFC64(j-th child of
SeedSequence(seed))): its values depend on the seed, width, j and CHUNK
alone, not on the core count, ring or thread."""

import os

import numpy as np

CHUNK = 1 << 16  # values per chunk, or one row where a row is more
# Values the ring of slots holds at most, unless two slots alone are more
RING_VALUES = 1 << 21


def cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def in_order(fn, seed, rows, width):
    """Generate fn(lo, rng, buf) in order for each chunk of step =
    max(1, min(rows, CHUNK // width)) rows of rows 0 .. rows - 1, the last
    chunk shorter if need be: lo is its first row, rng its generator and
    buf a float array of shape (rows in the chunk, width) that no other
    call in flight holds; it is the caller's until it asks for the next.

    One worker per core beyond the first runs the calls up to window =
    min(chunks, 2 cores, max(2, RING_VALUES // (step width))) ahead, each
    on its slot of a ring; while the next is not ready, the caller runs
    the calls that no worker has started.  At the end, on an exception
    from fn or on close(), calls not started are cancelled and the
    workers joined: a caller that can stop early runs it under
    contextlib.closing.
    """
    entropy = np.random.SeedSequence(seed).entropy
    step = max(1, min(rows, CHUNK // width))
    chunks = -(-rows // step)
    # two slots per thread: with one, the caller stalls on chunk j
    window = min(chunks, 2 * cores(), max(2, RING_VALUES // (step * width)))
    # allocated on the calling thread: what a worker thread allocates
    # stays resident in that thread's malloc arena
    ring = np.empty((window, step, width))

    def call(j):
        child = np.random.SeedSequence(entropy, spawn_key=(j,))
        return fn(j * step, np.random.Generator(np.random.SFC64(child)),
                  ring[j % window, :rows - j * step])

    workers = min(cores(), chunks) - 1
    if workers < 1:
        yield from map(call, range(chunks))
        return
    from concurrent.futures import Future, ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        ahead = [pool.submit(call, j) for j in range(window)]
        for j in range(chunks):
            for i in range(len(ahead)):
                if ahead[0].done():
                    break
                if ahead[i].cancel():
                    ahead[i] = Future()
                    ahead[i].set_result(call(j + i))
            yield ahead.pop(0).result()
            if j + window < chunks:
                ahead.append(pool.submit(call, j + window))
    finally:
        pool.shutdown(cancel_futures=True)
