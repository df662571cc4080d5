"""One in-order engine for every chunked random draw.  Chunk j comes from
Generator(SFC64(j-th child of SeedSequence(seed))): its values depend on
the seed, j and CHUNK alone, not on the core count, ring or thread."""

import math
import os

import numpy as np

CHUNK = 1 << 16  # values per chunk
# Values the ring of slots holds at most, unless two slots alone are more
RING_VALUES = 1 << 21


def cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def in_order(fn, seed, count, slot):
    """Generate fn(j, rng, buf) for j = 0 .. count - 1, in order, with rng
    chunk j's generator and buf a float array of shape slot that no other
    call in flight holds; it is the caller's until it asks for the next.

    One worker per core beyond the first runs the calls up to window =
    min(count, 2 cores, max(2, RING_VALUES // values per slot)) ahead,
    each on its slot of a ring; while the next is not ready, the caller
    runs the calls that no worker has started.  At the end, on an
    exception from fn or on close(), calls not started are cancelled and
    the workers joined: a caller that can stop early runs it under
    contextlib.closing.
    """
    entropy = np.random.SeedSequence(seed).entropy
    # two slots per thread: with one, the caller stalls on chunk j
    window = min(count, 2 * cores(), max(2, RING_VALUES // math.prod(slot)))
    # allocated on the calling thread: what a worker thread allocates
    # stays resident in that thread's malloc arena
    ring = np.empty((window, *slot))

    def call(j):
        child = np.random.SeedSequence(entropy, spawn_key=(j,))
        return fn(j, np.random.Generator(np.random.SFC64(child)),
                  ring[j % window])

    workers = min(cores(), count) - 1
    if workers < 1:
        yield from map(call, range(count))
        return
    from concurrent.futures import Future, ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        ahead = [pool.submit(call, j) for j in range(window)]
        for j in range(count):
            for i in range(len(ahead)):
                if ahead[0].done():
                    break
                if ahead[i].cancel():
                    ahead[i] = Future()
                    ahead[i].set_result(call(j + i))
            yield ahead.pop(0).result()
            if j + window < count:
                ahead.append(pool.submit(call, j + window))
    finally:
        pool.shutdown(cancel_futures=True)
