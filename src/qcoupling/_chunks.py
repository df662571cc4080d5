"""One in-order engine for every chunked random draw.  Chunk j comes from
Generator(SFC64(j-th child of SeedSequence(seed))): its values depend on
the seed, j and CHUNK alone, not on the core count, window or thread."""

import os

import numpy as np

CHUNK = 1 << 16  # values per chunk


def cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def in_order(fn, seed, count, window):
    """Generate fn(j, rng) for j = 0 .. count - 1, in order, with rng
    chunk j's generator.

    One worker per core beyond the first runs the calls up to window
    ahead; while the next is not ready, the caller runs the calls that no
    worker has started.  fn(j + window) starts only once the caller has
    taken fn(j) and asked for the next, so j % window can name a slot.
    At the end, on an exception from fn or on close(), calls not started
    are cancelled and the workers joined: a caller that can stop early
    runs it under contextlib.closing.
    """
    entropy = np.random.SeedSequence(seed).entropy

    def call(j):
        child = np.random.SeedSequence(entropy, spawn_key=(j,))
        return fn(j, np.random.Generator(np.random.SFC64(child)))

    workers = min(cores(), count) - 1
    if workers < 1:
        yield from map(call, range(count))
        return
    from concurrent.futures import Future, ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers)
    try:
        ahead = [pool.submit(call, j) for j in range(min(window, count))]
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
