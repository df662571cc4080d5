import sys
import threading
import tracemalloc
from contextlib import closing

import numpy as np
import pytest

from qcoupling import _chunks


def _stream_value(seed, j):
    # the first uniform of chunk j's stream, from the j-th spawned child
    child = np.random.SeedSequence(seed).spawn(j + 1)[j]
    return np.random.Generator(np.random.SFC64(child)).random()


@pytest.fixture
def short_switch():
    # a chunk handed over before its call ends, or a slot reused while
    # the caller still holds it, shows with a 1 us switch interval
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _address(buf):
    return buf.__array_interface__["data"][0]


@pytest.mark.parametrize("width", [1, 7, 1 << 16, (1 << 16) + 1])
@pytest.mark.parametrize("rows", [1, _chunks.CHUNK - 1, _chunks.CHUNK + 1])
def test_chunks_partition_the_rows_in_order(monkeypatch, rows, width):
    # chunk j starts at j * step, step = max(1, CHUNK // width) rows, and
    # takes the j-th child stream; only the last chunk is shorter
    monkeypatch.setattr(_chunks, "cores", lambda: 1)
    step = max(1, _chunks.CHUNK // width)
    got = list(_chunks.in_order(
        lambda lo, rng, buf: (lo, buf.shape, rng.bit_generator.seed_seq),
        5, rows, width))
    assert [(lo, shape, seq.spawn_key) for lo, shape, seq in got] == [
        (lo, (min(step, rows - lo), width), (lo // step,))
        for lo in range(0, rows, step)]
    assert got[0][2].entropy == np.random.SeedSequence(5).entropy


@pytest.mark.parametrize("cores", [1, 2, 8])
@pytest.mark.parametrize("ring", [1, 2, 4, 4096])
def test_results_in_order_with_disjoint_slots(monkeypatch, short_switch,
                                              cores, ring):
    # rows of RING_VALUES // ring values, whole chunks of which fill the
    # cap ring times: at ring 1 the two-slot floor passes the cap, at 2
    # and 4 the cap binds on enough cores, and at 4096, chunks of 128
    # rows, two slots per thread bind
    monkeypatch.setattr(_chunks, "cores", lambda: cores)
    width = _chunks.RING_VALUES // ring
    step = max(1, _chunks.CHUNK // width)
    window = min(2 * cores, max(2, _chunks.RING_VALUES // (step * width)))
    lock, live, clashes = threading.Lock(), {}, []

    def fn(lo, rng, buf):
        # buf is live from the start of fn(lo) until the caller is done
        # with its result
        assert buf.shape == (min(step, rows - lo), width)
        with lock:
            clashes.extend(lo for other in live.values()
                           if np.shares_memory(buf, other))
            live[lo] = buf
        value = rng.random()
        rng.standard_normal(1000)
        return lo, value

    before = threading.active_count()
    for count in sorted({1, window - 1, window, window + 1, 5 * window + 3}):
        # count chunks, the last of one row
        rows = (count - 1) * step + 1
        taken = []
        for lo, value in _chunks.in_order(fn, 7, rows, width):
            taken.append((lo, value))
            with lock:
                del live[lo]
        assert taken == [(j * step, _stream_value(7, j)) for j in range(count)]
        assert clashes == []
        assert threading.active_count() == before


@pytest.mark.parametrize("cores", [1, 2, 8])
@pytest.mark.parametrize("width", [5, 1 << 18, 3 << 20],
                         ids=["small", "on-cap", "past-cap"])
def test_ring_stays_within_its_bounds(monkeypatch, cores, width):
    # at most 2 cores slots, and at most RING_VALUES values unless two
    # slots alone are more: the distinct buffers handed out, and what the
    # run allocates, say so; rows of 5 values come in chunks of CHUNK // 5
    # rows, wider rows one to a chunk
    monkeypatch.setattr(_chunks, "cores", lambda: cores)
    step = max(1, _chunks.CHUNK // width)
    values = step * width
    # a first run imports the thread pool, which tracemalloc would count
    list(_chunks.in_order(lambda lo, rng, buf: lo, 3, 4, _chunks.CHUNK))
    tracemalloc.start()
    try:
        seen = set(_chunks.in_order(lambda lo, rng, buf: _address(buf), 3,
                                    40 * step, width))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = len(seen)
    assert slots == min(2 * cores, max(2, _chunks.RING_VALUES // values))
    assert slots <= 2 * cores
    assert slots * values <= max(2 * values, _chunks.RING_VALUES)
    # 1 MiB for threads and futures, less than one slot of the large
    # cases, so a ring larger than the buffers handed out shows
    assert peak <= 8 * slots * values + 2**20


@pytest.mark.parametrize("cores", [1, 4])
def test_failure_in_fn_reaches_the_caller(monkeypatch, cores):
    # with workers, the calls the caller runs wait until a worker has
    # failed, so the failure comes from a worker
    monkeypatch.setattr(_chunks, "cores", lambda: cores)
    failed = threading.Event()

    def fn(lo, rng, buf):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker or cores == 1:
            failed.set()
            raise RuntimeError(f"call {lo} failed")
        assert failed.wait(10)
        return lo

    before = threading.active_count()
    with pytest.raises(RuntimeError, match="call .* failed"):
        for _ in _chunks.in_order(fn, 1, 20, _chunks.CHUNK):
            pass
    assert threading.active_count() == before


@pytest.mark.parametrize("cores", [1, 4])
def test_failure_in_the_callers_loop_leaves_no_worker(monkeypatch, cores):
    monkeypatch.setattr(_chunks, "cores", lambda: cores)
    calls = []

    def fn(lo, rng, buf):
        calls.append(lo)
        rng.standard_normal(10_000)
        return lo

    before = threading.active_count()
    with pytest.raises(ValueError, match="stop at 2"):
        with closing(_chunks.in_order(fn, 1, 50, _chunks.CHUNK)) as results:
            for j in results:
                if j == 2:
                    raise ValueError("stop at 2")
    assert threading.active_count() == before
    # no call past the window of the last one taken ever started: two
    # slots per thread
    assert max(calls) <= 2 + 2 * cores - 1


def test_caller_runs_the_calls_no_worker_started(monkeypatch):
    # one worker, held until the caller has run the other calls itself
    monkeypatch.setattr(_chunks, "cores", lambda: 2)
    release, on_main, waits = threading.Event(), [], []

    def fn(lo, rng, buf):
        if threading.current_thread() is threading.main_thread():
            on_main.append(lo)
            if len(on_main) == 3:
                release.set()
        else:
            waits.append(release.wait(2))
        return lo

    assert list(_chunks.in_order(fn, 1, 4, _chunks.CHUNK)) == [0, 1, 2, 3]
    assert len(on_main) >= 3 and all(waits)
