"""SALSA-CUS batch ingest vs the per-item walk, on both row engines.

``SalsaConservativeUpdate.update_many`` runs a batch as fused,
conflict-free waves (vector engine) or as the run-fused reference walk
(bit-packed engine).  Either way every row must end bit-identical to
the per-item ``update`` loop: values, merge levels, ``merge_events``
and ``saturations``.  The streams below aim at each part of the
schedule: fusion across non-adjacent repeats, dirty superblocks that
merge mid-batch, saturation at ``max_bits``, and counters above 2^63
where wave arithmetic must stay in uint64.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SalsaConservativeUpdate
from repro.sketches._kernels import stable_argsort

ENGINES = ("bitpacked", "vector")
CHUNKS = (0, 1, 2, 37, 256, 700)


def row_states(sketch):
    """Every observable of every row."""
    return [([row.read(j) for j in range(row.w)],
             [row.level_of(j) for j in range(row.w)],
             row.merge_events, row.saturations)
            for row in sketch.rows]


def _streams():
    rng = np.random.default_rng(29)
    n = 2500
    hot = np.where(rng.random(n) < 0.7, 42, rng.integers(0, 200, n))
    pattern = np.array([1, 2, 3, 1, 4, 2, 5, 1, 6, 3])
    return {
        # (sketch kwargs, items, values, per-item preload)
        "hot-key": (dict(w=256, d=4), hot, np.ones(n, dtype=np.int64), []),
        # Repeats of a key separated by other keys: fusion must fold
        # them across the gap, never across a shared counter.
        "interleaved": (dict(w=256, d=3), np.tile(pattern, n // 10),
                        rng.integers(1, 6, n), []),
        # Few slots, heavy weights: most superblocks go dirty and merge.
        "dirty-heavy": (dict(w=64, d=4), rng.integers(0, 300, n),
                        rng.integers(1, 60, n), []),
        # 16-bit counters: repeats saturate, and each one counts.
        "saturating": (dict(w=32, d=2, max_bits=16),
                       np.where(rng.random(n) < 0.5, 5,
                                rng.integers(0, 40, n)),
                       rng.integers(1, 5000, n), []),
        # Counters above 2^63, and a few so close to 2^64 that their
        # uint64 targets would wrap.
        "near-2^64": (dict(w=1024, d=2), rng.integers(0, 300, n),
                      rng.integers(1, 1 << 20, n),
                      [(x, (1 << 63) + (x << 40)) for x in range(0, 300, 5)]
                      + [(x, (1 << 64) - (x << 10))
                         for x in range(1, 300, 50)]),
    }


STREAMS = _streams()


def _fed(engine, stream, chunk):
    """(per-item reference, batched) sketches fed ``stream``."""
    kwargs, items, values, preload = STREAMS[stream]
    items = np.asarray(items, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    reference, batched = (SalsaConservativeUpdate(s=8, seed=3, engine=engine,
                                                  **kwargs)
                          for _ in range(2))
    for sketch in (reference, batched):
        for x, v in preload:
            sketch.update(x, v)
    for x, v in zip(items.tolist(), values.tolist()):
        reference.update(x, v)
    if chunk == 0:
        # Empty batches between per-item updates change nothing.
        for x, v in zip(items.tolist(), values.tolist()):
            batched.update_many(items[:0], values[:0])
            batched.update(x, v)
    else:
        for start in range(0, len(items), chunk):
            batched.update_many(items[start:start + chunk],
                                values[start:start + chunk])
    return reference, batched


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("engine", ENGINES)
def test_update_many_lockstep_with_per_item(engine, stream, chunk):
    reference, batched = _fed(engine, stream, chunk)
    assert row_states(batched) == row_states(reference)


def test_streams_reach_what_they_aim_at():
    """The streams really merge, saturate and pass 2^63."""
    reference, _ = _fed("vector", "saturating", 1)
    assert min(row.saturations for row in reference.rows) > 10
    reference, _ = _fed("vector", "dirty-heavy", 1)
    assert min(row.merge_events for row in reference.rows) > 10
    reference, _ = _fed("vector", "near-2^64", 1)
    values = [row.read(j) for row in reference.rows for j in range(row.w)]
    assert max(values) == (1 << 64) - 1 and any(
        (1 << 63) < v < (1 << 64) - (1 << 40) for v in values)


@pytest.mark.parametrize("engine", ENGINES)
def test_saturating_repeats_count_every_saturation(engine):
    """Three saturating updates of one key saturate three times, also
    when they arrive in one batch (fusion must not merge them)."""
    per_item = SalsaConservativeUpdate(w=64, d=2, s=8, max_bits=16, seed=1,
                                       engine=engine)
    for _ in range(3):
        per_item.update(5, 70000)
    batched = SalsaConservativeUpdate(w=64, d=2, s=8, max_bits=16, seed=1,
                                      engine=engine)
    batched.update_many([5] * 3, [70000] * 3)
    assert [row.saturations for row in per_item.rows] == [3, 3]
    assert row_states(batched) == row_states(per_item)


@settings(max_examples=60, deadline=None)
@given(engine=st.sampled_from(ENGINES),
       w=st.sampled_from([16, 64, 1024]),
       d=st.integers(1, 4),
       max_bits=st.sampled_from([16, 32, 64]),
       stream=st.lists(st.tuples(st.integers(0, 300),
                                 st.sampled_from([1, 2, 7, 300, 9000])),
                       max_size=300),
       chunk=st.integers(1, 120))
def test_random_streams_lockstep(engine, w, d, max_bits, stream, chunk):
    reference, batched = (SalsaConservativeUpdate(
        w=w, d=d, s=8, max_bits=max_bits, seed=11, engine=engine)
        for _ in range(2))
    for x, v in stream:
        reference.update(x, v)
    items = np.array([x for x, _ in stream], dtype=np.int64)
    values = np.array([v for _, v in stream], dtype=np.int64)
    for start in range(0, len(stream), chunk):
        batched.update_many(items[start:start + chunk],
                            values[start:start + chunk])
    assert row_states(batched) == row_states(reference)


@pytest.mark.parametrize("bound", [1 << 10, 1 << 16, (1 << 16) + 1, 1 << 40])
def test_stable_argsort_matches_the_int64_sort(bound):
    keys = np.random.default_rng(3).integers(0, min(bound, 50), 5000)
    assert np.array_equal(stable_argsort(keys, bound),
                          np.argsort(keys, kind="stable"))
