"""Matrix batch kernels for fixed-width ``d x w`` counter sketches.

The fixed-width competitor family (Count-Min, Count Sketch, and the
sketches built from them: Elastic's light part, Cold Filter's stage 1,
UnivMon's level sketches, NitroSketch's rows) all share one physical
shape: a ``d x w`` matrix of counters where an update touches one
column per row and a query gathers one column per row.  This module is
the single vectorized datapath for that shape -- every primitive takes
*stacked* per-row indices (a ``(d, n)`` matrix built from one
:func:`~repro.hashing.mix64_many` call over all rows at once) and
performs the whole batch in a constant number of NumPy operations:

* :func:`scatter_add_capped` -- saturating Count-Min-style bulk add
  (one ``np.add.at`` over the flattened matrix for all rows);
* :func:`scatter_add_signed` -- Count-Sketch-style signed bulk add
  behind a per-row clamp guard (rows that could clamp are *not*
  applied and reported back for an exact ordered replay);
* :func:`scatter_add_running` -- ordered bulk add that also returns the
  post-update value of each touched counter (the on-arrival door:
  exact intermediate estimates without a per-item loop);
* :func:`gather_2d` / :func:`signed_votes` / :func:`min_over_rows` /
  :func:`median_over_rows` -- the query-side gathers and row
  aggregations (:func:`repro.sketches.base.batched_min_query` and
  :func:`~repro.sketches.base.batched_median_query` reduce with the
  latter two);
* :func:`conservative_schedule` -- the conservative-update door, shared
  by the fixed-width CUS and SALSA-CUS rows: exact repeat fusion, then
  conflict-free waves the sketch runs as vector steps, then a short
  stream-order tail;
* :func:`stable_argsort` -- the stable key sort behind that schedule
  and the SALSA rows' dirty replay, radix-sorting narrow keys.

The duplicate pre-aggregation front door is shared with the rest of
the batch pipeline: callers dedup keys with
:func:`repro.sketches.base.aggregate_batch` *before* building the
index matrix, so the kernels only ever see unique keys per batch.
Everything here preserves the batch contract (bit-identity with the
per-item walk); which batches may reach a kernel is decided by the
sketches' :func:`repro.sketches.base.batch_door` guards.
"""

from __future__ import annotations

import numpy as np


def flat_indices(idx2d: np.ndarray, w: int) -> np.ndarray:
    """Flatten a ``(d, n)`` column-index matrix into indices of the
    raveled ``d x w`` matrix (row ``r`` occupies ``[r*w, (r+1)*w)``)."""
    d = idx2d.shape[0]
    offsets = (np.arange(d, dtype=np.int64) * w)[:, None]
    return (idx2d + offsets).ravel()


def gather_2d(mat: np.ndarray, idx2d: np.ndarray) -> np.ndarray:
    """Counter values at ``idx2d``: a ``(d, n)`` gather in one shot."""
    return mat.ravel()[flat_indices(idx2d, mat.shape[1])].reshape(idx2d.shape)


def signed_votes(mat: np.ndarray, raw2d: np.ndarray) -> np.ndarray:
    """Count-Sketch row votes: each key's counter in every row, signed
    by the top bit of its ``(d, n)`` raw hash (bit set = positive)."""
    idx2d = (raw2d & np.uint64(mat.shape[1] - 1)).astype(np.int64)
    vals = gather_2d(mat, idx2d)
    return np.where(raw2d >> np.uint64(63), vals, -vals)


def min_over_rows(values2d: np.ndarray) -> np.ndarray:
    """Count-Min query aggregation: the minimum across rows."""
    return values2d.min(axis=0)


def median_over_rows(votes2d: np.ndarray) -> np.ndarray:
    """Count-Sketch query aggregation, replicating
    :func:`repro.sketches.base.median` exactly: the middle row for odd
    ``d`` (same dtype as the votes), the mean of the two middle rows
    for even ``d`` (float).  Sorts a copy; the input is not modified.
    """
    votes = np.sort(votes2d, axis=0)
    d = votes.shape[0]
    mid = d // 2
    if d % 2:
        return votes[mid]
    lo, hi = votes[mid - 1], votes[mid]
    if votes.dtype.kind == "i" and (int(hi.max()) >= 1 << 62
                                    or int(lo.min()) <= -(1 << 62)):
        # The int64 sum could wrap: add as Python ints, as median does.
        lo, hi = lo.astype(object), hi.astype(object)
    return (lo + hi) / 2


def _aggregate_flat(flat: np.ndarray, deltas: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate flat indices: ``(unique_flat, summed_deltas)``."""
    uidx, inv = np.unique(flat, return_inverse=True)
    agg = np.zeros(len(uidx), dtype=np.int64)
    np.add.at(agg, inv, deltas)
    return uidx, agg


def scatter_add_capped(mat: np.ndarray, idx2d: np.ndarray,
                       sums: np.ndarray, cap: int) -> None:
    """Saturating bulk add of per-key ``sums`` into every row at once.

    Exact for non-negative inflows because the cap is absorbing: the
    final value of a counter receiving total inflow ``t`` is
    ``min(cap, old + t)`` regardless of arrival order.  Callers
    guarantee ``sums >= 0`` and that the batch total fits int64
    (:func:`repro.sketches.base.batch_sum_fits`).
    """
    w = mat.shape[1]
    flat = flat_indices(idx2d, w)
    deltas = np.broadcast_to(sums, idx2d.shape).ravel()
    uidx, agg = _aggregate_flat(flat, deltas)
    view = mat.reshape(-1)
    view[uidx] = np.minimum(cap, view[uidx] + agg)


def scatter_add_signed(mat: np.ndarray, idx2d: np.ndarray,
                       signed2d: np.ndarray, mags: np.ndarray,
                       lo: int, hi: int) -> np.ndarray:
    """Signed bulk add behind a per-row clamp guard.

    ``signed2d[(r, i)]`` is the key's signed delta in row ``r``;
    ``mags`` its absolute inflow (sign-free, shared by all rows).  A
    row is applied only when every touched counter provably stays in
    ``[lo, hi]`` under the worst-case prefix (``old +/- total |inflow|``
    in range); the returned boolean array marks the rows that were
    *skipped* so the caller can replay them in exact stream order.
    """
    d, _ = idx2d.shape
    w = mat.shape[1]
    flat = flat_indices(idx2d, w)
    uidx, inv = np.unique(flat, return_inverse=True)
    agg = np.zeros(len(uidx), dtype=np.int64)
    np.add.at(agg, inv, signed2d.ravel())
    mag = np.zeros(len(uidx), dtype=np.int64)
    np.add.at(mag, inv, np.broadcast_to(mags, idx2d.shape).ravel())
    view = mat.reshape(-1)
    old = view[uidx]
    risky = (old + mag > hi) | (old - mag < lo)
    deferred = np.zeros(d, dtype=bool)
    deferred[np.unique(uidx[risky] // w)] = True
    safe = ~deferred[uidx // w]
    view[uidx[safe]] = old[safe] + agg[safe]
    return deferred


def scatter_add_running(mat: np.ndarray, idx2d: np.ndarray,
                        deltas2d: np.ndarray) -> np.ndarray:
    """Ordered bulk add returning each update's post-update value.

    Applies ``deltas2d`` in stream order per counter and returns the
    ``(d, n)`` matrix of counter values *immediately after* each
    update -- the exact intermediate states an on-arrival per-item
    walk would observe.  Callers must rule out clamping beforehand
    (no saturation may fire mid-batch); with pure additions, the value
    after occurrence ``t`` of a counter is its start value plus the
    prefix sum of its own deltas, computed here with one stable sort
    and one cumulative sum over the whole ``d x n`` batch.
    """
    d, n = idx2d.shape
    w = mat.shape[1]
    flat = flat_indices(idx2d, w)
    deltas = deltas2d.ravel()
    order = np.argsort(flat, kind="stable")
    fs = flat[order]
    cs = np.cumsum(deltas[order])
    total = d * n
    starts = np.empty(total, dtype=bool)
    starts[0] = True
    np.not_equal(fs[1:], fs[:-1], out=starts[1:])
    start_pos = np.flatnonzero(starts)
    group_id = np.cumsum(starts) - 1
    base = np.empty(len(start_pos), dtype=cs.dtype)
    base[0] = 0
    base[1:] = cs[start_pos[1:] - 1]
    view = mat.reshape(-1)
    run_sorted = view[fs] + (cs - base[group_id])
    ends = np.empty(len(start_pos), dtype=np.int64)
    ends[:-1] = start_pos[1:] - 1
    ends[-1] = total - 1
    view[fs[start_pos]] = run_sorted[ends]
    running = np.empty(total, dtype=run_sorted.dtype)
    running[order] = run_sorted
    return running.reshape(d, n)


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integer keys in ``[0, bound)``.

    Keys below ``2^16`` sort as uint16, which NumPy radix-sorts
    (several times faster than its int64 merge sort on a batch of
    thousands); stability makes the order identical either way.
    """
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


#: A wave narrower than this ends the vectorised schedule: walking the
#: updates left in Python costs less than a vector step per few of them.
_NARROW_WAVE = 16


def _predecessors(key: np.ndarray, order: np.ndarray) -> np.ndarray:
    """For each entry, the last earlier entry with the same key (-1 if
    none), given ``order``, the stable key order."""
    ks = key[order]
    prev = np.empty(order.size, dtype=np.int64)
    prev[order[0]] = -1
    prev[order[1:]] = np.where(ks[1:] == ks[:-1], order[:-1], -1)
    return prev


def conservative_schedule(keys, bound: int, items: np.ndarray,
                          values: np.ndarray, wave, walk,
                          fusable=None) -> None:
    """Run a conservative-update batch as fused, conflict-free waves.

    ``keys[r][t]`` (in ``[0, bound)``) names what update ``t`` touches
    in row ``r``: updates sharing a key in some row conflict and keep
    their stream order; updates sharing none touch disjoint counters
    and commute.  The schedule is a topological order of the conflicts,
    so it is bit-identical to the stream-order walk:

    1. *Fusion.*  Update ``t`` folds into the previous update of its
       item when, in every row, that update is the last earlier one
       with ``t``'s key: the updates in between commute with ``t``, and
       ``update(x, a); update(x, b) == update(x, a + b)``.  Updates
       with ``fusable[t]`` False never fold.  A chain of folds is a run
       of row 0's stable key order, so one segmented sum fuses it.
    2. *Waves.*  ``wave(pos, vals)`` runs every remaining update whose
       per-row predecessors are all done: at most one per key per row,
       so its updates touch disjoint counters and run as one step.
    3. *Tail.*  Once a wave is narrower than :data:`_NARROW_WAVE`,
       ``walk(pos, vals)`` takes every update left, in stream order;
       that set holds every later dependent of its members.

    ``pos`` are the ascending stream positions of the fused updates
    and ``vals`` their summed values.
    """
    n = len(items)
    orders = [stable_argsort(key, bound) for key in keys]
    prevs = [_predecessors(key, order) for key, order in zip(keys, orders)]
    prev = prevs[0]
    fold = (prev >= 0) & (items[prev] == items)
    for other in prevs[1:]:
        fold &= other == prev
    if fusable is not None:
        fold &= fusable
    # A chain of folds is a run of row 0's key order: its head is the
    # root, which takes the run's summed value.
    head = ~fold[orders[0]]
    heads = np.flatnonzero(head)
    roots = orders[0][heads]
    # root[t]: the update t folds into (slot n stands for "none").
    root = np.empty(n + 1, dtype=np.int64)
    root[orders[0]] = roots[np.cumsum(head) - 1]
    root[n] = n
    is_root = np.zeros(n, dtype=bool)
    is_root[roots] = True
    pos = np.flatnonzero(is_root)
    m = pos.size
    rank = np.empty(n + 1, dtype=np.int64)
    rank[pos] = np.arange(m)
    rank[n] = m
    summed = np.zeros(n, dtype=np.int64)
    summed[roots] = np.add.reduceat(values[orders[0]], heads)
    vals = summed[pos]
    # Root i's predecessor in row r (m: none) is the root that its
    # last earlier same-key update folded into: nothing between a root
    # and its folded repeats shares their keys.
    preds = [rank[root[prev[pos]]] for prev in prevs]
    done = np.zeros(m + 1, dtype=bool)
    done[m] = True
    pending = np.arange(m)
    while pending.size:
        ready = done[preds[0][pending]]
        for pred in preds[1:]:
            ready &= done[pred[pending]]
        batch = pending[ready]
        if batch.size < _NARROW_WAVE:
            walk(pos[pending], vals[pending])
            return
        wave(pos[batch], vals[batch])
        done[batch] = True
        pending = pending[~ready]
