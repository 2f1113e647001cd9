"""SALSA Conservative Update Sketch (section V, Theorem V.3).

Same conservative rule as CUS -- on ``<x, v>`` each counter rises to
``max(counter, v + f̂_x)`` -- over max-merge SALSA rows.  Theorem V.3
shows by induction that every SALSA counter stays bounded by the
corresponding counter of the underlying coarse CUS, so

    f_x <= f̂_SALSA-CUS(x) <= f̂_CUS(x).
"""

from __future__ import annotations

import numpy as np

from repro.hashing import HashFamily, mix64
from repro.core.engines import VectorRowEngine
from repro.core.row import MAX, SIMPLE, SalsaRow, row_gather
from repro.sketches.base import (
    BatchOpsMixin,
    StreamModel,
    batch_door,
    batched_min_query,
    width_for_memory,
)
from repro.sketches._kernels import conservative_schedule


class SalsaConservativeUpdate(BatchOpsMixin):
    """SALSA CUS (Cash Register, max-merge by necessity).

    Examples
    --------
    >>> sk = SalsaConservativeUpdate(w=1024, d=4, seed=1)
    >>> for _ in range(300):
    ...     sk.update(42)
    >>> sk.query(42) >= 300
    True
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int, d: int = 4, s: int = 8,
                 encoding: str = SIMPLE, max_bits: int = 64, seed: int = 0,
                 hash_family: HashFamily | None = None,
                 engine: str | None = None):
        self.w = w
        self.d = d
        self.s = s
        self.hashes = hash_family if hash_family is not None else HashFamily(d, seed)
        self.rows = [
            SalsaRow(w=w, s=s, max_bits=max_bits, merge=MAX,
                     encoding=encoding, engine=engine)
            for _ in range(d)
        ]
        self.engine_name = self.rows[0].engine_name

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, s: int = 8,
                   encoding: str = SIMPLE, seed: int = 0,
                   engine: str | None = None) -> "SalsaConservativeUpdate":
        """Largest SALSA CUS fitting in ``memory_bytes``."""
        overhead = 1.0 if encoding == SIMPLE else 0.594
        w = width_for_memory(memory_bytes, d, s, overhead_bits=overhead)
        return cls(w=w, d=d, s=s, encoding=encoding, seed=seed,
                   engine=engine)

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Conservative update over self-adjusting counters."""
        if value <= 0:
            raise ValueError(
                f"SALSA CUS is a Cash Register sketch; got value {value}"
            )
        mask = self.w - 1
        idxs = [mix64(item ^ seed) & mask for seed in self.hashes.seeds]
        est = min(row.read(idx) for row, idx in zip(self.rows, idxs))
        target = est + value
        for row, idx in zip(self.rows, idxs):
            row.set_at_least(idx, target)

    def query(self, item: int) -> int:
        """Minimum over rows."""
        mask = self.w - 1
        est = None
        for row, seed in zip(self.rows, self.hashes.seeds):
            v = row.read(mix64(item ^ seed) & mask)
            if est is None or v < est:
                est = v
        return est

    # ------------------------------------------------------------------
    # batch pipeline
    # ------------------------------------------------------------------
    @batch_door(positive=True)
    def update_many(self, items, values) -> None:
        """Batched conservative update, bit-identical to the per-item
        walk (values, levels, ``merge_events`` and ``saturations``).

        The conservative rule couples rows through the pre-update
        minimum, so only updates touching disjoint counters in every
        row may reorder.  Vector-engine rows run the batch through
        :func:`~repro.sketches._kernels.conservative_schedule`:

        * *keys* -- in a superblock that
          ``plan_add_batch(...).dirty_mask`` proves merge-free, an
          update's key is its counter start; in a dirty superblock it
          is the whole superblock (``w + superblock id``), since a
          merge there can join any of its slots;
        * *fusion* -- repeats of an item fold into their previous
          occurrence when nothing in between shares a key with them
          in any row (never across a possible saturation: each
          saturating update counts once);
        * *waves* -- updates whose per-row predecessors are all done
          run as one step: gather, min, add and an ``np.maximum``
          store at the counter starts; a raise in a dirty superblock
          goes through ``SalsaRow.set_at_least``, which performs any
          merge or saturation;
        * *tail* -- the few updates left once waves turn narrow walk
          in stream order.

        Clean merged counters are read and written at their start
        slot only and re-expanded across their blocks at the end.  The
        bit-packed engine keeps the reference walk: consecutive
        repeats fuse under the same saturation guard, then one update
        at a time.
        """
        rows = self.rows
        idx_arrays = [self.hashes.index_many(items, row_id, self.w)
                      for row_id in range(self.d)]
        if all(isinstance(row.engine, VectorRowEngine) for row in rows):
            masks = [row.plan_add_batch(idxs, values).dirty_mask
                     for row, idxs in zip(rows, idx_arrays)]
            self._schedule(items, values, idx_arrays, masks)
            return
        level_top = rows[0].max_level
        sbs = [idxs >> level_top for idxs in idx_arrays]
        touched = [np.zeros(self.w >> level_top, dtype=bool) for _ in sbs]
        for mask, sb in zip(touched, sbs):
            mask[sb] = True
        fusable = self._fusable(values, sbs, touched)
        keep = np.empty(len(items), dtype=bool)
        keep[0] = True
        np.not_equal(items[1:], items[:-1], out=keep[1:])
        if fusable is not None:
            keep |= ~fusable
        heads = np.flatnonzero(keep)
        idx_rows = [idxs[heads].tolist() for idxs in idx_arrays]
        for t, v in enumerate(np.add.reduceat(values, heads).tolist()):
            idxs = [idx_row[t] for idx_row in idx_rows]
            est = min(row.read(j) for row, j in zip(rows, idxs))
            target = est + v
            for row, j in zip(rows, idxs):
                row.set_at_least(j, target)

    def _fusable(self, values, sbs, masks):
        """Which updates may fuse: False for each update that lands, in
        some row ``r``, in a superblock flagged by ``masks[r]`` (None:
        none) whose counters could reach the max-level field limit
        within the batch (``RowEngine.may_saturate``), since each
        saturating update counts once.  ``sbs[r]`` holds each update's
        superblock.  Returns None when every update may fuse."""
        fusable = None
        batch = int(values.sum())
        for row, sb, mask in zip(self.rows, sbs, masks):
            if mask is None:
                continue
            ids = np.flatnonzero(mask)
            # The whole batch landing in one superblock: usually safe.
            if not row.engine.may_saturate(
                    ids, np.full(ids.size, batch, dtype=np.int64)).any():
                continue
            inflow = np.zeros(mask.size, dtype=np.int64)
            np.add.at(inflow, sb, values)
            risky = np.zeros(mask.size, dtype=bool)
            risky[ids] = row.engine.may_saturate(ids, inflow[ids])
            if risky.any():
                bad = risky[sb]
                fusable = ~bad if fusable is None else fusable & ~bad
        return fusable

    def _schedule(self, items, values, idx_arrays, masks) -> None:
        """The vector-engine wave schedule of :meth:`update_many`."""
        rows = self.rows
        level_top = rows[0].max_level
        keys, reads, dirty, sbs = [], [], [], []
        for row, idxs, mask in zip(rows, idx_arrays, masks):
            starts = row.engine.starts[idxs]
            if mask is None:
                keys.append(starts)
                reads.append(starts)
                dirty.append(None)
                sbs.append(None)
                continue
            sb = idxs >> level_top
            hit = mask[sb]
            sbs.append(sb)
            keys.append(np.where(hit, self.w + sb, starts))
            # A dirty block keeps its value on every slot (the engine
            # writes whole blocks), so it is read at the slot itself.
            reads.append(np.where(hit, idxs, starts))
            dirty.append(hit)
        stores = [row.engine.values for row in rows]
        per_row = list(zip(rows, reads, dirty, stores))

        def wave(pos, vals):
            slots = [read[pos] for read in reads]
            cur = [store[j] for store, j in zip(stores, slots)]
            est = cur[0]
            for c in cur[1:]:
                est = np.minimum(est, c)
            # No wrap: an update with a clean row has uint64 room there.
            target = est + vals.astype(np.uint64)
            for (row, _read, hit, store), j, c in zip(per_row, slots, cur):
                k = () if hit is None else np.flatnonzero(hit[pos])
                if not len(k):
                    store[j] = np.maximum(c, target)
                    continue
                clean = ~hit[pos]
                store[j[clean]] = np.maximum(c[clean], target[clean])
                # The wave's raises touch distinct superblocks, and
                # every read above is done: they may go in any order.
                for i in k.tolist():
                    value = int(est[i]) + int(vals[i])
                    if int(c[i]) < value:
                        row.set_at_least(int(j[i]), value)

        def walk(pos, vals):
            lanes = [(row, read[pos].tolist(),
                      None if hit is None else hit[pos].tolist(), store)
                     for row, read, hit, store in per_row]
            for k, v in enumerate(vals.tolist()):
                cur = [int(store[read[k]])
                       for _row, read, _hit, store in lanes]
                target = min(cur) + v
                for (row, read, hit, store), c in zip(lanes, cur):
                    if c >= target:
                        continue
                    if hit is not None and hit[k]:
                        row.set_at_least(read[k], target)
                    else:
                        store[read[k]] = target

        conservative_schedule(keys, self.w + (self.w >> level_top), items,
                              values, wave, walk,
                              self._fusable(values, sbs, masks))
        for row, store in zip(rows, stores):
            store[:] = store[row.engine.starts]

    def query_many(self, items) -> list:
        """Batched query: deduped keys, one hash call per row."""
        return batched_min_query(items,
                                 row_gather(self.rows, self.hashes, self.w))

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Payload plus merge-encoding overhead."""
        return sum((row.memory_bits + 7) // 8 for row in self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SalsaConservativeUpdate(w={self.w}, d={self.d}, s={self.s})"
