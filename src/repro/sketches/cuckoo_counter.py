"""Cuckoo Counter: cuckoo-hashed per-flow entries with small counters.

Reference [47, Qi et al.], the paper's example of the "simply use small
counters" school that Fig 6 argues against.  Flows get *exact* entries
(fingerprint + counter) in a two-choice cuckoo hash table; most entries
carry a small (8-bit) counter, and a flow that outgrows it is promoted
to one of the bucket's few wide (32-bit) slots.  Compared to a sketch
there are no collisions -- but a full table must evict, and evicted
flows lose their counts (queried as 0), which is the failure mode the
extension bench ``ext_cuckoo`` measures against SALSA at equal memory.

Layout per bucket: ``small_slots`` entries of (12-bit fingerprint,
8-bit counter) and ``wide_slots`` entries of (12-bit fingerprint,
32-bit counter).  An insert tries both candidate buckets, then kicks
resident small entries partial-key-cuckoo-style up to ``max_kicks``
times.
"""

from __future__ import annotations

import random

from repro.hashing import mix64
from repro.sketches.base import BatchOpsMixin, StreamModel

_FP_BITS = 12
_SMALL_CAP = (1 << 8) - 1


class _Entry:
    """One table entry: fingerprint, count, and width class."""

    __slots__ = ("fingerprint", "count", "wide")

    def __init__(self, fingerprint: int, count: int = 0, wide: bool = False):
        self.fingerprint = fingerprint
        self.count = count
        self.wide = wide


class CuckooCounter(BatchOpsMixin):
    """Two-choice cuckoo table of exact flow counters.

    Parameters
    ----------
    buckets:
        Number of buckets (power of two).
    small_slots, wide_slots:
        Per-bucket slot counts for 8-bit and 32-bit entries.
    max_kicks:
        Eviction-chain length before an entry is dropped.
    seed:
        Hash seed.

    Examples
    --------
    >>> cc = CuckooCounter(buckets=1 << 10, seed=4)
    >>> for _ in range(300):
    ...     cc.update(11)
    >>> cc.query(11)   # grew past 255, promoted to a wide slot
    300
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, buckets: int, small_slots: int = 4,
                 wide_slots: int = 1, max_kicks: int = 32, seed: int = 0):
        if buckets < 2 or buckets & (buckets - 1):
            raise ValueError(
                f"buckets must be a power of two >= 2, got {buckets}")
        self.buckets = buckets
        self.small_slots = small_slots
        self.wide_slots = wide_slots
        self.max_kicks = max_kicks
        self.seed = seed
        self._rng = random.Random(seed ^ 0xC0C0)
        self._small: list[list[_Entry]] = [[] for _ in range(buckets)]
        self._wide: list[list[_Entry]] = [[] for _ in range(buckets)]
        self.n = 0
        #: Stream volume lost to evicted entries.
        self.dropped_volume = 0

    # ------------------------------------------------------------------
    def _fingerprint(self, item: int) -> int:
        fp = mix64(item ^ mix64(self.seed)) & ((1 << _FP_BITS) - 1)
        return fp or 1  # 0 is reserved for "empty"

    def _bucket1(self, item: int) -> int:
        return mix64(item ^ mix64(self.seed + 1)) & (self.buckets - 1)

    def _alt_bucket(self, bucket: int, fingerprint: int) -> int:
        # Partial-key cuckoo: the alternate is derived from the
        # fingerprint alone so kicked entries can move without the key.
        return (bucket ^ mix64(fingerprint)) & (self.buckets - 1)

    def _find(self, item: int) -> tuple[_Entry | None, int]:
        """Locate the item's entry; returns ``(entry, bucket)``."""
        fp = self._fingerprint(item)
        b1 = self._bucket1(item)
        for bucket in (b1, self._alt_bucket(b1, fp)):
            for entry in self._small[bucket]:
                if entry.fingerprint == fp:
                    return entry, bucket
            for entry in self._wide[bucket]:
                if entry.fingerprint == fp:
                    return entry, bucket
        return None, b1

    def _promote(self, bucket: int, entry: _Entry) -> bool:
        """Move a saturated small entry into a wide slot if one is free."""
        for candidate in (bucket, self._alt_bucket(bucket, entry.fingerprint)):
            if len(self._wide[candidate]) < self.wide_slots:
                self._small[bucket].remove(entry)
                entry.wide = True
                self._wide[candidate].append(entry)
                return True
        return False

    def _insert(self, item: int) -> _Entry:
        """Place a fresh entry, kicking residents as needed."""
        fp = self._fingerprint(item)
        b1 = self._bucket1(item)
        b2 = self._alt_bucket(b1, fp)
        entry = _Entry(fp)
        for bucket in (b1, b2):
            if len(self._small[bucket]) < self.small_slots:
                self._small[bucket].append(entry)
                return entry
        # Both candidates full: start a kick chain.  ``pending`` is the
        # entry currently without a slot, headed for ``bucket``.
        bucket = self._rng.choice((b1, b2))
        pending = entry
        for _ in range(self.max_kicks):
            victim = self._rng.choice(self._small[bucket])
            self._small[bucket].remove(victim)
            self._small[bucket].append(pending)
            pending = victim
            bucket = self._alt_bucket(bucket, pending.fingerprint)
            if len(self._small[bucket]) < self.small_slots:
                self._small[bucket].append(pending)
                return entry
        # Chain exhausted: the last victim is evicted and its volume lost.
        self.dropped_volume += pending.count
        return entry

    # ------------------------------------------------------------------
    def update(self, item: int, value: int = 1) -> None:
        """Add ``value`` to the item's entry, inserting if needed."""
        if value <= 0:
            raise ValueError("Cuckoo Counter is Cash-Register-only")
        self.n += value
        entry, bucket = self._find(item)
        if entry is None:
            entry = self._insert(item)
            # Re-locate: the kick chain may have moved the entry.
            entry2, bucket = self._find(item)
            if entry2 is not entry:  # pragma: no cover - defensive
                entry = entry2 if entry2 is not None else entry
        entry.count += value
        if not entry.wide and entry.count > _SMALL_CAP:
            if not self._promote(bucket, entry):
                entry.count = _SMALL_CAP  # saturate like Fig 6's counters

    def query(self, item: int) -> int:
        """Exact count, or 0 for evicted/unseen flows."""
        entry, _bucket = self._find(item)
        return entry.count if entry is not None else 0

    @property
    def load(self) -> float:
        """Fraction of small slots occupied."""
        used = sum(len(slots) for slots in self._small)
        return used / (self.buckets * self.small_slots)

    @property
    def memory_bytes(self) -> int:
        """Allocated table bits: both slot classes, fingerprints included."""
        small_bits = self.buckets * self.small_slots * (_FP_BITS + 8)
        wide_bits = self.buckets * self.wide_slots * (_FP_BITS + 32)
        return (small_bits + wide_bits + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CuckooCounter(buckets={self.buckets}, "
                f"small={self.small_slots}, wide={self.wide_slots})")
