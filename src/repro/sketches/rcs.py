"""Randomized Counter Sharing (RCS).

Related work on the speed axis [21, Li, Chen & Ling]: "Randomized
Counter Sharing uses multiple hash functions but only updates a random
one."  Each item owns a *storage vector* of ``l`` counters drawn from
one shared pool of ``m`` counters; an update increments exactly one of
them, chosen uniformly, so the per-packet cost is a single counter
touch regardless of ``l``.

Queries use the CSM estimator from that paper: the sum of an item's
storage vector counts the item's full frequency plus background noise
whose expectation is ``l * (N - f_x) / m ~= l * N / m``, so

    f_hat = sum(vector) - l * N / m.

The estimate is (approximately) unbiased but can go negative for mice;
we leave that to the caller, as metrics like NRMSE expect the raw
estimator.
"""

from __future__ import annotations

import random

from repro.hashing import HashFamily
from repro.sketches.base import BatchOpsMixin, StreamModel


class RandomizedCounterSharing(BatchOpsMixin):
    """RCS with a flat counter pool and CSM sum estimation.

    Parameters
    ----------
    m:
        Pool size: total number of counters (power of two).
    l:
        Storage-vector length per item (the paper uses ~50; smaller
        values trade accuracy for per-item state).
    seed:
        Seeds the vector hashing and the per-update counter choice.

    Examples
    --------
    >>> rcs = RandomizedCounterSharing(m=1 << 14, l=8, seed=5)
    >>> for _ in range(1000):
    ...     rcs.update(3)
    >>> 500 < rcs.query(3) < 1500
    True
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, m: int, l: int = 16, seed: int = 0):
        if m < 2 or m & (m - 1):
            raise ValueError(f"m must be a power of two >= 2, got {m}")
        if l < 1 or l > m:
            raise ValueError(f"l must be in [1, m], got {l}")
        self.m = m
        self.l = l
        # One hash "row" per storage-vector slot, all indexing the
        # shared pool.
        self.hashes = HashFamily(l, seed)
        self._rng = random.Random(seed ^ 0x9C5)
        self._pool = [0] * m
        self.n = 0

    def _vector(self, item: int) -> list[int]:
        """The item's ``l`` pool indices."""
        return self.hashes.indexes(item, self.m)

    def update(self, item: int, value: int = 1) -> None:
        """Add ``value`` to one uniformly chosen vector counter."""
        if value <= 0:
            raise ValueError("RCS is Cash-Register-only")
        self.n += value
        slot = self._rng.randrange(self.l)
        col = self.hashes.index(item, slot, self.m)
        self._pool[col] += value

    def query(self, item: int) -> float:
        """CSM estimate: vector sum minus expected background noise."""
        total = sum(self._pool[col] for col in self._vector(item))
        return total - self.l * self.n / self.m

    def vector_sum(self, item: int) -> int:
        """Raw (un-debiased) storage-vector sum; an over-estimate."""
        return sum(self._pool[col] for col in self._vector(item))

    @property
    def memory_bytes(self) -> int:
        """``m`` 32-bit counters."""
        return self.m * 4

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomizedCounterSharing(m={self.m}, l={self.l})"
