"""Counter Tree: a two-layer tree of shared small counters.

Reference [23, Chen & Chen, ICNP 2015] -- the paper's related-work
example of SRAM-focused designs whose "complex offline procedures ...
may be too slow for online applications".  Counter Tree arranges small
counters in a tree: each flow owns a *virtual counter* -- a chain from
a leaf to the root -- and counts modulo the leaf size, carrying
overflow upward into parent counters that are *shared* by all leaves
below them.

We implement the two-layer variant with online (not MLE) decoding:

* layer 0: ``w`` leaves of ``s`` bits; flows hash to leaves;
* layer 1: ``w / degree`` parents of ``2s`` bits; a leaf overflow
  increments its parent.

A query reconstructs ``leaf + 2^s * parent`` -- an over-estimate, since
the parent also accumulates carries from the leaf's siblings (that
sharing is the design's space saving *and* its noise source, the same
trade Pyramid makes with its shared MSBs).
"""

from __future__ import annotations

from array import array

from repro.hashing import HashFamily
from repro.sketches.base import BatchOpsMixin, StreamModel


class CounterTree(BatchOpsMixin):
    """Two-layer counter tree with online decoding.

    Parameters
    ----------
    w:
        Leaf count (power of two).
    s:
        Leaf width in bits (counts to ``2**s - 1`` before carrying).
    degree:
        Leaves per parent (power of two).
    d:
        Independent trees; queries take the minimum (CMS-style).
    seed:
        Hash seed.

    Examples
    --------
    >>> ct = CounterTree(w=1 << 10, s=4, degree=8, d=2, seed=1)
    >>> for _ in range(100):
    ...     ct.update(9)
    >>> ct.query(9) >= 100
    True
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int, s: int = 4, degree: int = 8, d: int = 2,
                 seed: int = 0):
        if w < 2 or w & (w - 1):
            raise ValueError(f"w must be a power of two >= 2, got {w}")
        if degree < 2 or degree & (degree - 1) or degree > w:
            raise ValueError(
                f"degree must be a power of two in [2, w], got {degree}")
        if not 1 <= s <= 16:
            raise ValueError(f"s must be in [1, 16], got {s}")
        self.w = w
        self.s = s
        self.degree = degree
        self.d = d
        self.hashes = HashFamily(d, seed)
        self._leaf_cap = (1 << s) - 1
        self._parent_cap = (1 << (2 * s)) - 1
        self._leaves = [array("Q", [0]) * w for _ in range(d)]
        self._parents = [array("Q", [0]) * (w // degree) for _ in range(d)]
        #: Parent saturations (counting range exhausted).
        self.saturations = 0

    def update(self, item: int, value: int = 1) -> None:
        """Add ``value``, carrying leaf overflow into the shared parent."""
        if value <= 0:
            raise ValueError("Counter Tree is Cash-Register-only")
        for row in range(self.d):
            leaf = self.hashes.index(item, row, self.w)
            total = self._leaves[row][leaf] + value
            carries, remainder = divmod(total, self._leaf_cap + 1)
            self._leaves[row][leaf] = remainder
            if carries:
                parent = leaf // self.degree
                new = self._parents[row][parent] + carries
                if new > self._parent_cap:
                    new = self._parent_cap
                    self.saturations += 1
                self._parents[row][parent] = new

    def query(self, item: int) -> int:
        """Min over trees of ``leaf + 2^s * parent`` (an over-estimate)."""
        best = None
        for row in range(self.d):
            leaf = self.hashes.index(item, row, self.w)
            parent = leaf // self.degree
            estimate = (self._leaves[row][leaf]
                        + (self._parents[row][parent] << self.s))
            if best is None or estimate < best:
                best = estimate
        return int(best)

    @property
    def memory_bytes(self) -> int:
        """Leaves at ``s`` bits plus parents at ``2s`` bits, all trees."""
        bits = self.d * (self.w * self.s
                         + (self.w // self.degree) * 2 * self.s)
        return (bits + 7) // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"CounterTree(w={self.w}, s={self.s}, "
                f"degree={self.degree}, d={self.d})")
