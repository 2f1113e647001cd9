"""Augmented Sketch: an exact hot-item filter in front of a sketch.

Related work [8, Roy, Khan & Alonso]: "Augmented sketch: faster and
more accurate stream processing."  A small array of ``k`` exactly
counted items absorbs the heavy hitters, so the backing sketch only
sees the tail (less noise for everyone) and hot items get exact
answers.  The swap protocol follows the paper:

* an update to a filtered item just bumps its exact counter;
* otherwise the backing sketch is updated and queried -- if the
  estimate now exceeds the smallest filter count, the item is promoted
  and the evicted item's count is *pushed back* into the sketch.

The filter keeps ``new_count`` (total) and ``old_count`` (the estimate
the item entered with, which may include sketch noise); queries for a
filtered item return ``new_count`` and are exact whenever the item
entered the filter before acquiring noise (``old_count == 0``).

Any frequency sketch with ``update``/``query`` works as the backend,
including the SALSA variants -- the extension bench ``ext_augmented``
stacks the filter on both the baseline CMS and SALSA CMS.
"""

from __future__ import annotations

from repro.sketches.base import BatchOpsMixin, StreamModel

#: Bytes per filter slot: 8-byte key plus two 4-byte counts.
SLOT_BYTES = 16


class AugmentedSketch(BatchOpsMixin):
    """Exact top-``k`` filter over any frequency sketch.

    Parameters
    ----------
    sketch:
        Backing frequency sketch (CMS, CUS, SALSA CMS, ...).
    k:
        Filter capacity (the paper uses a cache-line-sized handful).

    Examples
    --------
    >>> from repro.sketches import CountMinSketch
    >>> aug = AugmentedSketch(CountMinSketch(w=256, d=4, seed=1), k=4)
    >>> for _ in range(100):
    ...     aug.update(42)
    >>> aug.update(7)
    >>> aug.query(42)
    100
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, sketch, k: int = 8):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.sketch = sketch
        self.k = k
        #: item -> [new_count, old_count]
        self._filter: dict[int, list[int]] = {}
        self.n = 0

    def update(self, item: int, value: int = 1) -> None:
        """Process ``<item, value>`` (value must be positive)."""
        if value <= 0:
            raise ValueError("Augmented Sketch is Cash-Register-only")
        self.n += value
        slot = self._filter.get(item)
        if slot is not None:
            slot[0] += value
            return
        self.sketch.update(item, value)
        if len(self._filter) < self.k:
            # Empty slot: admit with old_count = sketch estimate so a
            # later eviction pushes back exactly the noise-bearing part.
            estimate = int(self.sketch.query(item))
            self._filter[item] = [estimate, estimate]
            return
        estimate = int(self.sketch.query(item))
        coldest = min(self._filter, key=lambda key: self._filter[key][0])
        if estimate <= self._filter[coldest][0]:
            return
        # Promote: evicted item's accrued count goes back to the sketch.
        new_count, old_count = self._filter.pop(coldest)
        if new_count > old_count:
            self.sketch.update(coldest, new_count - old_count)
        self._filter[item] = [estimate, estimate]

    def query(self, item: int) -> float:
        """Exact count for filtered items, sketch estimate otherwise."""
        slot = self._filter.get(item)
        if slot is not None:
            return slot[0]
        return self.sketch.query(item)

    def filtered_items(self) -> list[tuple[int, int]]:
        """Current ``(item, count)`` filter contents, largest first."""
        return sorted(((item, slot[0]) for item, slot in self._filter.items()),
                      key=lambda row: -row[1])

    @property
    def memory_bytes(self) -> int:
        """Backing sketch plus the ``k`` filter slots."""
        return self.sketch.memory_bytes + self.k * SLOT_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AugmentedSketch(k={self.k}, sketch={self.sketch!r})"
