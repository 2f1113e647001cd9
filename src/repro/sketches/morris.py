"""Morris counters and arrays of them (probabilistic counter compression).

The paper's related-work section groups SALSA against "an orthogonal
line of works [that] reduces the size of counters by using
probabilistic estimators that only increment their value with a certain
probability" [16], [24]-[26].  AEE [16] is implemented in
:mod:`repro.sketches.aee`; this module implements the original member
of the family, the Morris counter [26], plus a CMS-shaped array of
Morris counters so the estimator-vs-merging tradeoff can be measured
directly against SALSA.

A Morris counter with base ``a > 1`` stores an exponent ``c`` and
represents ``(a**c - 1) / (a - 1)``.  On an increment it bumps ``c``
with probability ``a**-c``, giving an unbiased estimate whose relative
standard error is about ``sqrt((a - 1) / 2)``; an ``s``-bit register
then counts up to roughly ``a ** (2**s)``.
"""

from __future__ import annotations

import random

from repro.hashing import HashFamily
from repro.sketches.base import BatchOpsMixin, StreamModel


class MorrisCounter:
    """A single Morris approximate counter.

    Parameters
    ----------
    base:
        Growth base ``a``; smaller is more accurate but counts less
        per register bit.  ``base=2`` is Morris's original; AEE-style
        deployments use bases close to 1.
    bits:
        Register width; the exponent saturates at ``2**bits - 1``.
    rng:
        Source of randomness (seeded ``random.Random`` for
        reproducibility).

    Examples
    --------
    >>> c = MorrisCounter(base=2, bits=8, rng=random.Random(7))
    >>> for _ in range(1000):
    ...     c.increment()
    >>> 200 < c.estimate() < 5000   # unbiased, high variance
    True
    """

    def __init__(self, base: float = 2.0, bits: int = 8,
                 rng: random.Random | None = None):
        if base <= 1.0:
            raise ValueError(f"base must exceed 1, got {base}")
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        self.base = base
        self.bits = bits
        self.exponent = 0
        self._max_exponent = (1 << bits) - 1
        self._rng = rng if rng is not None else random.Random()

    def increment(self) -> None:
        """Add one with probability ``base**-exponent``."""
        if self.exponent >= self._max_exponent:
            return
        if self._rng.random() < self.base ** -self.exponent:
            self.exponent += 1

    def add(self, value: int) -> None:
        """Add ``value`` unit increments."""
        if value < 0:
            raise ValueError("Morris counters are Cash-Register-only")
        for _ in range(value):
            self.increment()

    def estimate(self) -> float:
        """Unbiased estimate ``(a**c - 1) / (a - 1)``."""
        return (self.base ** self.exponent - 1) / (self.base - 1)

    @property
    def saturated(self) -> bool:
        """True once the exponent register is full."""
        return self.exponent >= self._max_exponent


class MorrisCountMin(BatchOpsMixin):
    """Count-Min Sketch whose counters are Morris exponents.

    The "small probabilistic counters" end of the design space: each of
    the ``d x w`` cells is an ``s``-bit Morris register, so the sketch
    fits ``32/s`` times more counters than a 32-bit baseline at the
    cost of estimator noise *on top of* collision noise.  Queries
    return the minimum of the per-row estimates, as in CMS.

    Parameters
    ----------
    w, d:
        Matrix shape (w a power of two).
    bits:
        Register width per cell (paper-default analog: 8).
    base:
        Morris base shared by all cells.
    seed:
        Seeds both the hash family and the increment sampling.

    Examples
    --------
    >>> sketch = MorrisCountMin(w=256, d=4, seed=3)
    >>> for _ in range(500):
    ...     sketch.update(9)
    >>> sketch.query(9) > 100
    True
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int, d: int = 4, bits: int = 8,
                 base: float = 1.08, seed: int = 0,
                 hash_family: HashFamily | None = None):
        if w < 1 or w & (w - 1):
            raise ValueError(f"w must be a positive power of two, got {w}")
        self.w = w
        self.d = d
        self.bits = bits
        self.base = base
        self.hashes = (hash_family if hash_family is not None
                       else HashFamily(d, seed))
        if self.hashes.d < d:
            raise ValueError("hash family has fewer rows than the sketch")
        self._rng = random.Random(seed ^ 0x5A1A)
        self._exponents = [[0] * w for _ in range(d)]
        self._max_exponent = (1 << bits) - 1
        self.n = 0

    def _bump(self, row: int, col: int) -> None:
        exponent = self._exponents[row][col]
        if exponent >= self._max_exponent:
            return
        if self._rng.random() < self.base ** -exponent:
            self._exponents[row][col] = exponent + 1

    def update(self, item: int, value: int = 1) -> None:
        """Process ``<item, value>`` (value must be positive)."""
        if value <= 0:
            raise ValueError("MorrisCountMin is Cash-Register-only")
        self.n += value
        for row in range(self.d):
            col = self.hashes.index(item, row, self.w)
            for _ in range(value):
                self._bump(row, col)

    def _cell_estimate(self, row: int, col: int) -> float:
        exponent = self._exponents[row][col]
        return (self.base ** exponent - 1) / (self.base - 1)

    def query(self, item: int) -> float:
        """Minimum of the per-row Morris estimates."""
        return min(self._cell_estimate(row,
                                       self.hashes.index(item, row, self.w))
                   for row in range(self.d))

    @property
    def memory_bytes(self) -> int:
        """``d * w`` registers of ``bits`` bits."""
        return (self.d * self.w * self.bits + 7) // 8
