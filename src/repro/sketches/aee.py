"""Additive Error Estimator sketches (AEE, Ben Basat et al., INFOCOM 2020).

AEE shrinks counters by counting *sampled* updates: the sketch keeps a
global sampling probability ``p``; each update is recorded with
probability ``p`` and queries scale by ``1/p``.  When a counter
overflows, a *downsampling event* halves ``p`` and halves every
counter -- probabilistically (``Binomial(c, 1/2)``) or
deterministically (``floor(c/2)``) -- so no extra counter bits are
ever needed.

Two variants from the AEE paper, both used in Fig 16:

* **MaxAccuracy** -- downsample only when a counter actually overflows.
* **MaxSpeed** -- downsample proactively once enough updates have been
  processed, keeping ``p`` low so most updates skip the hash
  computations entirely (the source of AEE's speedup).
"""

from __future__ import annotations

import math
import random
from array import array

from repro.hashing import HashFamily, mix64
from repro.sketches.base import BatchOpsMixin, StreamModel, width_for_memory


class AeeSketch(BatchOpsMixin):
    """AEE-augmented Count-Min sketch with small fixed counters.

    Parameters
    ----------
    w, d:
        Sketch shape.
    counter_bits:
        Physical counter width (AEE's point is this can be small;
        default 16).
    mode:
        ``"accuracy"`` (MaxAccuracy) or ``"speed"`` (MaxSpeed).
    probabilistic:
        Binomial halving when True, ``floor(c/2)`` when False.
    speed_interval:
        MaxSpeed only: downsample after this many *sampled* updates.
    """

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int, d: int = 4, counter_bits: int = 16,
                 mode: str = "accuracy", probabilistic: bool = True,
                 speed_interval: int | None = None, seed: int = 0):
        if w < 1 or w & (w - 1):
            raise ValueError(f"w must be a positive power of two, got {w}")
        if mode not in ("accuracy", "speed"):
            raise ValueError(f"mode must be 'accuracy' or 'speed', got {mode!r}")
        self.w = w
        self.d = d
        self.counter_bits = counter_bits
        self.cap = (1 << counter_bits) - 1
        self.mode = mode
        self.probabilistic = probabilistic
        # MaxSpeed default: keep roughly half the counter range in play
        # between proactive downsamplings.
        self.speed_interval = speed_interval or (self.cap + 1) * w // 4
        self.hashes = HashFamily(d, seed)
        self.rows = [array("q", [0]) * w for _ in range(d)]
        self.p = 1.0
        self.volume = 0          # total stream volume N seen
        self._sampled = 0        # sampled updates since last downsample
        self._rng = random.Random(seed ^ 0xAEE)

    @classmethod
    def for_memory(cls, memory_bytes: int, d: int = 4, counter_bits: int = 16,
                   mode: str = "accuracy", seed: int = 0) -> "AeeSketch":
        """Largest AEE sketch fitting in ``memory_bytes``."""
        w = width_for_memory(memory_bytes, d, counter_bits)
        return cls(w=w, d=d, counter_bits=counter_bits, mode=mode, seed=seed)

    # ------------------------------------------------------------------
    def _halve_counters(self) -> None:
        rng = self._rng
        if self.probabilistic:
            for row in self.rows:
                for i in range(self.w):
                    c = row[i]
                    if c:
                        # Binomial(c, 1/2) via half-width normal approx
                        # for large c, exact bit-sampling for small c.
                        if c > 64:
                            half = int(rng.gauss(c / 2, math.sqrt(c) / 2) + 0.5)
                            row[i] = min(c, max(0, half))
                        else:
                            row[i] = sum(1 for _ in range(c) if rng.random() < 0.5)
        else:
            for row in self.rows:
                for i in range(self.w):
                    row[i] >>= 1

    def downsample(self) -> None:
        """Halve the sampling probability and all counters."""
        self.p /= 2.0
        self._sampled = 0
        self._halve_counters()

    def update(self, item: int, value: int = 1) -> None:
        """Record the update with probability p (unit updates)."""
        if value < 1:
            raise ValueError("AEE is a Cash Register sketch")
        self.volume += value
        for _ in range(value):
            self._update_one(item)

    def _update_one(self, item: int) -> None:
        # The sampling test happens *before* any hashing -- this is
        # where AEE's speed advantage comes from.
        if self.p < 1.0 and self._rng.random() >= self.p:
            return
        if self.mode == "speed":
            self._sampled += 1
            if self._sampled >= self.speed_interval:
                self.downsample()
                # The arriving update is still recorded w.p. 1/2
                # (it survives the conceptual re-sampling).
                if self._rng.random() >= 0.5:
                    return
        mask = self.w - 1
        overflowed = False
        for row, seed in zip(self.rows, self.hashes.seeds):
            idx = mix64(item ^ seed) & mask
            new = row[idx] + 1
            if new > self.cap:
                overflowed = True
            else:
                row[idx] = new
        if overflowed:
            self.downsample()

    def query(self, item: int) -> float:
        """Estimate: min over rows, scaled back by 1/p."""
        mask = self.w - 1
        est = None
        for row, seed in zip(self.rows, self.hashes.seeds):
            c = row[mix64(item ^ seed) & mask]
            if est is None or c < est:
                est = c
        return est / self.p

    # ------------------------------------------------------------------
    def error_bound(self, delta_est: float) -> float:
        """The implied additive error N*eps_est of section V.

        ``eps_est = sqrt(2 p^-1 ln(2/delta_est)) / N``, so the bound is
        ``sqrt(2 N p^-1 ln(2/delta_est))``.
        """
        if not 0 < delta_est < 1:
            raise ValueError("delta_est must be in (0, 1)")
        if self.volume == 0:
            return 0.0
        return math.sqrt(2 * self.volume / self.p * math.log(2 / delta_est))

    @property
    def memory_bytes(self) -> int:
        """Counter storage (p and N are O(1) scalars)."""
        return self.d * self.w * self.counter_bits // 8

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"AeeSketch(w={self.w}, d={self.d}, "
                f"counter_bits={self.counter_bits}, mode={self.mode!r})")
