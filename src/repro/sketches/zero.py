"""The "0" estimator of Appendix B.

Always answers zero.  The paper uses it to show that the AAE/ARE
metrics over *all* flows are gameable: on skewed traces, "one can
reduce the error by not running measurements at all" (Figs 19, 20).
It costs no memory and is the fastest possible sketch.
"""

from __future__ import annotations

from repro.sketches.base import BatchOpsMixin, StreamModel


class ZeroSketch(BatchOpsMixin):
    """Estimates every frequency as zero."""

    model = StreamModel.CASH_REGISTER

    def __init__(self, w: int = 0, d: int = 0, seed: int = 0):
        self.w = w
        self.d = d

    def update(self, item: int, value: int = 1) -> None:
        """Ignore the update."""

    def query(self, item: int) -> int:
        """Always zero."""
        return 0

    @property
    def memory_bytes(self) -> int:
        """No memory at all."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "ZeroSketch()"
