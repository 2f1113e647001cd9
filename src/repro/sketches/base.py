"""Shared sketch infrastructure: models, interfaces, memory sizing.

Every sketch in the library -- baselines, competitors, and the SALSA
variants in :mod:`repro.core` -- follows the same small interface:
``update(item, value)``, ``query(item)``, and a ``memory_bytes``
property that includes all encoding overheads, because the paper's
figures put *allocated memory including overheads* on the x-axis
("When we give figures where an x-axis is allocated memory, we include
the encoding overheads").
"""

from __future__ import annotations

import enum
import functools
import numbers
from typing import Protocol, runtime_checkable

import numpy as np

from repro.sketches import _kernels


class StreamModel(enum.Enum):
    """The three stream models of section III."""

    CASH_REGISTER = "cash_register"      # strictly positive updates
    STRICT_TURNSTILE = "strict_turnstile"  # frequencies never negative
    TURNSTILE = "turnstile"              # fully general


@runtime_checkable
class FrequencySketch(Protocol):
    """Anything that estimates per-item frequencies from a stream."""

    def update(self, item: int, value: int = 1) -> None:
        """Process the update ``<item, value>``."""
        ...

    def query(self, item: int) -> float:
        """Estimate the frequency of ``item``."""
        ...

    @property
    def memory_bytes(self) -> int:
        """Total memory footprint, including encoding overheads."""
        ...


@runtime_checkable
class BatchFrequencySketch(FrequencySketch, Protocol):
    """A frequency sketch with a bulk ingestion/query interface."""

    def update_many(self, items, values=None) -> None:
        """Process a batch of updates, equivalent to per-item ``update``."""
        ...

    def query_many(self, items) -> list:
        """Estimates for a batch, equivalent to per-item ``query``."""
        ...


def _int64_array(data, what: str) -> np.ndarray:
    """``data`` as a contiguous int64 array; ``TypeError`` unless every
    entry is an integer or a bool (a float is never truncated)."""
    arr = np.asarray(data)
    kind = arr.dtype.kind
    if arr.size and kind not in "biu" and not (
            kind == "O"
            and all(isinstance(x, numbers.Integral) for x in arr.flat)):
        raise TypeError(f"batch {what} must be integers, got {arr.dtype}")
    # Cast sequences from the source so an integer beyond int64 raises
    # OverflowError instead of wrapping.
    source = arr if isinstance(data, np.ndarray) or kind not in "uO" else data
    return np.ascontiguousarray(source, dtype=np.int64)


def as_batch(items, values=None) -> tuple[np.ndarray, np.ndarray]:
    """Normalize an update batch to int64 ``(items, values)`` arrays.

    ``values=None`` means unit weights (the paper's Cash Register
    streams).  Accepts lists, tuples, numpy arrays, Traces, and
    WeightedTraces (whose own values array is consumed).  Items and
    values must be integers (or bools): anything else raises
    ``TypeError``, as the per-item ``update`` does.
    """
    if hasattr(items, "items") and isinstance(getattr(items, "items"), np.ndarray):
        trace_values = getattr(items, "values", None)
        if isinstance(trace_values, np.ndarray):  # a WeightedTrace
            if values is not None:
                raise ValueError(
                    "explicit values conflict with the batch's own "
                    "values array"
                )
            values = trace_values
        items = items.items  # a Trace
    items = _int64_array(items, "items")
    if values is None:
        values = np.ones(len(items), dtype=np.int64)
    else:
        values = _int64_array(values, "values")
        if len(values) != len(items):
            raise ValueError(
                f"batch length mismatch: {len(items)} items, "
                f"{len(values)} values"
            )
    return items, values


def aggregate_batch(items: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate keys: ``(unique_items, summed_values)``.

    Exact only for sketches whose update is order-independent over the
    batch (plain additions); callers guard accordingly.
    """
    uniq, inverse = np.unique(items, return_inverse=True)
    if len(uniq) == len(items):
        return items, values
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, values)
    return uniq, sums


def collapse_runs(items: np.ndarray,
                  values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapse *consecutive* duplicate keys into one weighted update.

    Unlike :func:`aggregate_batch` this never reorders the stream, so
    it is exact for order-dependent sketches (conservative update,
    Space-Saving) where back-to-back updates of one key provably fuse:
    ``update(x, a); update(x, b) == update(x, a + b)``.
    """
    if len(items) == 0:
        return items, values
    starts = np.empty(len(items), dtype=bool)
    starts[0] = True
    np.not_equal(items[1:], items[:-1], out=starts[1:])
    if starts.all():
        return items, values
    run_starts = np.flatnonzero(starts)
    sums = np.add.reduceat(values, run_starts)
    return items[run_starts], sums


#: Total-batch inflow ceiling for vectorized paths.  Aggregated deltas
#: live in int64 scratch arrays; keeping the batch's total absolute
#: inflow at or below 2^61 leaves headroom so `counter + delta` cannot
#: wrap for any counter of <= 62 payload bits.  (Summed as float64: the
#: relative error is ~2^-52, vastly smaller than the slack.)
_BATCH_SUM_BOUND = float(1 << 61)


def batch_sum_fits(values: np.ndarray) -> bool:
    """True when a batch's total absolute inflow is safely below int64
    wraparound; vectorized update paths fall back otherwise."""
    return float(np.abs(values).sum(dtype=np.float64)) <= _BATCH_SUM_BOUND


def batched_query(items, estimate) -> list:
    """The shared batch-query pipeline: normalize, dedup, estimate, un-dedup.

    ``estimate(uniq)`` returns one estimate per deduplicated key; they
    are mapped back onto the original (duplicated) order.  Bit-identical
    to per-item queries because reads are pure.
    """
    items, _ = as_batch(items)
    if len(items) == 0:
        return []
    uniq, inverse = np.unique(items, return_inverse=True)
    return np.asarray(estimate(uniq))[inverse].tolist()


def batched_min_query(items, gather) -> list:
    """Min-over-rows batch query (Count-Min aggregation).

    ``gather(uniq)`` returns the ``(d, n)`` counter values of the
    deduplicated keys, one row per sketch row.
    """
    return batched_query(
        items, lambda uniq: _kernels.min_over_rows(gather(uniq)))


def batched_median_query(items, gather) -> list:
    """Median-over-rows batch query (Count Sketch aggregation).

    ``gather(uniq)`` returns the ``(d, n)`` signed row votes of the
    deduplicated keys; :func:`_kernels.median_over_rows` replicates
    :func:`median` exactly (even ``d`` averages the middle two).
    """
    return batched_query(
        items, lambda uniq: _kernels.median_over_rows(gather(uniq)))


class BatchOpsMixin:
    """Default ``update_many``/``query_many``: the per-item loop.

    Every sketch inheriting this exposes the batch API.  Fast sketches
    override ``update_many`` with a vectorized body behind
    :func:`batch_door`, which sends every batch the body cannot take
    exactly back to this per-item loop, and ``query_many`` with
    :func:`batched_query` (or its min/median forms).  Either way the
    result is *bit-identical* to this fallback (enforced by
    ``tests/test_batch_api.py``).

    Sketches whose storage is backed by a pluggable row engine
    (:mod:`repro.core.engines`) accept an ``engine=`` kwarg -- plumbed
    through their ``for_memory`` constructors as well -- and record the
    resolved choice in :attr:`engine_name`; fixed-width sketches leave
    it ``None``.  The engine only changes which code path the batch
    door takes, never the answers.
    """

    #: Resolved row-engine name for engine-backed sketches, else None.
    engine_name: str | None = None

    def update_many(self, items, values=None) -> None:
        """Process a batch of updates in order, one ``update`` each."""
        items, values = as_batch(items, values)
        update = self.update
        for x, v in zip(items.tolist(), values.tolist()):
            update(x, v)

    def query_many(self, items) -> list:
        """Per-item ``query`` over a batch, preserving order.

        Normalizes through :func:`as_batch` so lists, tuples, NumPy
        arrays, Traces, and WeightedTraces are all accepted uniformly
        (the same front door ``update_many`` uses).
        """
        items, _ = as_batch(items)
        query = self.query
        return [query(x) for x in items.tolist()]


def batch_door(positive: bool = False, per_item=None):
    """Declare a vectorized ``update_many`` body behind the one guard.

    The decorated method normalizes the batch through :func:`as_batch`,
    returns on an empty batch, and then applies three rules in order:

    1. *reject*: with ``positive=True`` (a Cash Register sketch) a
       value below 1 raises ``ValueError`` before any state changes;
    2. *headroom fallback*: a batch failing :func:`batch_sum_fits`
       goes to the :class:`BatchOpsMixin` per-item loop, so int64
       scratch sums (and running totals) can never wrap;
    3. *declared fallback*: so does a batch for which
       ``per_item(self, values)`` holds -- the sketch's own
       precondition for the body being exact.

    Otherwise the body runs as ``body(self, items, values)`` with
    non-empty int64 arrays.
    """

    def wrap(body):
        @functools.wraps(body)
        def update_many(self, items, values=None) -> None:
            items, values = as_batch(items, values)
            if len(items) == 0:
                return
            if positive and int(values.min()) < 1:
                raise ValueError(
                    f"{type(self).__name__} is a Cash Register sketch; "
                    "batch contains a non-positive value")
            if not batch_sum_fits(values) or (
                    per_item is not None and per_item(self, values)):
                BatchOpsMixin.update_many(self, items, values)
                return
            body(self, items, values)

        return update_many

    return wrap


def width_for_memory(memory_bytes: int, d: int, counter_bits: int,
                     overhead_bits: float = 0.0) -> int:
    """Largest power-of-two row width fitting in ``memory_bytes``.

    The paper configures every sketch by total allocated memory and
    keeps row widths as powers of two; the per-counter cost is the
    counter itself plus any encoding overhead (1 bit for SALSA's simple
    encoding, ~0.594 for the compact one, 0 for fixed-width baselines).

    Raises ``ValueError`` if not even a 2-counter row fits, so sweeps
    fail loudly rather than building degenerate sketches.
    """
    total_bits = memory_bytes * 8
    per_counter = counter_bits + overhead_bits
    max_w = total_bits / (d * per_counter)
    if max_w < 2:
        raise ValueError(
            f"{memory_bytes}B cannot hold d={d} rows of "
            f"{per_counter}-bit counters"
        )
    w = 1
    while w * 2 <= max_w:
        w *= 2
    return w


def median(values: list[float]) -> float:
    """Median used by Count Sketch row aggregation (mean of middle two
    for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of empty list")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
