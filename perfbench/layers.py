"""Which library functions the traced run wraps, and the per-layer
metrics read from their spans.

Layers are named after the modules that hold them (``hashing``,
``base``, ``row``, ``salsa_cms``, ...).  Chunk-level calls become
spans; the per-item ``SalsaRow.add`` and ``SalsaRow.ensure_level``
calls are leaves, counted on their parent span.  Module-level
functions are replaced in every ``repro`` module that imported them by
name (``repro.core.salsa_cms.aggregate_batch``,
``repro.core.distributed.dumps``, ...), because that is the name the
callers look up.
"""

from __future__ import annotations

#: Per-layer metrics: (name, unit, better).
PER_LAYER = [
    ("hashing.index_many.self_s", "s", "lower"),
    ("hashing.raw_many.self_s", "s", "lower"),
    ("hashing.index_matrix.self_s", "s", "lower"),
    ("hashing.raw_matrix.self_s", "s", "lower"),
    ("hashing.keys", "count", "lower"),
    ("base.as_batch.self_s", "s", "lower"),
    ("base.aggregate_batch.self_s", "s", "lower"),
    ("base.dedup_ratio", "ratio", "lower"),
    ("base.collapse_runs.self_s", "s", "lower"),
    ("base.batched_min_query.self_s", "s", "lower"),
    ("base.batched_median_query.self_s", "s", "lower"),
    ("row.read_many.self_s", "s", "lower"),
    ("row.add_batch_partial.self_s", "s", "lower"),
    ("row.dirty_superblock_frac", "ratio", "lower"),
    ("row.add.calls", "count", "lower"),
    ("row.add.self_s", "s", "lower"),
    ("row.replay_share", "ratio", "lower"),
    ("row.ensure_level.self_s", "s", "lower"),
    ("row.merge_events", "count", "lower"),
    ("row.saturations", "count", "lower"),
    ("salsa_cms.update_many.self_s", "s", "lower"),
    ("salsa_cms.query_many.self_s", "s", "lower"),
    ("salsa_cs.update_many.self_s", "s", "lower"),
    ("salsa_cs.query_many.self_s", "s", "lower"),
    ("salsa_cus.update_many.self_s", "s", "lower"),
    ("salsa_cus.query_many.self_s", "s", "lower"),
    ("count_min.update_many.self_s", "s", "lower"),
    ("count_min.query_many.self_s", "s", "lower"),
    ("distributed.feed_stream.self_s", "s", "lower"),
    ("distributed.update_many.self_s", "s", "lower"),
    ("distributed.combined.self_s", "s", "lower"),
    ("distributed.shard_skew", "ratio", "lower"),
    ("serialize.dumps.self_s", "s", "lower"),
    ("serialize.loads.self_s", "s", "lower"),
    ("serialize.blob_bytes", "bytes", "lower"),
    ("ops.merge.self_s", "s", "lower"),
    ("ops.walk_counters", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]

#: Self times must account for the traced wall time within this share.
SELF_TIME_TOLERANCE = 0.10


# ----------------------------------------------------------------------
# counters filled from a call's arguments and result
# ----------------------------------------------------------------------
def _bump(counts, key, n):
    counts[key] = counts.get(key, 0) + n


def _count_keys(counts, args, kwargs, result):
    _bump(counts, "keys", result.size)


def _count_dedup(counts, args, kwargs, result):
    _bump(counts, "in", len(args[0]))
    _bump(counts, "out", len(result[0]))


def _count_dirty(counts, args, kwargs, result):
    row = args[0]
    _bump(counts, "superblocks", row.w >> row.max_level)
    if result is not None:
        _bump(counts, "dirty", int(result.sum()))


def _count_row_updates(counts, args, kwargs, result):
    _bump(counts, "row_updates", len(args[1]) * args[0].d)


def _count_worker(counts, args, kwargs, result):
    _bump(counts, f"worker{args[1]}", len(args[2]))


def _count_bytes(counts, args, kwargs, result):
    _bump(counts, "bytes", len(result))


def install(tracer) -> None:
    """Wrap every layer function of the currently imported ``repro``."""
    from repro.core import ops, serialize
    from repro.core.distributed import DistributedSketch
    from repro.core.row import SalsaRow
    from repro.core.salsa_cms import SalsaCountMin
    from repro.core.salsa_cs import SalsaCountSketch
    from repro.core.salsa_cus import SalsaConservativeUpdate
    from repro.hashing import HashFamily
    from repro.sketches import base
    from repro.sketches.count_min import CountMinSketch

    methods = [
        (HashFamily, "index_many", "hashing.index_many", None),
        (HashFamily, "raw_many", "hashing.raw_many", _count_keys),
        (HashFamily, "index_matrix", "hashing.index_matrix", None),
        (HashFamily, "raw_matrix", "hashing.raw_matrix", _count_keys),
        (SalsaRow, "read_many", "row.read_many", None),
        (SalsaRow, "add_batch_partial", "row.add_batch_partial",
         _count_dirty),
        (SalsaCountMin, "update_many", "salsa_cms.update_many",
         _count_row_updates),
        (SalsaCountMin, "query_many", "salsa_cms.query_many", None),
        (SalsaCountSketch, "update_many", "salsa_cs.update_many",
         _count_row_updates),
        (SalsaCountSketch, "query_many", "salsa_cs.query_many", None),
        (SalsaConservativeUpdate, "update_many", "salsa_cus.update_many",
         None),
        (SalsaConservativeUpdate, "query_many", "salsa_cus.query_many",
         None),
        (CountMinSketch, "update_many", "count_min.update_many", None),
        (CountMinSketch, "query_many", "count_min.query_many", None),
        (DistributedSketch, "feed_stream", "distributed.feed_stream", None),
        (DistributedSketch, "update_many", "distributed.update_many",
         _count_worker),
        (DistributedSketch, "combined", "distributed.combined", None),
    ]
    for owner, attr, name, count in methods:
        tracer.install(owner, attr, tracer.span_wrapper(
            name, owner.__dict__[attr], count))
    for attr, name in (("add", "row.add"),
                       ("ensure_level", "row.ensure_level")):
        tracer.install(SalsaRow, attr, tracer.leaf_wrapper(
            name, SalsaRow.__dict__[attr]))
    functions = [
        (base.as_batch, "base.as_batch", None),
        (base.aggregate_batch, "base.aggregate_batch", _count_dedup),
        (base.collapse_runs, "base.collapse_runs", None),
        (base.batched_min_query, "base.batched_min_query", None),
        (base.batched_median_query, "base.batched_median_query", None),
        (serialize.dumps, "serialize.dumps", _count_bytes),
        (serialize.loads, "serialize.loads", None),
        (ops.merge, "ops.merge", None),
    ]
    for fn, name, count in functions:
        if not tracer.install_function(fn, tracer.span_wrapper(
                name, fn, count), "repro"):
            raise RuntimeError(f"{name}: no module holds the function")


# ----------------------------------------------------------------------
# reading one traced round
# ----------------------------------------------------------------------
def _ratio(num, den):
    return num / den if den else 0.0


def round_metrics(tracer, run: int, merge_events: int,
                  saturations: int) -> dict:
    """Per-layer metrics of one traced round (times in seconds)."""
    spans = [s for s in tracer.spans if s.run == run]
    selfs = tracer.self_times(run)
    counts: dict[str, dict] = {}
    leaf_calls: dict[tuple[str, str], int] = {}
    for span in spans:
        bucket = counts.setdefault(span.name, {})
        for key, n in span.counts.items():
            bucket[key] = bucket.get(key, 0) + n
        for leaf, (calls, _secs) in span.leaves.items():
            leaf_calls[span.name, leaf] = (
                leaf_calls.get((span.name, leaf), 0) + calls)

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def leaves(leaf, parents=None):
        return sum(n for (parent, name), n in leaf_calls.items()
                   if name == leaf and (parents is None or parent in parents))

    out = {}
    for name, unit, _better in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[:-len(".self_s")], 0.0)
    replayers = ("salsa_cms.update_many", "salsa_cs.update_many")
    workers = counts.get("distributed.update_many", {})
    per_worker = list(workers.values())
    out.update({
        "hashing.keys": count("hashing.raw_many", "keys")
        + count("hashing.raw_matrix", "keys"),
        "base.dedup_ratio": _ratio(count("base.aggregate_batch", "out"),
                                   count("base.aggregate_batch", "in")),
        "row.dirty_superblock_frac": _ratio(
            count("row.add_batch_partial", "dirty"),
            count("row.add_batch_partial", "superblocks")),
        "row.add.calls": leaves("row.add"),
        "row.replay_share": _ratio(
            leaves("row.add", replayers),
            sum(count(name, "row_updates") for name in replayers)),
        "row.merge_events": merge_events,
        "row.saturations": saturations,
        "distributed.shard_skew": _ratio(
            max(per_worker, default=0),
            sum(per_worker) / len(per_worker) if per_worker else 0),
        "serialize.blob_bytes": count("serialize.dumps", "bytes"),
        "ops.walk_counters": leaves("row.ensure_level", ("ops.merge",)),
    })
    return out


def self_time_table(tracer, run: int) -> dict[str, float]:
    """Self time of every layer in one round (benchmark spans left out)."""
    return {name: secs for name, secs in tracer.self_times(run).items()
            if not name.startswith("bench.")}
