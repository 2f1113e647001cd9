"""Workloads of the repo benchmark: inputs, measured phases and checks.

Every workload is one scenario preset from
``repro.experiments.scenarios.SCENARIO_SPECS``, generated before any
timing from the workload seed.  The library only sees the generated
chunks.  Each workload runs the same two phases on its own stream, as a
closed loop (one caller hands a chunk to the library and waits for it):

* ``single``: four sketches -- SALSA-CMS (max merge), SALSA-CS,
  SALSA-CUS and the fixed-width Count-Min baseline.  For each chunk the
  caller first queries it (``query_many``, the on-arrival estimate) and
  then ingests it (``update_many``).
* ``scaleout``: the stream goes chunk by chunk through
  ``DistributedSketch.feed_stream`` to four logical workers (hash
  policy) for SALSA-CMS (sum merge) and then SALSA-CS; then
  ``combined()``, ``query_many`` over every true flow on the merged
  sketch (in chunks), and ``serialize.dumps``/``loads(engine="vector")``
  round trips.

Every output is checked; a failed check counts as a failed operation.
"""

from __future__ import annotations

import sys
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

#: Updates per workload stream, per chunk, bytes per sketch, workers.
LENGTH = 1 << 17
CHUNK = 8192
MEMORY = 65536
WORKERS = 4
#: Wire round trips of each merged sketch per pass: one is too short a
#: call for a steady median.
ROUNDTRIPS = 5

#: workload -> scenario preset it draws its stream from.
WORKLOADS = {
    "stationary": "stationary",
    "churn": "churn",
    "scaleout": "replay",
}

#: End-to-end metrics: (name, unit, better).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("cms_ingest_mops", "Mops/s", "higher"),
    ("cs_ingest_mops", "Mops/s", "higher"),
    ("cus_ingest_mops", "Mops/s", "higher"),
    ("baseline_ingest_mops", "Mops/s", "higher"),
    ("cms_query_mops", "Mops/s", "higher"),
    ("cs_query_mops", "Mops/s", "higher"),
    ("cus_query_mops", "Mops/s", "higher"),
    ("cms_aae", "count", "lower"),
    ("cs_aae", "count", "lower"),
    ("cus_aae", "count", "lower"),
    ("feed_mops", "Mops/s", "higher"),
    ("combine_s", "s", "lower"),
    ("merged_query_mops", "Mops/s", "higher"),
    ("roundtrip_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Sketches whose estimates never fall below the true count.
LOWER_BOUNDED = ("cms", "cus", "baseline")


def load_library() -> SimpleNamespace:
    """Import the parts of ``repro`` the benchmark drives."""
    from repro.core import (
        DistributedSketch,
        SalsaConservativeUpdate,
        SalsaCountMin,
        SalsaCountSketch,
        serialize,
    )
    from repro.experiments.scenarios import SCENARIO_SPECS
    from repro.sketches.count_min import CountMinSketch

    return SimpleNamespace(
        DistributedSketch=DistributedSketch,
        SalsaConservativeUpdate=SalsaConservativeUpdate,
        SalsaCountMin=SalsaCountMin,
        SalsaCountSketch=SalsaCountSketch,
        CountMinSketch=CountMinSketch,
        serialize=serialize,
        SCENARIO_SPECS=SCENARIO_SPECS,
    )


def purge_library() -> None:
    """Forget every imported ``repro`` module, so the next import runs
    the package's module code again."""
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


# ----------------------------------------------------------------------
# sketches
# ----------------------------------------------------------------------
def single_sketches(lib) -> dict:
    """Fresh sketches of the ``single`` phase, in the order they run."""
    return {
        "cms": lib.SalsaCountMin.for_memory(MEMORY, d=4, s=8, merge="max",
                                            seed=0, engine="vector"),
        "cs": lib.SalsaCountSketch.for_memory(MEMORY, d=5, seed=0,
                                              engine="vector"),
        "cus": lib.SalsaConservativeUpdate.for_memory(MEMORY, seed=0,
                                                      engine="vector"),
        "baseline": lib.CountMinSketch.for_memory(MEMORY, seed=0),
    }


def _scaleout_shapes(lib):
    """(kind, class, d, keyword args, w) of the scaled-out sketches."""
    shapes = []
    for kind, cls, d, kw in (("cms", lib.SalsaCountMin, 4, {"merge": "sum"}),
                             ("cs", lib.SalsaCountSketch, 5, {})):
        w = cls.for_memory(MEMORY, d=d, seed=0, engine="vector", **kw).w
        shapes.append((kind, cls, d, kw, w))
    return shapes


def distributed_sketches(lib) -> dict:
    """Fresh 4-worker sketches of the ``scaleout`` phase."""
    out = {}
    for kind, cls, d, kw, w in _scaleout_shapes(lib):
        def factory(family, cls=cls, w=w, d=d, kw=kw):
            return cls(w=w, d=d, hash_family=family, engine="vector", **kw)
        out[kind] = lib.DistributedSketch(factory, workers=WORKERS, d=d,
                                          seed=0)
    return out


def build_all(lib) -> tuple[dict, dict]:
    """Every sketch a workload builds (what ``setup_s`` times)."""
    return single_sketches(lib), distributed_sketches(lib)


def whole_stream_blob(lib, inputs) -> bytes:
    """``dumps`` of one sum-merge SALSA-CMS fed the whole stream: what
    the merged shards must equal byte for byte."""
    kind, cls, d, kw, w = _scaleout_shapes(lib)[0]
    sketch = cls(w=w, d=d, seed=0, engine="vector", **kw)
    for chunk in inputs.chunks:
        sketch.update_many(chunk)
    return lib.serialize.dumps(sketch)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """A generated stream plus the truth the checks compare against."""

    workload: str
    seed: int
    length: int
    chunks: list
    #: per chunk: true count of each arriving key before the chunk.
    priors: list
    #: sorted distinct keys and their final true counts.
    flows: np.ndarray
    counts: np.ndarray
    crc: int
    gen_s: float

    def pin(self) -> dict:
        """What proves two runs got identical input."""
        return {"workload": self.workload,
                "preset": WORKLOADS[self.workload],
                "seed": self.seed, "length": self.length,
                "chunk": CHUNK, "chunks": len(self.chunks),
                "distinct": int(len(self.flows)), "crc32": self.crc}


def chunks_crc(chunks) -> int:
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(np.ascontiguousarray(chunk).tobytes(), crc)
    return crc


def make_inputs(lib, workload: str, seed: int, outcome: Outcome) -> Inputs:
    """Generate a workload's chunks and their exact truth.

    The final counts come from the scenario's own
    :class:`StreamingTruth`; the per-chunk prior counts (what an
    on-arrival estimate must not fall below) are computed here and must
    agree with it.
    """
    spec = lib.SCENARIO_SPECS[WORKLOADS[workload]]
    length = LENGTH
    t0 = time.perf_counter()
    chunks = []
    truth = None
    for chunk, truth in spec.build().stream(length, CHUNK, seed):
        chunks.append(chunk)
    gen_s = time.perf_counter() - t0

    items = np.concatenate(chunks)
    flows, inverse = np.unique(items, return_inverse=True)
    running = np.zeros(len(flows), dtype=np.int64)
    priors = []
    pos = 0
    for chunk in chunks:
        ids = inverse[pos:pos + len(chunk)]
        pos += len(chunk)
        priors.append(running[ids])
        np.add.at(running, ids, 1)
    counts = np.array([truth.counts[x] for x in flows.tolist()],
                      dtype=np.int64)
    outcome.check(np.array_equal(counts, running),
                  "streaming truth disagrees with a recount")
    return Inputs(workload, seed, length, chunks, priors, flows, counts,
                  chunks_crc(chunks), gen_s)


# ----------------------------------------------------------------------
# checks and timing
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Checked operations: attempted, failed, and the first errors."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


#: How long the reference task takes on the machine every time is
#: normalised to, and how often a run samples it.
REFERENCE_S = 0.002
REFERENCE_EVERY_S = 0.05

_REFERENCE_KEYS = np.random.default_rng(12345).integers(0, 1 << 40, 16384)
_REFERENCE_ITEMS = list(range(8000))


def reference_task() -> float:
    """Run a fixed task that never changes and return its duration.

    It mixes the library's two kinds of work, an interpreted loop over
    a dict and a NumPy sort.  The machine's speed varies: on a shared
    virtual machine a busy neighbour slows everything by up to 1.7x for
    seconds to minutes.  The ratio of a library call's time to this
    task's time, sampled next to the call, stays within a few percent.
    """
    t0 = time.perf_counter()
    counts = {}
    for x in _REFERENCE_ITEMS:
        counts[x & 255] = counts.get(x & 255, 0) + x
    np.unique(_REFERENCE_KEYS, return_inverse=True)
    return time.perf_counter() - t0


class Timer:
    """Times library calls.

    ``times[op]`` lists the duration of every call of ``op`` and
    ``refs[op]`` the reference-task time sampled next to it: at most
    :data:`REFERENCE_EVERY_S` before it, and right after it as well
    when the call itself takes longer than that.  ``total`` sums every
    timed call.
    """

    def __init__(self):
        self.times = defaultdict(list)
        self.refs = defaultdict(list)
        self.total = 0.0
        self._ref = 0.0
        self._ref_at = float("-inf")

    def _sample(self, runs: int = 1) -> float:
        self._ref = sorted(reference_task() for _ in range(runs))[runs // 2]
        self._ref_at = time.perf_counter()
        return self._ref

    def __call__(self, op: str, fn, *args):
        if time.perf_counter() - self._ref_at > REFERENCE_EVERY_S:
            self._sample()
        before = self._ref
        result, dt = self._measure(op, fn, args)
        # A long call may straddle a change of machine speed, and one
        # short sample is noisy against it: take the median of three
        # samples after it, and the mean with the sample before.
        ref = (before + self._sample(3)) / 2 if dt > REFERENCE_EVERY_S \
            else before
        self.times[op].append(dt)
        self.refs[op].append(ref)
        self.total += dt
        return result

    def _measure(self, op, fn, args):
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0

    def normalised(self, op: str) -> float:
        """Total time of ``op`` at the reference machine speed."""
        refs = self.refs[op]
        return sum(self.times[op]) * REFERENCE_S * len(refs) / sum(refs)


class TracedTimer(Timer):
    """A :class:`Timer` whose calls are root spans of a tracer."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer

    def _measure(self, op, fn, args):
        return self.tracer.call("bench." + op, fn, *args)


#: Rate metrics: name -> (timed operation, work per pass).
RATES = {
    "cms_ingest_mops": ("cms.update_many", lambda inputs: inputs.length),
    "cs_ingest_mops": ("cs.update_many", lambda inputs: inputs.length),
    "cus_ingest_mops": ("cus.update_many", lambda inputs: inputs.length),
    "baseline_ingest_mops": ("baseline.update_many",
                             lambda inputs: inputs.length),
    "cms_query_mops": ("cms.query_many", lambda inputs: inputs.length),
    "cs_query_mops": ("cs.query_many", lambda inputs: inputs.length),
    "cus_query_mops": ("cus.query_many", lambda inputs: inputs.length),
    "feed_mops": ("feed_stream", lambda inputs: 2 * inputs.length),
    "merged_query_mops": ("merged_query",
                          lambda inputs: 2 * len(inputs.flows)),
}
#: Duration metrics: name -> (timed operation, its calls per reported
#: duration).
DURATIONS = {"combine_s": ("combined", 1),
             "roundtrip_s": ("roundtrip", ROUNDTRIPS)}


def pass_metric(name: str, passes: list, inputs) -> list:
    """A rate or duration metric at the reference machine speed, once
    per pass that ran its operation."""
    if name in RATES:
        op, work = RATES[name]
        return [work(inputs) / t.normalised(op) / 1e6
                for t in passes if op in t.times]
    op, calls = DURATIONS[name]
    return [t.normalised(op) / calls for t in passes if op in t.times]


def _crc(est: np.ndarray) -> int:
    return zlib.crc32(est.tobytes())


def aae(est: np.ndarray, counts: np.ndarray) -> float:
    """Average absolute error over every distinct flow."""
    return float(np.abs(est - counts).sum()) / len(counts)


def expect(reference: dict, key: str, value, pinned: dict | None = None):
    """The value a check compares against: the recorded one when the
    seed is pinned, else whatever the first pass of this run saw."""
    if pinned is not None and key in pinned:
        return pinned[key]
    return reference.setdefault(key, value)


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def phase_single(lib, inputs: Inputs, timed, outcome: Outcome,
                 reference: dict, pinned: dict | None = None):
    """Closed-loop on-arrival query + ingest per chunk, four sketches.

    The sketches take turns chunk by chunk, so each one's pass is spread
    over the whole phase rather than a fraction of it, and a slow spell
    of the machine lands on all four alike.  Returns
    ``(AAE values, sketches)``.
    """
    sketches = single_sketches(lib)
    crcs = dict.fromkeys(sketches, 0)
    for i, (chunk, prior) in enumerate(zip(inputs.chunks, inputs.priors)):
        for kind, sketch in sketches.items():
            est = np.asarray(timed(kind + ".query_many", sketch.query_many,
                                   chunk))
            timed(kind + ".update_many", sketch.update_many, chunk)
            crcs[kind] = zlib.crc32(est.tobytes(), crcs[kind])
            if kind in LOWER_BOUNDED:
                outcome.check(bool((est >= prior).all()),
                              f"{kind}: on-arrival estimate below the "
                              f"true count in chunk {i}")
    values = {}
    for kind, sketch in sketches.items():
        crc = crcs[kind]
        outcome.check(expect(reference, kind + ".arrival_crc", crc, pinned)
                      == crc,
                      f"{kind}: on-arrival estimates differ from the "
                      f"recorded ones")
        if kind == "baseline":
            continue
        est = np.asarray(sketch.query_many(inputs.flows))
        if kind in LOWER_BOUNDED:
            outcome.check(bool((est >= inputs.counts).all()),
                          f"{kind}: final estimate below the true count")
        value = aae(est, inputs.counts)
        outcome.check(expect(reference, kind + "_aae", value, pinned)
                      == value,
                      f"{kind}_aae {value!r} differs from the recorded "
                      f"value")
        values[kind + "_aae"] = value
    return values, sketches


def _roundtrip(serialize, sketch):
    blob = serialize.dumps(sketch)
    return blob, serialize.loads(blob, engine="vector")


def phase_scaleout(lib, inputs: Inputs, timed, outcome: Outcome,
                   reference: dict, whole_blob: bytes) -> list:
    """Sharded feed (one ``feed_stream`` call per chunk, the two
    sketches taking turns), then combine, a query of every flow in
    chunks, and :data:`ROUNDTRIPS` wire round trips of each.  Returns
    every local and merged sketch it built."""
    dists = distributed_sketches(lib)
    for chunk in inputs.chunks:
        for dist in dists.values():
            timed("feed_stream", dist.feed_stream, [chunk])
    merged = {kind: timed("combined", dist.combined)
              for kind, dist in dists.items()}
    est = {kind: np.concatenate([
        np.asarray(timed("merged_query", sketch.query_many,
                         inputs.flows[i:i + CHUNK]))
        for i in range(0, len(inputs.flows), CHUNK)])
        for kind, sketch in merged.items()}
    for _ in range(ROUNDTRIPS - 1):
        for sketch in merged.values():
            timed("roundtrip", _roundtrip, lib.serialize, sketch)
    trips = {kind: timed("roundtrip", _roundtrip, lib.serialize, sketch)
             for kind, sketch in merged.items()}
    outcome.check(trips["cms"][0] == whole_blob,
                  "merged sum-merge SALSA-CMS is not byte-equal to the "
                  "whole-stream sketch")
    outcome.check(bool((est["cms"] >= inputs.counts).all()),
                  "merged SALSA-CMS estimate below the true count")
    crc = _crc(est["cs"])
    outcome.check(expect(reference, "cs.merged_crc", crc) == crc,
                  "merged SALSA-CS estimates differ between passes")
    built = []
    for kind, (_blob, clone) in trips.items():
        outcome.check(np.array_equal(
            np.asarray(clone.query_many(inputs.flows)), est[kind]),
            f"{kind}: estimates changed by a dumps/loads round trip")
        built.extend(dists[kind].locals)
        built.extend([merged[kind], clone])
    return built


def salsa_row_events(sketches) -> tuple[int, int]:
    """(merge events, saturations) summed over every SALSA row."""
    merges = saturations = 0
    for sketch in sketches:
        for row in getattr(sketch, "rows", ()):
            merges += getattr(row, "merge_events", 0)
            saturations += getattr(row, "saturations", 0)
    return merges, saturations
