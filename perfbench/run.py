"""The repo benchmark: SALSA ingest, query, merge and wire codec.

Run from the repository root:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, the self-time table and the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, input pin, every sample and its quartiles) goes to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

import layers  # noqa: E402  (the benchmark's own modules, next to this file)
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


# ----------------------------------------------------------------------
# library, provenance, recorded values
# ----------------------------------------------------------------------
def import_library():
    """One setup: import ``repro`` afresh from this checkout and build
    every sketch of a workload.  Returns ``(library, seconds)``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wl.purge_library()
    t0 = time.perf_counter()
    lib = wl.load_library()
    wl.build_all(lib)
    seconds = time.perf_counter() - t0
    origin = Path(sys.modules["repro"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"repro was imported from {origin}, not {SRC}")
    return lib, seconds


def provenance() -> dict:
    """Commit (when the checkout is a git repository), a digest of the
    library source, interpreter and NumPy versions, and cores."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "workload_params": {"length": wl.LENGTH, "chunk": wl.CHUNK,
                                "memory_bytes": wl.MEMORY,
                                "workers": wl.WORKERS, "engine": "vector",
                                "hash_seed": 0}}


def golden_config() -> dict:
    """The workload parameters the recorded values depend on."""
    return {"length": wl.LENGTH, "chunk": wl.CHUNK, "memory": wl.MEMORY}


def load_pinned(workload: str, seed: int) -> dict | None:
    """Recorded values for (workload, seed), or None if not recorded."""
    if not GOLDEN.exists():
        return None
    golden = json.loads(GOLDEN.read_text())
    if golden["config"] != golden_config():
        return None
    return golden["seeds"].get(workload, {}).get(str(seed))


# ----------------------------------------------------------------------
# measurement loops
# ----------------------------------------------------------------------
#: Share of a run's time each phase gets.  The scale-out phase makes
#: few long calls, the single phase many short ones, so the scale-out
#: phase needs more time for as steady a median.
PHASE_SHARE = {"single": 0.4, "scaleout": 0.6}


def run_untraced(inputs, seconds, outcome, pinned, whole_blob):
    """Alternate the two phases until ``seconds`` run out, giving each
    its :data:`PHASE_SHARE` of the time.  Every pass starts with a fresh
    setup (import and build), so setup is sampled across the whole run
    too.  Returns (AAE values, setup times, the passes' timers)."""
    reference: dict = {}
    values: dict = {}
    phases = {
        "single": lambda lib, timer: values.update(wl.phase_single(
            lib, inputs, timer, outcome, reference, pinned)[0]),
        "scaleout": lambda lib, timer: wl.phase_scaleout(
            lib, inputs, timer, outcome, reference, whole_blob),
    }
    passes = []
    setups = []
    spent = dict.fromkeys(phases, 0.0)
    last: dict = {}
    deadline = time.perf_counter() + seconds
    while True:
        phase = min(spent, key=lambda p: spent[p] / PHASE_SHARE[p])
        if len(last) == len(phases) and (
                time.perf_counter() + last[phase] > deadline):
            break
        t0 = time.perf_counter()
        ref = statistics.median(wl.reference_task() for _ in range(3))
        lib, setup = import_library()
        setups.append(setup * wl.REFERENCE_S / ref)
        timer = wl.Timer()
        with collector_paused():
            phases[phase](lib, timer)
        passes.append(timer)
        last[phase] = time.perf_counter() - t0
        spent[phase] += last[phase]
    return values, setups, passes


def run_traced(lib, inputs, seconds, outcome, pinned, whole_blob,
               tracer):
    """Alternate untraced and traced rounds (both phases each) until
    ``seconds`` run out.  Returns (per-layer samples, self-time tables,
    untraced walls, traced walls)."""
    reference: dict = {}
    samples = defaultdict(list)
    tables = []
    walls = {False: [], True: []}
    last: dict = {}
    traced = False
    deadline = time.perf_counter() + seconds
    while True:
        if len(last) == 2 and time.perf_counter() + last[traced] > deadline:
            break
        t0 = time.perf_counter()
        if traced:
            tracer.run += 1
            timer = wl.TracedTimer(tracer)
            layers.install(tracer)
        else:
            timer = wl.Timer()
        try:
            with collector_paused():
                _, single = wl.phase_single(lib, inputs, timer, outcome,
                                            reference, pinned)
                scaled = wl.phase_scaleout(lib, inputs, timer, outcome,
                                           reference, whole_blob)
        finally:
            tracer.uninstall()
        last[traced] = time.perf_counter() - t0
        walls[traced].append(timer.total)
        if traced:
            merges, saturations = wl.salsa_row_events(
                list(single.values()) + scaled)
            got = layers.round_metrics(tracer, tracer.run, merges,
                                       saturations)
            table = layers.self_time_table(tracer, tracer.run)
            accounted = sum(table.values())
            got["trace.wall_s"] = timer.total
            got["trace.unattributed_share"] = (
                (timer.total - accounted) / timer.total)
            outcome.check(
                abs(timer.total - accounted)
                <= layers.SELF_TIME_TOLERANCE * timer.total,
                f"layer self times ({accounted:.3f} s) do not account for "
                f"the traced wall time ({timer.total:.3f} s)")
            tables.append(table)
            for name, value in got.items():
                samples[name].append(value)
        traced = not traced
    return samples, tables, walls[False], walls[True]


@contextmanager
def collector_paused():
    """Run a pass with the cyclic garbage collector off, as ``timeit``
    does, so a collection of unrelated objects lands in no timing."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def summarize(samples: list) -> dict:
    """Median (the reported value), quartiles and count of samples."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def print_table(title, rows, units):
    print(title)
    for name, s in rows.items():
        print(f"  {name:34s} {s['value']:12.6g} {units[name]:7s}"
              f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")


def print_self_times(tables, walls):
    """Median self time and share per layer over the traced rounds, and
    how much of each round's wall time the layers account for."""
    wall = statistics.median(walls)
    names = sorted({n for t in tables for n in t},
                   key=lambda n: -statistics.median(t.get(n, 0.0)
                                                    for t in tables))
    print(f"self time per layer (median of {len(tables)} traced rounds; "
          f"share of the median traced wall time, {wall:.4f} s):")
    for name in names:
        secs = statistics.median(t.get(name, 0.0) for t in tables)
        print(f"  {name:34s} {secs:10.4f} s  {100 * secs / wall:6.2f} %")
    shares = [100 * sum(t.values()) / w for t, w in zip(tables, walls)]
    print(f"  self times account for {min(shares):.2f}-{max(shares):.2f} %"
          f" of each round's traced wall time")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib, _ = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    outcome = wl.Outcome()
    inputs = wl.make_inputs(lib, args.workload, args.seed, outcome)
    pinned = load_pinned(args.workload, args.seed)
    if pinned is not None:
        outcome.check(inputs.crc == pinned["crc32"],
                      "generated input differs from the recorded input")
    whole_blob = wl.whole_stream_blob(lib, inputs)
    prov = provenance()
    print("provenance:", json.dumps(prov, sort_keys=True))
    print("input:", json.dumps(inputs.pin(), sort_keys=True),
          f"generated in {inputs.gen_s:.4f} s;",
          "AAE pinned" if pinned else "seed not recorded: AAE checked "
          "for repeatability only")

    record = {"provenance": prov, "input": inputs.pin(),
              "generator_s": inputs.gen_s, "aae_pinned": pinned is not None,
              "seconds": args.seconds, "trace": args.trace}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        samples, tables, plain, traced = run_traced(
            lib, inputs, args.seconds, outcome, pinned, whole_blob, tracer)
        overhead = statistics.median(traced) - statistics.median(plain)
        samples["trace.overhead_s"] = [overhead]
        samples["trace.overhead_share"] = [
            overhead / statistics.median(plain)]
        specs = layers.PER_LAYER
        summary = {name: summarize(samples[name]) for name, _, _ in specs}
        print_self_times(tables, traced)
        print(f"tracing overhead: {overhead:.4f} s per round "
              f"({statistics.median(plain):.4f} s untraced, "
              f"{statistics.median(traced):.4f} s traced)")
        tracer.dump(OUT / f"spans-{stem}.json.gz")
        record["self_times"] = tables
    else:
        values, setups, passes = run_untraced(inputs, args.seconds, outcome,
                                              pinned, whole_blob)
        specs = wl.END_TO_END
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = {"setup_s": setups, "peak_rss_mb": [rss]}
        for name, _, _ in specs:
            if name in values:
                samples[name] = [values[name]]
            elif name not in samples:
                samples[name] = wl.pass_metric(name, passes, inputs)
        summary = {name: summarize(samples[name]) for name, _, _ in specs}
        record["timings"] = [{"times": dict(t.times), "refs": dict(t.refs)}
                             for t in passes]
    outcome.check(wl.chunks_crc(inputs.chunks) == inputs.crc,
                  "the library modified its input chunks")

    units = {name: unit for name, unit, _ in specs}
    print_table("metrics (median, quartiles and count of per-pass figures):",
                summary, units)
    for error in outcome.errors:
        print("CHECK FAILED:", error, file=sys.stderr)
    record.update(samples=dict(samples), summary=summary,
                  attempted=outcome.attempted, failed=outcome.failed,
                  errors=outcome.errors)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": summary[name]["value"], "unit": unit}
                    for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
