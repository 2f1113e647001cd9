"""Tests of the benchmark itself: the tracer's self-time accounting,
function patching, the metric lists, and a tiny smoke run of every
workload with all of its output checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

import layers
import run
import workloads as wl
from tracer import Tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class Worker:
    def leaf(self, secs):
        time.sleep(secs)

    def inner(self, n):
        time.sleep(0.01)
        for _ in range(n):
            self.leaf(0.002)
        return n

    def outer(self):
        return self.inner(2) + self.inner(3)


@pytest.fixture
def traced_worker():
    tracer = Tracer()
    originals = dict(vars(Worker))
    for attr in ("outer", "inner"):
        tracer.install(Worker, attr, tracer.span_wrapper(
            attr, vars(Worker)[attr],
            lambda counts, args, kwargs, result:
                counts.__setitem__("n", result)))
    tracer.install(Worker, "leaf", tracer.leaf_wrapper(
        "leaf", vars(Worker)["leaf"]))
    yield tracer
    tracer.uninstall()
    for attr in ("outer", "inner", "leaf"):
        assert vars(Worker)[attr] is originals[attr]


def test_nested_calls_are_not_double_counted(traced_worker):
    tracer = traced_worker
    root, dt = tracer.call("root", Worker().outer)
    assert root == 5
    names = [s.name for s in tracer.spans]
    assert names == ["root", "outer", "inner", "inner"]
    top = tracer.spans[0]
    assert dt == top.duration
    selfs = tracer.self_times()
    # Self times partition the root span exactly.
    assert sum(selfs.values()) == pytest.approx(top.duration, abs=1e-9)
    # Children and leaves are subtracted from their parents.
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert tracer.spans[1].self_time < 0.005
    assert selfs["leaf"] >= 5 * 0.002
    assert selfs["inner"] >= 2 * 0.01
    assert selfs["inner"] < 2 * 0.01 + 0.01
    # Leaves are aggregated on the innermost span, not stored as spans.
    assert [s.leaves["leaf"][0] for s in inner] == [2, 3]
    assert [s.counts["n"] for s in inner] == [2, 3]
    assert [s.parent for s in inner] == [1, 1]


def test_leaf_inside_leaf_counts_once():
    tracer = Tracer()
    calls = []

    def inner_leaf():
        calls.append("in")

    wrapped_inner = tracer.leaf_wrapper("leaf", inner_leaf)

    def outer_leaf():
        wrapped_inner()
        wrapped_inner()

    wrapped_outer = tracer.leaf_wrapper("leaf", outer_leaf)
    tracer.call("root", wrapped_outer)
    assert calls == ["in", "in"]
    assert tracer.spans[0].leaves["leaf"][0] == 1


def test_install_function_patches_by_name_imports(tmp_path):
    def f(x):
        return x + 1

    home = types.ModuleType("pbfake")
    home.f = f
    user = types.ModuleType("pbfake.user")
    user.g = f
    sys.modules.update({"pbfake": home, "pbfake.user": user})
    try:
        tracer = Tracer()
        patched = tracer.install_function(
            f, tracer.span_wrapper("f", f), "pbfake")
        assert patched == 2
        tracer.call("root", lambda: home.f(1) + user.g(2))
        assert [s.name for s in tracer.spans] == ["root", "f", "f"]
        tracer.uninstall()
        assert home.f is f and user.g is f
    finally:
        del sys.modules["pbfake"], sys.modules["pbfake.user"]


# ----------------------------------------------------------------------
# metric lists and recorded values
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]] == wl.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def test_golden_matches_the_workload_config():
    golden = json.loads(run.GOLDEN.read_text())
    assert golden["config"] == run.golden_config()
    assert set(golden["seeds"]) == set(wl.WORKLOADS)


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
@pytest.fixture
def isolated_library(tmp_path, monkeypatch):
    """A tiny stream (no recorded values exist for it); outputs kept out
    of the tree; and, since the benchmark re-imports ``repro``, the
    modules other tests hold put back afterwards."""
    saved = {name: mod for name, mod in sys.modules.items()
             if name == "repro" or name.startswith("repro.")}
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(wl, "LENGTH", 16384)
    yield tmp_path
    wl.purge_library()
    sys.modules.update(saved)


@pytest.mark.parametrize("workload,trace", [
    ("stationary", 0), ("churn", 1), ("scaleout", 0)])
def test_smoke_run(workload, trace, isolated_library, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds",
                     "0", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["row.add.calls"] > 0
        assert metrics["ops.walk_counters"] > 0
        assert metrics["serialize.blob_bytes"] > 0
        assert abs(metrics["trace.unattributed_share"]) <= 0.10
        assert (isolated_library
                / f"spans-{workload}-seed3-trace1.json.gz").exists()
    else:
        # A tiny stream may leave an AAE at zero; nothing else can be.
        assert all(v["value"] > 0 for k, v in result["metrics"].items()
                   if not k.endswith("_aae"))
    record = json.loads((isolated_library
                         / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["input"]["length"] == 16384
    assert record["provenance"]["nproc"] >= 1


class Undercount:
    """A sketch that answers one below the truth it was fed."""

    def __init__(self, sketch):
        self.sketch = sketch
        self.rows = sketch.rows

    def update_many(self, items):
        self.sketch.update_many(items)

    def query_many(self, items):
        return [v - 1 for v in self.sketch.query_many(items)]


def test_a_wrong_estimate_fails_the_run(isolated_library, capsys,
                                        monkeypatch):
    real = wl.single_sketches

    def broken(lib):
        sketches = real(lib)
        sketches["cms"] = Undercount(sketches["cms"])
        return sketches

    monkeypatch.setattr(wl, "single_sketches", broken)
    code = run.main(["--workload", "stationary", "--seed", "3",
                     "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
