"""Fast self-test of the benchmark harness, at tiny workload sizes.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
spans of wrapped functions nest and give correct self times, and that the
correctness gate counts the failures it is meant to catch, set-up failures
included.
"""

import dataclasses
import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import workloads  # noqa: E402

TINY = workloads(tiny=True)


def _check_result(out, trace):
    units = run.metric_units(trace)
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    assert set(out["metrics"]) == set(units)
    for name, metric in out["metrics"].items():
        assert metric["unit"] == units[name], name
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
    json.dumps(out, allow_nan=False)


def test_end_to_end_emits_every_metric_with_its_unit():
    gate, metrics = run.end_to_end(TINY["desk"], 5, 0.0, tiny=True)
    out = run.result(gate, metrics, run.metric_units(False))
    _check_result(out, False)
    for name in out["metrics"]:
        assert out["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_layer_metric_with_its_unit(name):
    gate, metrics = run.traced(TINY[name], 5, tiny=True)
    out = run.result(gate, metrics, run.metric_units(True))
    _check_result(out, True)
    # the smoke sequence reaches every traced function on every workload
    for metric, value in out["metrics"].items():
        if metric.endswith(("_s", ".s", "_p50", "_p90", ".calls")):
            assert value["value"] > 0, metric


def _fake_package():
    """fakepkg.layer defines outer and inner; fakepkg.user imports inner."""
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    user = types.ModuleType("fakepkg.user")

    def inner(delay):
        time.sleep(delay)
        return delay

    def outer():
        time.sleep(0.02)
        return layer.inner(0.01) + layer.inner(0.01)

    for fn in (inner, outer):
        fn.__module__ = "fakepkg.layer"
        setattr(layer, fn.__name__, fn)
    user.inner = inner
    return {"fakepkg": pkg, "fakepkg.layer": layer, "fakepkg.user": user}


def test_spans_nest_and_self_time_excludes_children(monkeypatch):
    mods = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    layer, user = mods["fakepkg.layer"], mods["fakepkg.user"]
    original = layer.inner
    t = tr.Tracer({"layer.inner": lambda a, k, r: a[0]})
    t.install(package="fakepkg", layers=("layer",))
    try:
        assert user.inner is layer.inner is not original  # importer patched
        layer.outer()
        user.inner(0.005)
    finally:
        t.uninstall()
    assert layer.inner is original and user.inner is original

    names = [s[tr.NAME] for s in t.spans]
    assert names == ["layer.outer", "layer.inner", "layer.inner",
                     "layer.inner"]
    assert [s[tr.PARENT] for s in t.spans] == [-1, 0, 0, -1]
    assert [s[tr.NOTE] for s in t.spans] == [None, 0.01, 0.01, 0.005]
    own = tr.self_times(t.spans)
    dur = [s[tr.END] - s[tr.START] for s in t.spans]
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert own[1:] == dur[1:]
    assert 0.02 <= own[0] < 0.1  # the 20 ms sleep, without the children
    agg = tr.by_name(t.spans, own)
    assert agg["layer.inner"]["calls"] == 3
    assert agg["layer.outer"]["self_s"] + agg["layer.inner"]["s"] == \
        pytest.approx(dur[0] + dur[3], abs=1e-12)
    assert tr.enclosing(t.spans, 2, "layer.outer") == 0
    assert tr.enclosing(t.spans, 3, "layer.outer") == -1


def test_gate_counts_each_kind_of_failure(tmp_path):
    wl = TINY["desk"]
    gate = run.Gate(wl, 7, check_reference=False)
    argv = ("eval", "--out", "report")
    out = tmp_path / "report"
    out.mkdir()
    (out / "report.json").write_text('{"mse_mean": 1.5}\n')
    assert gate.check("pass", "eval", argv, 0, tmp_path)
    assert gate.check("pass", "eval", argv, 0, tmp_path)  # identical rerun
    (out / "report.json").write_text('{"mse_mean": 1.25}\n')
    assert not gate.check("pass", "eval", argv, 0, tmp_path)
    (out / "report.json").write_text('{"mse_mean": NaN}\n')
    assert not gate.check("pass", "eval", argv, 0, tmp_path)
    assert not gate.check("pass", "eval", argv, 2, tmp_path, "error: boom")
    assert (gate.attempted, gate.failed) == (5, 3)
    assert "not byte-identical" in gate.faults[0]
    assert "non-finite" in gate.faults[1]
    assert "exit code 2" in gate.faults[2]


@pytest.mark.parametrize("trace", [False, True])
def test_failed_setup_still_reports_the_failure(trace):
    wl = dataclasses.replace(TINY["eval_sweep"],
                             setup=(("gen", "--no-such-flag"),))
    if trace:
        gate, metrics = run.traced(wl, 5, tiny=True)
    else:
        gate, metrics = run.end_to_end(wl, 5, 0.0, tiny=True)
    out = run.result(gate, metrics, run.metric_units(trace))
    assert out["correct"] is False
    assert (out["attempted"], out["failed"]) == (1, 1)
    assert gate.faults[0].startswith("setup/gen: exit code 1")
    json.dumps(out, allow_nan=False)


def test_quality_reference_and_band():
    ref = {"desk": {"rel_tol": 1e-6, "values": {"3": 2.0},
                    "band": [1.0, 4.0]}}
    assert run.quality_fault(ref, "desk", 3, 2.0 * (1 + 1e-9)) is None
    assert "drifted" in run.quality_fault(ref, "desk", 3, 2.1)
    assert run.quality_fault(ref, "desk", 4, 3.9) is None
    assert "outside" in run.quality_fault(ref, "desk", 4, 0.5)
    assert "nan" in run.quality_fault(ref, "desk", 4, float("nan"))


def test_parse_importtime_sums_outermost_imports():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        50 |         60 |   numpy",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        700 |   scipy.integrate",
        "import time:        40 |       1000 | hamlearn.physics",
        "import time:         5 |          5 | scipy.special",
    ])
    assert run.parse_importtime(text) == (1000 / 1e6, (700 + 5) / 1e6)
