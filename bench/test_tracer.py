"""Tests of the benchmark's tracer and metric tables.

    python3 -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dynkit  # noqa: E402
from dynkit import cli, phase_space, system  # noqa: E402
from tracer import (  # noqa: E402
    LAYERS, Instrumentation, SpanTable, Tracer, _dynkit_namespaces,
    public_functions,
)


class ScriptedClock:
    """Returns the scripted times in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_children():
    # a[0, 10] holds b[1, 4] and c[5, 9]; c holds d[6, 7]
    tr = Tracer(clock=ScriptedClock([0, 1, 4, 5, 6, 7, 9, 10]))
    with tr.span("a"):
        with tr.span("b"):
            pass
        with tr.span("c"):
            with tr.span("d"):
                pass
    t = SpanTable(tr)
    assert list(t.parent) == [-1, 0, 0, 2]
    assert list(t.dur) == [10, 3, 4, 1]
    assert list(t.self_times()) == [3, 3, 3, 1]
    assert t.self_s("c") == 3
    assert t.inclusive_s("a", "c", "d") == 10
    assert t.inclusive_s("c", "d") == 4
    assert list(t.count_under(("d",), ("a",))) == [1]


def test_nested_spans_of_one_name_count_once():
    # boundary calls erode: morph time must not add the inner erode again
    tr = Tracer(clock=ScriptedClock([0, 2, 3, 5]))
    with tr.span("outer[x]"):
        with tr.span("outer[y]"):
            pass
    t = SpanTable(tr)
    assert t.inclusive_s("outer") == 5
    assert t.inclusive_s("outer[y]") == 1


def _bindings(originals):
    """(where, namespace, key) of every dynkit binding of an original."""
    found = []
    for mod in _dynkit_namespaces():
        for key, value in vars(mod).items():
            if any(value is f for f in originals):
                found.append((mod.__name__, vars(mod), key))
            elif isinstance(value, dict):
                for dkey, dval in value.items():
                    if any(dval is f for f in originals):
                        found.append((f"{mod.__name__}.{key}", value, dkey))
    return found


def test_every_binding_is_replaced_and_restored():
    instr = Instrumentation(Tracer())
    originals = list(instr.functions)
    before = _bindings(originals)
    where = {(w, key) for w, _, key in before}
    # names imported by name elsewhere must be among the bindings
    assert ("dynkit.conley", "chain_recurrent_boxes") in where
    assert ("dynkit.shadowing", "evaluate") in where
    assert ("dynkit.manifolds", "evaluate") in where
    assert ("dynkit.cli", "make_map") in where
    assert ("dynkit.cli._SUBCOMMANDS", "cr") in where
    instr.install()
    try:
        assert _bindings(originals) == []
        for w, ns, key in before:
            assert hasattr(ns[key], "__traced__"), (w, key)
        assert hasattr(phase_space.Grid.nboxes.fget, "__traced__")
        assert hasattr(phase_space.BoxSet.erode, "__traced__")
    finally:
        instr.uninstall()
    assert {(w, key) for w, _, key in _bindings(originals)} == where
    assert not hasattr(dynkit.build_graph, "__traced__")
    assert not hasattr(phase_space.Grid.nboxes.fget, "__traced__")


def test_every_public_function_of_each_layer_is_wrapped():
    instr = Instrumentation(Tracer())
    names = set(instr.functions.values())
    assert LAYERS == ("cli", "chain_graph", "conley", "phase_space", "system",
                      "shadowing", "manifolds")
    for layer in LAYERS:
        mod = sys.modules[f"dynkit.{layer}"]
        for fname in public_functions(mod):
            assert f"{layer}.{fname}" in names


def test_maps_carry_traced_callables():
    tr = Tracer()
    instr = Instrumentation(tr)
    instr.install()
    try:
        m = cli.build_map({"map": {"name": "cat"}})
        system.evaluate(m, np.zeros((5, 2)))
        m.jac(np.zeros((1, 2)))
    finally:
        instr.uninstall()
    assert tr.tally["system.map.forward"] == 1
    assert tr.tally["system.eval_points"] == 5
    assert tr.tally["system.map.jac"] == 1
    assert tr.tally["system.make_map"] == 1
    names = [tr.names[i] for i in tr.name_ids]
    assert names[:3] == ["cli.build_map", "system.make_map", "system.evaluate"]
    assert SpanTable(tr).parent[3] == 2  # forward is a child of evaluate


def test_tracing_leaves_reports_unchanged(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "map": {"name": "cat"}, "eps_box_diameters": 1.0,
        "grid": {"lower": [0, 0], "upper": [1, 1], "periodic": [True, True],
                 "depth": [4, 4]}}))
    out = tmp_path / "out"
    assert cli.run_subcommand("all", str(cfg), str(out), None, None) == 0
    plain = (out / "report.json").read_bytes()
    tr = Tracer()
    instr = Instrumentation(tr)
    instr.install()
    try:
        assert cli.run_subcommand("all", str(cfg), str(out), None, None) == 0
    finally:
        instr.uninstall()
    assert (out / "report.json").read_bytes() == plain
    assert tr.tally["chain_graph.build_graph"] == 4
    assert tr.tally["chain_graph.strongly_connected_components"] == 5
    t = SpanTable(tr)
    assert list(t.count_under(("chain_graph.build_graph",),
                              ("cli.run_subcommand",))) == [4]


def test_benchmark_json_matches_the_metric_tables():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("points,bad", [([[0.0, 0.0]], 0), ([[0.3, 0.1]], 1)])
def test_cat_membership_oracle(points, bad):
    import workloads
    assert workloads.cat_membership(points, [0.0, 0.0]) == bad
