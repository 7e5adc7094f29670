"""BENCHMARK.json against the benchmark contract's grammar and limits."""

import json
import os
import re

import pytest

from perfbench import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    DOC = json.load(fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_shape():
    assert set(DOC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert DOC["command"][0] == "python3" and len(DOC["command"]) <= 32
    assert all(len(a) <= 200 and not a.startswith("/") and ".." not in a
               for a in DOC["command"])
    assert 1 <= len(DOC["paths"]) <= 16
    for p in DOC["paths"]:
        assert PATH.match(p) and ".." not in p and not p.startswith("/")
        assert os.path.isdir(os.path.join(run.ROOT, p))
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60


def test_workloads_match_the_runner():
    names = [w["name"] for w in DOC["workloads"]]
    assert 2 <= len(names) <= 8
    assert tuple(names) == run.WORKLOAD_NAMES
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_metric_name_grammar(section):
    metrics = DOC[section]
    names = [m["name"] for m in metrics]
    everything = [w["name"] for w in DOC["workloads"]] + [
        m["name"] for s in ("end_to_end", "per_layer") for m in DOC[s]]
    assert len(everything) == len(set(everything)), "a name is used twice"
    keys = {"name", "unit", "better", "bound"} if section == "end_to_end" \
        else {"name", "unit", "better"}
    for m in metrics:
        assert set(m) == keys, m
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    limit = (1, 16) if section == "end_to_end" else (1, 128)
    assert limit[0] <= len(names) <= limit[1]


def test_bounds_and_setup_metric():
    e2e = {m["name"]: m for m in DOC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())


def test_runner_reports_every_declared_metric():
    e2e = {m["name"]: (1.0, m["unit"], 3) for m in DOC["end_to_end"]}
    extra = {"compile_ms_p50": (2.0, "ms", 50)}
    assert run.select({**e2e, **extra}, (), "end_to_end") == e2e
    with pytest.raises(RuntimeError, match="was not measured"):
        run.select({k: v for k, v in e2e.items() if k != "setup_s"}, (),
                   "end_to_end")
    with pytest.raises(RuntimeError, match="declared in s"):
        run.select({**e2e, "setup_s": (1.0, "ms", 3)}, (), "end_to_end")
    with pytest.raises(RuntimeError, match="untouched"):
        run.select(e2e, {"setup_s"}, "end_to_end")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untouched_layers_are_declared_and_not_times(name):
    from perfbench.workloads import WORKLOADS

    units = {m["name"]: m["unit"] for m in DOC["per_layer"]}
    untouched = WORKLOADS[name].UNTOUCHED
    assert untouched <= set(units)
    assert not any(units[m] in run.TIME_UNITS for m in untouched)
    layers = {m: (0.5, u, 1) for m, u in units.items() if m not in untouched}
    chosen = run.select(layers, untouched, "per_layer")
    assert list(chosen) == list(units)
    assert all(chosen[m] == (0.0, units[m], 0) for m in untouched)
    with pytest.raises(RuntimeError, match="untouched"):
        run.select({**layers, **{m: (0.5, units[m], 1) for m in untouched}},
                   untouched, "per_layer")
