"""Tests of the benchmark itself: metrics emitted, hooks reached, checkers strict.

    python -m pytest perfbench

The smoke runs use ``--size tiny`` (order 4 and one express target) and
one sample per kind, so the whole module takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hooks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The workload on which each hook must see calls at this commit.
HOOK_WORKLOAD = {
    "diagrams.enumerate": "fourterm",
    "diagrams.canonical": "fourterm",
    "maps.genus": "fourterm",
    "maps.walk": "fourterm",
    "weight_system.poly": "fourterm",
    "weight_system.check": "fourterm",
    "weight_system.quadruples": "fourterm",
    "weight_system.vectors": "quotient",
    "weight_system.express": "relations",
    "polynomials.build": "quotient",
    "polynomials.rank": "quotient",
    "polynomials.solve": "relations",
    "golden.verify": "relations",
}


def cli(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    return {w: run.measure(w, seed=3, seconds=0, trace=True, size="tiny") for w in run.WORKLOADS}


def test_spec_names_match_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace, group", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, group):
    code, lines = cli("--workload", "fourterm", "--size", "tiny", "--seconds", "0", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[group]
    }
    for name in result["metrics"]:
        assert any(line.split()[:1] == [name] for line in lines[:-1])


def test_every_workload_emits_every_metric(traced_runs):
    for name, result in traced_runs.items():
        assert result["correct"], (name, result["failures"])
        assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(result["per_layer"]) == set(run.LAYER_UNITS)
        assert all(m["value"] > 0 for m in result["end_to_end"].values())
        assert result["extra"]["failed_ratio"]["value"] == 0


def test_every_hook_sees_a_call_on_its_workload(traced_runs):
    assert set(HOOK_WORKLOAD) == {h.name for h in hooks.HOOKS}
    for hook, name in HOOK_WORKLOAD.items():
        status = traced_runs[name]["hooks"][hook]
        assert status["status"] == "ok" and status["calls"] >= 1, hook


def test_poly_hit_ratio_counts_calls_without_genus_work():
    import pdgenus

    word = (1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7)  # order 7: no other test computes it
    rec = hooks.Recorder()
    with rec.installed():
        for w in (word, word[1:] + word[:1]):  # the rotation hits the class cache
            pdgenus.pd_genus_polynomial(pdgenus.ChordDiagram(w))
    metrics = hooks.layer_metrics(rec)
    assert metrics["weight_system.poly_calls"] == 2
    assert metrics["weight_system.poly_hit_ratio"] == 0.5


def test_missing_target_is_absent_and_hooks_are_removed_after_use():
    import pdgenus

    original = pdgenus.check_4T
    gone = hooks.Hook("weight_system.gone", "pdgenus.weight_system", "no_such_function")
    rec = hooks.Recorder(hooks.HOOKS + (gone,))
    with rec.installed():
        assert pdgenus.check_4T is not original
    assert pdgenus.check_4T is original
    assert rec.status["weight_system.gone"] == "absent"
    assert hooks.layer_metrics(rec)["trace.hooks_absent"] == 1


def corrupt_fourterm(out):
    return {**out, "violations": 1}


def corrupt_quotient(out):
    return out + 1


def corrupt_relations(out):
    coefficients = [list(c) for c in out["coefficients"]]
    coefficients[0][0] += Fraction(1, 2)
    return {**out, "coefficients": coefficients}


def corrupt_golden(out):
    rows = [dict(r) for r in out["rows"]]
    rows[0]["gamma"] = rows[0]["gamma"][:-1] + [rows[0]["gamma"][-1] + 1]
    return {**out, "rows": rows}


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("fourterm", corrupt_fourterm),
        ("quotient", corrupt_quotient),
        ("relations", corrupt_relations),
        ("relations", corrupt_golden),
    ],
)
def test_a_wrong_output_counts_as_failed(name, corrupt):
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(5, "tiny")
    out = workload.run(inputs)
    attempted, failures = workload.check(inputs, out)
    assert attempted >= 1 and failures == []
    attempted_again, failures = workload.check(inputs, corrupt(out))
    assert attempted_again == attempted and len(failures) >= 1


def test_inputs_depend_only_on_the_seed():
    for name, workload in workloads.WORKLOADS.items():
        assert workload.prepare(7, "bench") == workload.prepare(7, "bench"), name
    assert len({tuple(workloads.relations_prepare(s, "bench")) for s in range(10)}) > 1


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fourterm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and "correct" not in proc.stdout
