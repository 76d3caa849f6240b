"""Smoke-size checks of the benchmark itself.

Run from the repository root:  python3 -m pytest -q benchmarks
"""
from __future__ import annotations

import gc
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # also puts the library and tests/synthetic.py on sys.path
from tracer import Tracer, metric_names
from workloads import OT, SMOKE, WORKLOADS, yardstick_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = run.SPEC

# Counts that later changes may cite: they must repeat exactly per seed.
FIXED = ("tensor.nodes", "tensor.matmul.flops", "transport.ipot.cells",
         "encoder.forward.calls", "encoder.forward.rows", "hybrid.phrase_step_share",
         "trace.spans")


def _metrics(workload: str, trace: bool, seed: int = 3) -> dict:
    result, _, _ = run.run(workload, seed, 0.0, trace, sizes=SMOKE)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == metric_names()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _metrics(workload, trace=False)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first = _metrics(workload, trace=True)
    second = _metrics(workload, trace=True)
    assert list(first) == metric_names()
    counts = [n for n in first if n.endswith(".calls") or n in FIXED]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_each_workload_loads_the_layers_it_was_chosen_for():
    phrase = _metrics("pretrain_phrase", trace=True)
    assert all(phrase[n] == 0 for n in phrase
               if n.startswith(("transport.", "crossattn.")) and n.endswith(".calls"))
    assert phrase["hybrid.phrase_step_share"] > 0
    ot = _metrics("pretrain_pairs_ot", trace=True)
    assert ot["transport.ipot.calls"] > 0 and ot["crossattn.triplet_loss.calls"] == 0
    attention = _metrics("pretrain_pairs_attention", trace=True)
    assert attention["crossattn.triplet_loss.calls"] > 0 and attention["transport.ipot.calls"] == 0
    infer = _metrics("infer", trace=True)
    assert infer["tensor.backward.calls"] == 0 and infer["training.adam_step.calls"] == 0
    assert infer["training.load_checkpoint.calls"] == 1 and infer["transport.ipot.calls"] > 0


def test_yardstick_leaves_no_objects_for_the_collector():
    gc.disable()
    try:
        before = gc.get_count()[0]
        assert yardstick_ms() > 0
        assert gc.get_count()[0] == before
    finally:
        gc.enable()


def test_tracer_restores_the_library():
    import domainlm
    from domainlm import encoder, tensor, training
    before = (tensor.matmul, training.forward, encoder.forward, domainlm.backward)
    with Tracer():
        assert training.forward is not before[1] and training.forward.__wrapped__ is before[1]
    assert (tensor.matmul, training.forward, encoder.forward, domainlm.backward) == before


def test_a_failed_output_check_marks_the_run_incorrect(monkeypatch):
    monkeypatch.setattr(OT, "alignment_matrix", lambda plan: plan.values)
    result, lines, _ = run.run("infer", 3, 0.0, False, sizes=SMOKE)
    assert not result["correct"]
    assert result["failed"] == SMOKE.n_pairs and result["attempted"] == SMOKE.n_pairs + 1
    assert any(line.startswith("check failed: align") for line in lines)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "infer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
