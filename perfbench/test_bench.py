"""Tests of the benchmark itself: output schema, count check, patching.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They use a tiny config, so they take seconds.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import procplan  # noqa: E402
from procplan import pipeline  # noqa: E402

import bench  # noqa: E402
import tracer as tr  # noqa: E402

TINY = {
    "data.videos_per_task": "4",
    "data.obs_dim": "8",
    "data.text_dim": "4",
    "schedule.steps": "20",
    "vae.epochs": "2", "vae.steps_per_epoch": "10", "vae.batch_size": "16",
    "classifier.epochs": "2", "classifier.steps_per_epoch": "10",
    "classifier.batch_size": "16",
    "diffusion.epochs": "2", "diffusion.steps_per_epoch": "10",
    "diffusion.batch_size": "8", "diffusion.warmup_epochs": "1",
}


def _spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny(tmp_path, **fields) -> bench.Workload:
    probe = tmp_path / "probe"
    info = pipeline.generate_dataset(bench.workload_config(
        bench.Workload("probe", TINY, 0, (), (), 1), 0), str(probe))
    base = dict(name="tiny", overrides=TINY, plans=info["test_samples"],
                setup_stages=(), timed_stages=bench.STAGES, setup_passes=2)
    base.update(fields)
    return bench.Workload(**base)


def _run(tmp_path, workload, trace, seconds=0.0):
    return bench.benchmark(workload, seed=0, seconds=seconds, trace=trace,
                           out_dir=str(tmp_path / "out"), import_s=0.1,
                           repo_root=REPO, blas_threads="1")


def _check_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    json.dumps(result)


PLAN_H6_SHAPE = dict(setup_stages=bench.STAGES, timed_stages=())


@pytest.mark.parametrize("shape", ["desk", "plan-h6"])
def test_untraced_result_matches_declared_end_to_end_metrics(tmp_path, shape):
    fields = {} if shape == "desk" else PLAN_H6_SHAPE
    # On the plan-h6 shape a unit is one tiny evaluate, so a second of
    # measuring repeats it and evaluate alternates the two workdirs.
    seconds = 0.0 if shape == "desk" else 1.0
    result, record = _run(tmp_path, _tiny(tmp_path, **fields), trace=False, seconds=seconds)
    assert len(record["timings"]["units_s"]) > (shape != "desk")
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0
    _check_schema(result, _spec()["end_to_end"])
    for name in ("setup_s", "wall_s", "train_samples_per_s", "plans_per_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("shape", ["desk", "plan-h6"])
def test_traced_result_matches_declared_per_layer_metrics(tmp_path, shape):
    fields = {} if shape == "desk" else PLAN_H6_SHAPE
    result, record = _run(tmp_path, _tiny(tmp_path, **fields), trace=True)
    assert record["problems"] == []
    assert result["correct"] and result["failed"] == 0
    _check_schema(result, _spec()["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["denoiser.forward.calls"] == 20 + 20
    assert metrics["optim.adamw_step.calls"] == 20 + 20 + 20
    if shape == "plan-h6":
        assert metrics["pipeline.train_stage.diffusion.s"] > 0
    for phase in tr.PHASES:
        assert metrics[phase + ".untraced_s"] <= metrics[phase + ".s"]


def _bindings() -> dict:
    """Identity of every name bound in procplan modules and classes."""
    seen = {}
    for module in tr.procplan_modules():
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    seen[(module.__name__, attr, name)] = id(member)
    return seen


def test_tracer_restores_every_patched_name(tmp_path):
    before = _bindings()
    _run(tmp_path, _tiny(tmp_path), trace=True)
    assert _bindings() == before


def test_tracer_restores_names_when_the_traced_code_raises():
    before = _bindings()
    tracer = tr.Tracer()
    with pytest.raises(ValueError):
        with tracer:
            assert procplan.denoiser.gelu is procplan.tensor.gelu
            assert procplan.denoiser.gelu.__wrapped__ is not None
            procplan.denoiser.timestep_embedding(0, 10)
    assert _bindings() == before
    assert [s[0] for s in tracer.spans] == ["denoiser.timestep_embedding"]


def test_count_check_fails_when_a_binding_is_missed(tmp_path, monkeypatch):
    # Patch only the defining modules: calls that reach adamw_step through
    # pipeline, vae and classifier then escape the tracer.
    defining = {"procplan." + t.module for t in tr.TARGETS}
    everything = tr.procplan_modules
    monkeypatch.setattr(tr, "procplan_modules",
                        lambda: [m for m in everything() if m.__name__ in defining])
    result, record = _run(tmp_path, _tiny(tmp_path), trace=True)
    assert not result["correct"]
    assert any(p.startswith("optim.adamw_step.calls") for p in record["problems"])


def test_sr_floor_failure_is_reported(tmp_path):
    result, record = _run(tmp_path, _tiny(tmp_path, sr_floor=1.01), trace=False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("floor" in p for p in record["problems"])


def test_run_without_sources_exits_nonzero(tmp_path):
    lone = tmp_path / "perfbench"
    lone.mkdir()
    for name in ("run.py", "bench.py", "tracer.py"):
        (lone / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(lone / "run.py"), "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
