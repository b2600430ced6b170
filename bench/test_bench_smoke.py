"""Smoke test of the benchmark harness at toy size.

Every workload is run untraced and traced with `--size toy`; the test checks
that each run emits exactly the metrics BENCHMARK.json names, with their
units, and that the traced run records spans for every layer.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tmbench import catalogue, harness, tracer, workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(capsys, work, workload, trace):
    rc = harness.main(["--workload", workload, "--seed", "3",
                       "--seconds", "0.01", "--trace", str(trace),
                       "--size", "toy"], work_root=str(work))
    out = capsys.readouterr().out
    assert rc == 0, out
    return out, json.loads(out.strip().splitlines()[-1])


def test_catalogue_matches_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for key, metrics in (("end_to_end", catalogue.END_TO_END),
                         ("per_layer", catalogue.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] == \
            [(m.name, m.unit, m.better) for m in metrics]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, capsys, tmp_path):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out, result = _run(capsys, tmp_path, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert result["correct"] is True, out
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        emitted = {name: v["unit"] for name, v in result["metrics"].items()}
        assert emitted == expected
        assert all(isinstance(v["value"], float)
                   for v in result["metrics"].values())
    spans_file = tmp_path / f"spans-{workload}-s3.jsonl"
    with open(spans_file, encoding="utf-8") as fh:
        layers = {json.loads(line)["name"].split(".")[0] for line in fh}
    assert set(tracer.LAYERS) <= layers


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "planted_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
