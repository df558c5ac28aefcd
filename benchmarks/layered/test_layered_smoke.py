"""Smoke test of the benchmark: ``PYTHONPATH=src pytest benchmarks/layered``.

Runs every workload once with ``--smoke`` (small inputs, 2 s phases: it
proves the runner works and measures nothing) and checks that what the
runner prints and what ``BENCHMARK.json`` declares are the same catalogue.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from . import compare
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("layered") / "smoke.jsonl"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    printed = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    stored = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(printed) == len(stored) == 2 * len(SPEC["workloads"])
    for shown, record in zip(printed, stored):
        assert set(shown) == {"correct", "attempted", "failed", "metrics"}
        assert shown["metrics"].keys() == record["metrics"].keys()
    return stored


def test_printed_names_are_the_declared_names(records):
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    seen = set()
    for record in records:
        units = {name: entry["unit"] for name, entry in record["metrics"].items()}
        assert units == declared[record["trace"]], (record["workload"], record["trace"])
        seen.add((record["workload"], record["trace"]))
    assert seen == {(w["name"], mode) for w in SPEC["workloads"] for mode in (0, 1)}


def test_declarations_are_complete():
    bounds = {}
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert entry["better"] in ("lower", "higher")
        bounds[entry["name"]] = entry["bound"]
    # The issue's bounds: a tenth on throughput and the median.  A metric
    # that cannot hold its bound is demoted to per-layer, never given a wider
    # one.  Set-up carries the largest (the builder contract asks for that).
    assert bounds["query_qps"] <= 0.10 and bounds["query_p50_ms"] <= 0.10
    assert bounds["setup_s"] == max(bounds.values()) <= 0.15
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for workload in SPEC["workloads"]:
        assert workload["why"].strip() and "\n" not in workload["why"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WORKLOADS


def test_runs_are_correct_and_carry_their_host(records):
    for record in records:
        assert record["correct"] and record["failed"] == 0, record["notes"]
        assert record["attempted"] >= 1
        host = record["host"]
        assert host["nproc"] >= host["generator_threads"]
        assert set(host["blas_threads"].values()) == {"1"}
        assert host["host.calib_evals_per_s"] > 0


def test_traced_phase_attributes_search_time(records):
    for record in records:
        if record["trace"] != 1:
            continue
        metrics = record["metrics"]
        assert metrics["mbi.search_us"]["value"] > 0
        assert 0 <= metrics["mbi.self_us"]["value"] <= metrics["mbi.search_us"]["value"]
        # The spans cover the queries the generator sent, batched or not:
        # per-query layer numbers divide by the former.
        assert 0.98 <= metrics["trace.query_coverage"]["value"] <= 1.02, record["workload"]


def test_compare_fails_when_new_lacks_a_metric(records, tmp_path, capsys):
    old = [record for record in records if record["trace"] == 0]
    new = json.loads(json.dumps(old))
    for name, text in (("old", old), ("same", new)):
        (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in text))
    assert compare.main([str(tmp_path / "old"), str(tmp_path / "same")]) == 0
    del new[0]["metrics"]["query_qps"]
    (tmp_path / "new").write_text("".join(json.dumps(r) + "\n" for r in new))
    assert compare.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    assert "missing" in capsys.readouterr().out
