"""Self-check of the benchmark harness; run with ``python3 -m pytest bench``.

It drives the tiny ``compare`` instance FI(chain3, Z/4) through the same
code path as the benchmark workloads, so the harness cannot go stale.
"""

import json
import os
import shutil
import subprocess
import sys

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def test_untraced_run_reports_every_end_to_end_metric():
    result, details = run.measure("selfcheck-chain3", 1, trace=False)
    assert details["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_and_matches_untraced_bytes():
    result, details = run.measure("selfcheck-chain3", 3, trace=True)
    assert details["failures"] == []
    reports = []
    for mode in ("untraced", "traced"):
        with open(os.path.join(run.WORK, f"selfcheck-chain3.{mode}.json"), "rb") as handle:
            reports.append(handle.read())
    assert reports[0] == reports[1]
    assert result["correct"] and details["samples"]["traced"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(type(v) is int for k, v in layers.items() if result["metrics"][k]["unit"] == "count")
    assert layers["zmodlin.kernel_calls"] == 2
    assert layers["solver.check_map_calls"] == layers["zmodlin.kernel_gens"]
    assert (layers["solver.der_rows"], layers["solver.jder_rows"]) == (62, 98)
    # Raw rows at rank 6: 6^3 = 216 for Der, 6 * (6 + 15 + 36 + 90) = 882 for JDer.
    assert layers["solver.rows_kept_ratio"] == (62 + 98) / (216 + 882)


def test_wrong_report_counts_as_failed(monkeypatch):
    instance, command, _ = run.WORKLOADS["selfcheck-chain3"]
    monkeypatch.setitem(run.WORKLOADS, "selfcheck-chain3",
                        (instance, command, run._check_compare(6, 4 ** 6)))
    result, details = run.measure("selfcheck-chain3", 0, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"]
    assert "4096" in details["failures"][0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "selfcheck-chain3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
