"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--size", "tiny")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3  # elimination check and two passes
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"{name} = " in proc.stdout


def test_end_to_end_metrics_are_positive():
    result = result_of(bench("--workload", "lattice", "--seed", "4", "--seconds", "0.1",
                             "--size", "tiny"))
    for name, m in result["metrics"].items():
        assert m["value"] > 0, name


def checker(digests=None):
    return workloads.Checker(run.import_fatpt(), {} if digests is None else digests)


def _report(argv):
    code, text = run.call(run.import_fatpt()["cli"], argv)
    assert code == 0
    return text


def test_altered_report_fails_the_recorded_digest():
    digests = workloads.load_digests()
    req = workloads.Request(["hilbert", "--mults", workloads.ACCEPTANCE_SCHEMES[1]], "hilbert")
    assert req.key in digests
    text = _report(req.argv)
    assert checker(digests).check(req, 0, text).failed == 0
    altered = text.replace('"value": ', '"value": 1', 1)
    verdict = checker(digests).check(req, 0, altered)
    assert verdict.failed == 1
    assert "recorded digest" in verdict.problems[0]


def test_altered_resolution_fails_the_hilbert_consistency_check():
    req = workloads.Request(["resolution", "--mults", "5,4,3,3,2,2,1"], "resolution")
    text = _report(req.argv)
    assert checker().check(req, 0, text).failed == 0
    report = json.loads(text)
    row = next(r for r in report["rows"] if isinstance(r["generators"], int) and r["generators"])
    row["generators"] += 1
    altered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    verdict = checker().check(req, 0, altered)
    assert verdict.failed == 1
    assert "resolution" in verdict.problems[0]


def test_report_that_changes_between_passes_fails():
    req = workloads.Request(["sweep", "--max-degree", "10", "--seed", "5"], "sweep")
    fresh = checker()
    text = _report(req.argv)
    assert fresh.check(req, 0, text).failed == 0
    assert fresh.check(req, 0, text.replace("\n", "\n ", 1)).failed == 1


def test_skipped_and_violating_rows_count_as_failed_operations():
    req = workloads.Request(["sweep", "--max-degree", "13", "--verify"], "sweep")
    report = json.loads(_report(req.argv))
    (row,) = report["verification"]
    report["verification"] = [dict(row, match=False), {"class": row["class"], "m": 1, "skipped": "x"}]
    report["escapes"] = report["escapes"] * 2
    report["violations"] = 1
    text = json.dumps(report)
    verdict = checker().check(req, 0, text)
    assert verdict.attempted == 3
    # the request (escape count and violations) plus both rows
    assert verdict.failed == 3


def test_unexpected_exit_code_is_a_failure():
    req = workloads.Request(["sweep", "--max-degree", "10"], "sweep")
    text = _report(req.argv)
    assert checker().check(req, 3, text).failed == 1


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
