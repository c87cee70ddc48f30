"""Smoke tests of the benchmark: every workload, both modes, small scale.

    python3 -m pytest perfbench/check_smoke.py -q

Named so the repository's own test run does not collect it: each case
runs ``run.py --smoke`` end to end (a small-scale build is cached under
``.bench_build/perfbench/`` on first use), which takes tens of seconds.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from layers import LIVE  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if trace == "0" or metric["name"] in LIVE[workload]:
            assert reported["value"] > 0, metric["name"]


def test_same_seed_gives_same_answer_digest():
    digests = set()
    for _ in range(2):
        done = run_bench("--workload", "cold-detect", "--seed", "3", "--seconds", "1", "--smoke")
        assert done.returncode == 0, done.stderr
        line = next(l for l in done.stdout.splitlines() if "answer digest" in l)
        digests.add(line.split()[2])
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "cold-detect", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
