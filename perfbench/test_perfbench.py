"""Self-tests of the benchmark: every workload at a tiny size.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import wl_batch  # noqa: E402
import wl_service  # noqa: E402
from hostclock import HostClock  # noqa: E402
from layers import LAYER_TIMES  # noqa: E402

#: tiny sizes: a 5% trace (662 jobs); the paper build at scale 0.05
TINY = 0.05
SCALES = {"batch-cons": TINY, "batch-light": TINY, "service-stream": TINY,
          "paper-build": 0.5}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_end_to_end_metrics(workload):
    res = bench.run(workload, seed=3, seconds=0.2, trace=False,
                    scale=SCALES[workload])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == bench.END_TO_END
    assert all(v["value"] > 0 for v in res["metrics"].values())
    json.dumps(res)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_per_layer_metrics(workload):
    res = bench.run(workload, seed=3, seconds=0.2, trace=True,
                    scale=SCALES[workload])
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == bench.per_layer_units()
    values = {k: v["value"] for k, v in metrics.items()}
    layers = sum(values[k] for k in LAYER_TIMES)
    assert values["other_s"] >= 0
    assert layers + values["other_s"] == pytest.approx(values["traced_wall_s"])
    assert values["untraced_wall_s"] > 0


def _counts(res):
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}


def test_work_counts_repeat_exactly():
    first = bench.run("batch-cons", seed=5, seconds=0, trace=True, scale=TINY)
    again = bench.run("batch-cons", seed=5, seconds=0, trace=True, scale=TINY)
    assert _counts(first) == _counts(again)
    assert _counts(first)["profile.earliest_fit_calls"] > 0
    assert (_counts(first)["profile.earliest_fit_calls"]
            == _counts(first)["ctr.profile.earliest_fit"])


def test_service_work_counts_repeat_exactly():
    first = bench.run("service-stream", seed=5, seconds=0, trace=True, scale=TINY)
    again = bench.run("service-stream", seed=5, seconds=0, trace=True, scale=TINY)
    assert _counts(first) == _counts(again)
    assert _counts(first)["tenancy.admitted"] > 0


def test_wrong_pinned_digest_fails():
    wrong = {"easy.fairshare": "0" * 64}
    with HostClock() as clock:
        tally, _ = wl_batch.measure("batch-light", 3, 0, clock, scale=TINY,
                                    pinned=wrong)
    assert tally.failed > 0


@pytest.mark.parametrize("field", ["digest", "per_user"])
def test_tampered_service_result_fails(field):
    def tamper(result):
        if field == "digest":
            result["digest"] = "0" * 64
        else:
            user = next(iter(result["per_user"]))
            result["per_user"][user]["avg_wait"] += 1.0

    with HostClock() as clock:
        tally, _ = wl_service.measure(3, 0, clock, scale=TINY, tamper=tamper)
    assert tally.failed > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-cons",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
