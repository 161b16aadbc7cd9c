"""Ablation: starvation-queue entry threshold sweep (12/24/48/72/120 h).

The paper compares 24 h vs 72 h; the sweep fills in the curve.  Expected:
longer thresholds reduce how many jobs jump the fairshare order (fewer
unfair jobs) but the jobs that do starve wait longer (larger misses for
the wide categories).
"""

import pytest

from repro import api
from repro.experiments.config import BenchConfig
from repro.workload.generator import GeneratorConfig, generate_cplant_workload

HOUR = 3600.0
THRESHOLDS = (12, 24, 48, 72, 120)


@pytest.fixture(scope="module")
def trace():
    cfg = BenchConfig.from_env()
    return generate_cplant_workload(
        GeneratorConfig(scale=min(cfg.scale, 0.2)), seed=cfg.seed
    )


@pytest.fixture(scope="module")
def sweep(trace):
    return {
        h: api.run(
            policy="cplant24.nomax.all", workload=trace,
            options={"overrides": {"starvation_threshold": h * HOUR}},
        )
        for h in THRESHOLDS
    }


def test_ablation_starvation_threshold(benchmark, sweep, emit):
    data = benchmark(lambda: {h: r.percent_unfair for h, r in sweep.items()})
    lines = ["Ablation: starvation-queue entry threshold (baseline scheduler)",
             "hours  %unfair  avg_miss      TAT    LOC%"]
    for h, r in sweep.items():
        lines.append(
            f"{h:5d}  {100 * r.percent_unfair:6.2f}%  {r.average_miss_time:8,.0f}"
            f"  {r.summary.avg_turnaround:8,.0f}  {100 * r.loss_of_capacity:5.2f}%"
        )
    emit("ablation_starvation", "\n".join(lines))
    assert len(data) == len(THRESHOLDS)
