"""Ablation: fairshare decay factor sweep.

The paper says usage "decayed every 24 hours" without the constant
(DESIGN.md substitution #3).  This sweep shows how the choice moves the
fairness metrics under the baseline policy: factor 1.0 never forgets
(long-run FCFS-by-total-usage), factor ~0 forgets daily (near-FCFS).
"""

import pytest

from repro import api
from repro.experiments.config import BenchConfig
from repro.workload.generator import GeneratorConfig, generate_cplant_workload

FACTORS = (0.1, 0.25, 0.5, 0.75, 0.9)


@pytest.fixture(scope="module")
def trace():
    cfg = BenchConfig.from_env()
    return generate_cplant_workload(
        GeneratorConfig(scale=min(cfg.scale, 0.2)), seed=cfg.seed
    )


@pytest.fixture(scope="module")
def sweep(trace):
    return {
        f: api.run(policy="cplant24.nomax.all", workload=trace,
                   options={"overrides": {"decay_factor": f}})
        for f in FACTORS
    }


def test_ablation_decay_factor(benchmark, sweep, emit):
    data = benchmark(lambda: {f: r.percent_unfair for f, r in sweep.items()})
    lines = ["Ablation: fairshare decay factor (baseline scheduler)",
             "factor  %unfair  avg_miss      TAT    LOC%"]
    for f, r in sweep.items():
        lines.append(
            f"{f:6.2f}  {100 * r.percent_unfair:6.2f}%  {r.average_miss_time:8,.0f}"
            f"  {r.summary.avg_turnaround:8,.0f}  {100 * r.loss_of_capacity:5.2f}%"
        )
    emit("ablation_decay", "\n".join(lines))
    assert len(data) == len(FACTORS)
    counts = {r.summary.n_jobs for r in sweep.values()}
    assert len(counts) == 1  # same trace population under every factor
