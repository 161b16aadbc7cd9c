"""Simulation throughput per policy: how fast each scheduler chews
through a fixed trace.  This is the only benchmark family where wall-clock
time is itself the result."""

import pytest

from repro import api
from repro.sched.registry import PAPER_POLICIES
from repro.workload.generator import GeneratorConfig, generate_cplant_workload


@pytest.fixture(scope="module")
def timing_trace():
    # small and fixed regardless of REPRO_BENCH_SCALE: these runs are
    # repeated by the timer
    return generate_cplant_workload(GeneratorConfig(scale=0.05, weeks=5), seed=13)


@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_policy_simulation_speed(benchmark, timing_trace, policy):
    run = benchmark.pedantic(
        api.run, kwargs={"policy": policy, "workload": timing_trace},
        rounds=2, iterations=1,
    )
    assert run.summary.n_jobs == len(timing_trace)
