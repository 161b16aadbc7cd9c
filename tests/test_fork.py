"""Copy-on-write engine forks: shared finished history, copied frontier.

``Engine.fork()`` shares completed jobs with its parent by identity and
copies only the live frontier (pending, queued and running jobs, events,
scheduler and observer state).  The referee throughout is a plain
``copy.deepcopy`` of the engine, which shares nothing: a fork must drain
to the same digest as the referee, and draining a fork must never disturb
the parent.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro import api
from repro.core.job import JobState
from repro.obs import counters
from repro.obs.trace import TraceObserver
from repro.sched.registry import get_policy, policy_names
from repro.workload.generator import GeneratorConfig, generate_cplant_workload

#: every policy an incremental session accepts (no runtime-limit transform)
SESSION_POLICIES = [p for p in policy_names() if get_policy(p).max_runtime is None]

FORK_POINTS = (0.25, 0.5, 0.75)


@pytest.fixture(scope="module")
def trace():
    return generate_cplant_workload(GeneratorConfig(scale=0.03), seed=11)


def _completed_by_scan(engine):
    return sum(1 for j in engine.jobs if j.state is JobState.COMPLETED)


def test_session_policies_are_those_a_session_accepts():
    for policy in policy_names():
        try:
            api.open_session(policy=policy, system_size=64)
        except ValueError:
            assert policy not in SESSION_POLICIES
        else:
            assert policy in SESSION_POLICIES


@pytest.mark.parametrize("policy", SESSION_POLICIES)
def test_fork_matches_deepcopy_referee(trace, policy):
    horizon = max(j.submit_time for j in trace.jobs)
    live = api.open_session(policy=policy, workload=trace)
    for q in FORK_POINTS:
        live.advance(q * horizon)
        engine = live.engine
        fst = engine.observers[0].fst
        fst_before = dict(fst)
        referee = copy.deepcopy(engine)
        fork = engine.fork()

        # finished history is shared, the live frontier is not
        assert len(fork.jobs) == len(engine.jobs)
        n_live = 0
        for mine, theirs in zip(engine.jobs, fork.jobs):
            if mine.state is JobState.COMPLETED:
                assert theirs is mine
            else:
                n_live += 1
                assert theirs is not mine
                assert (theirs.id, theirs.state, theirs.start_time) \
                    == (mine.id, mine.state, mine.start_time)
        assert engine.jobs_completed == _completed_by_scan(engine)
        assert engine.jobs_completed == len(engine.jobs) - n_live

        assert fork.finish().digest() == referee.finish().digest()

        # a drained fork with a changed scheduler leaves the parent alone
        variant = engine.fork()
        variant.scheduler.tracker.decay_factor = 0.9
        variant.finish()
        assert not engine.finished
        assert fst == fst_before

    batch = api.run(policy=policy, workload=trace)
    assert live.finish().result.digest() == batch.digest()


def test_fork_counters_pin_the_live_frontier(trace):
    # streamed like the service: 300 jobs submitted, the clock just before
    # the 301st arrival, so the frontier is the queued and running jobs
    jobs = sorted(trace.jobs, key=lambda j: (j.submit_time, j.id))
    live = api.open_session(policy="easy.fairshare",
                            system_size=trace.system_size)
    live.submit(jobs[:300])
    live.advance(jobs[300].submit_time, inclusive=False)
    engine = live.engine
    with counters.collect() as c:
        engine.fork()
        engine.fork()
    # a fork copies the frontier, never the history: a regression that
    # copies every registered job again shows up here as a count change
    assert c.get("engine.fork") == 2
    assert c.get("engine.fork_live_jobs") == 2 * 14
    assert engine.jobs_completed == 286


def test_whatif_counts_completed_jobs_without_a_scan(trace):
    live = api.open_session(policy="easy.fairshare", workload=trace)
    live.advance(300000.0)
    scan = _completed_by_scan(live.engine)
    assert scan > 0
    assert live.whatif({"decay_factor": 0.9})["jobs_completed_before_fork"] == scan


def test_whatif_on_a_file_traced_session(trace, tmp_path):
    """A fork records into an in-memory ring: the live trace file holds
    exactly the records of an identical session that never forked."""

    def traced_run(path, ask):
        obs = TraceObserver(path)
        live = api.open_session(policy="easy.fairshare", workload=trace,
                                observers=[obs])
        live.advance(200000.0)
        reply = live.whatif({"decay_factor": 0.9}) if ask else None
        return reply, live.finish().result.digest()

    reply, digest = traced_run(tmp_path / "forked.jsonl", ask=True)
    _, untouched = traced_run(tmp_path / "plain.jsonl", ask=False)
    assert reply["baseline"]["digest"] == digest == untouched
    forked = (tmp_path / "forked.jsonl").read_text()
    assert forked == (tmp_path / "plain.jsonl").read_text()
    assert json.loads(forked.splitlines()[-1])["ev"] == "end"


def test_fork_of_a_ring_traced_engine_keeps_the_parent_ring(trace):
    obs = TraceObserver()
    live = api.open_session(policy="easy.fairshare", workload=trace,
                            observers=[obs])
    live.advance(200000.0)
    before = list(obs.records)
    fork = live.engine.fork()
    twin = fork.observers[-1]
    assert twin is not obs and list(twin.records) == before
    fork.finish()
    assert list(obs.records) == before
    assert twin.records[-1]["ev"] == "end"
