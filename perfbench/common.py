"""Inputs, correctness oracles and statistics shared by the workloads."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

#: the generator seed of the calibrated trace; its digests are pinned below
PINNED_SEED = 7

#: ``SimulationResult.digest()`` of each batch policy on the full calibrated
#: trace (scale 1.0, seed 7), as recorded in BENCH_4.json
PINNED_DIGESTS: Dict[str, str] = {
    "cons.nomax": "302101f78e39ad2a6d04411c3d895e64c552065216306b5609bf0c034788fa30",
    "consdyn.nomax": "254ee1b0d761e6a6c656cdad328ef149929b7cbb7710244425a862aec977075a",
    "cplant24.nomax.all": "109589f395b8f8c0c45b760d51fb4cad1c90c0b77c2f740f9a604def7ce641fc",
    "easy.fairshare": "501e0e6791b079953083fa0575395a2f99038a94289dde7b7978f9a62cb66b7a",
}


# -- inputs ----------------------------------------------------------------------


def calibrated_trace(scale: float):
    """The calibrated synthetic CPlant/Ross trace (generator seed 7)."""
    from repro.workload.generator import GeneratorConfig, generate_cplant_workload

    return generate_cplant_workload(GeneratorConfig(scale=scale), seed=PINNED_SEED)


def seeded_trace(base, seed: int):
    """The benchmark input for ``seed``: the calibrated trace with its
    (user, group) column shuffled across jobs by ``seed``.

    Job sizes, runtimes, estimates and arrival times -- the weekly load
    profile that sets how much work a simulation does -- are kept, while
    who owns each job, and so every fairshare decision, changes with the
    seed.  The pinned seed returns the calibrated trace itself, whose
    digests are recorded.
    """
    if seed == PINNED_SEED:
        return base
    from repro.workload.model import Workload

    owners = [(j.user_id, j.group_id) for j in base.jobs]
    perm = np.random.default_rng(seed).permutation(len(owners))
    jobs = [
        dataclasses.replace(j, user_id=owners[k][0], group_id=owners[k][1])
        for j, k in zip(base.jobs, perm)
    ]
    return Workload(jobs=jobs, system_size=base.system_size,
                    name=f"{base.name}+owners(seed={seed})")


@contextmanager
def work_dir(name: str):
    """A private working directory under ``.perfbench_work`` in the current
    directory (the checkout), removed with its parent when empty."""
    parent = Path.cwd() / ".perfbench_work"
    path = parent / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            parent.rmdir()
        except OSError:
            pass


@contextmanager
def one_cpu():
    """Pin this thread, and the threads and processes it starts (affinity is
    inherited), to one CPU for the duration."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# -- correctness -----------------------------------------------------------------


class Tally:
    """Attempted/failed bookkeeping; every operation and every oracle check
    counts as one attempt, and each failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[perfbench] FAILED: {what}", file=sys.stderr, flush=True)
        return ok


def conservation_errors(jobs: Sequence, trace_ids: Sequence[int],
                        metric_jobs: Sequence, system_size: int) -> List[str]:
    """Independent conservation referee over a finished schedule.

    Every trace job completes exactly once, no job starts before it was
    submitted or ends before it starts, and the nodes in use never exceed
    the machine (ends are applied before starts at equal times, matching
    the engine's completion-before-arrival order).
    """
    errors: List[str] = []
    ids = [j.id for j in metric_jobs]
    if len(ids) != len(set(ids)) or sorted(ids) != sorted(trace_ids):
        errors.append(f"{len(ids)} completed jobs for {len(trace_ids)} trace jobs")
    edges = []
    for j in jobs:
        if j.start_time is None or j.end_time is None:
            errors.append(f"job {j.id} never ran")
            continue
        if j.start_time < j.submit_time - 1e-6:
            errors.append(f"job {j.id} starts before its submission")
        if j.end_time < j.start_time:
            errors.append(f"job {j.id} ends before it starts")
        edges.append((j.start_time, 1, j.nodes))
        edges.append((j.end_time, 0, -j.nodes))
    edges.sort()
    used = peak = 0
    for _t, _kind, delta in edges:
        used += delta
        peak = max(peak, used)
    if peak > system_size:
        errors.append(f"{peak} nodes in use on a {system_size}-node machine")
    return errors[:5]


def check_policy_run(tally: Tally, run, workload, pinned: Optional[str]) -> None:
    """The batch oracles for one ``api.run`` result."""
    digest = run.result.digest()
    if pinned is not None:
        tally.check(digest == pinned,
                    f"{run.policy}: digest {digest[:12]} != pinned {pinned[:12]}")
    errors = conservation_errors(run.result.jobs, [j.id for j in workload.jobs],
                                 run.metric_jobs, workload.system_size)
    tally.check(not errors, f"{run.policy}: conservation: {errors}")


def per_user_payload(metric_jobs, fst, epsilon: float) -> Dict[str, Dict[str, float]]:
    """The service's per-user block, computed offline from a batch run
    (field list as documented in docs/SERVICE.md)."""
    from repro.metrics.users import per_user_fairness

    stats = per_user_fairness(metric_jobs, fst, epsilon=epsilon)
    return {
        str(uid): {
            "n_jobs": rec.n_jobs,
            "total_work": rec.total_work,
            "avg_wait": rec.avg_wait,
            "avg_miss_time": rec.avg_miss_time,
            "percent_unfair": rec.percent_unfair,
            "worst_miss": rec.worst_miss,
        }
        for uid, rec in sorted(stats.items())
    }


# -- statistics ------------------------------------------------------------------


def wall_seconds(t0: float, t1: float) -> float:
    """An interval in plain wall seconds (no host-speed correction)."""
    return t1 - t0


def note(label: str, values: Dict[str, object]) -> None:
    """A side record on stderr (sample counts, uncorrected figures); the
    result line on stdout is unaffected."""
    print(f"[perfbench] {label}: {json.dumps(values, sort_keys=True)}",
          file=sys.stderr, flush=True)


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (nearest rank) when at least ten samples lie
    beyond it; otherwise the largest sample."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(0, math.ceil(q * n) - 1)
    if n - 1 - rank < 10:
        return ordered[-1]
    return ordered[rank]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MB of this process, or of ``pid`` (read
    from /proc while it is alive)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
