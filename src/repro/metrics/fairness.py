"""Fairness metrics for parallel job scheduling (Section 4).

Four metrics, in the order the paper surveys them:

* **CONS_P FST** (Srinivasan et al.): one global conservative-backfill
  schedule with perfect estimates in FCFS order; each job's start there is
  its fair-start time.
* **Sabin/Sadayappan FST**: re-run the *actual* policy from each job's
  arrival assuming no later arrivals; expensive but scheduler-faithful.
* **Resource equality** (Sabin & Sadayappan 2005): every live job
  "deserves" 1/N of the machine; unfairness is the shortfall between
  deserved and received resource integrals.
* **The hybrid "fairshare" FST — this paper's contribution** (Section
  4.1): at each arrival, freeze the scheduler state (running jobs + queued
  jobs + fairshare priorities) and build a *no-backfill list schedule* in
  fairshare order; the arriving job's start in that hypothetical schedule
  is its FST.  Implemented as a simulation observer
  (:class:`HybridFSTObserver`).

Aggregation (Figures 8/9, 14/15): a job is *unfair* if its real start
misses its FST by more than ``epsilon``; average miss time is Eq. 5
(summed over all jobs, including the fair ones).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..core.engine import Engine, KillPolicy, Observer
from ..core.job import Job, JobState
from ..core.listsched import FreeTimeline
from ..core.profile import ReservationProfile
from ..core.results import SimulationResult

#: seconds of slack before a missed FST counts as unfair (float noise guard)
DEFAULT_EPSILON = 1.0


# --------------------------------------------------------------------------
# pluggable "socially just" reference orders
# --------------------------------------------------------------------------
#
# The paper's conclusion invites exactly this: "the fairness metric can be
# modified in a similar way to measure fairness via other alternative
# fairness priorities."  A reference order is the priority of the
# hypothetical no-backfill schedule the hybrid FST is computed against;
# swapping it answers "fair according to whom" — seniority (FCFS), decayed
# usage (fairshare), or job size (shortest-first, the size-based school of
# Dell'Amico et al.).

@dataclass(frozen=True)
class ReferenceOrder:
    """One named reference order for the hybrid-FST hypothetical schedule.

    ``order(ctx, jobs, now)`` sorts the waiting jobs into the socially-just
    start order; ``ctx`` is the live :class:`HybridFSTObserver`, exposing
    the scheduler's fairshare ``tracker`` and the observer's
    ``duration_of`` memo (the hypothetical-schedule durations) so orders
    can rank by usage or by size without recomputing either.
    """

    name: str
    description: str
    order: Callable[["HybridFSTObserver", Sequence[Job], float], List[Job]]


def _fairshare_reference(ctx: "HybridFSTObserver", jobs, now: float):
    return ctx.tracker.order(jobs, now)


def _fcfs_reference(ctx: "HybridFSTObserver", jobs, now: float):
    return sorted(jobs, key=lambda j: (j.submit_time, j.id))


def _shortest_first_reference(ctx: "HybridFSTObserver", jobs, now: float):
    return sorted(jobs, key=lambda j: (ctx.duration_of(j), j.submit_time, j.id))


_REFERENCE_ORDERS: Dict[str, ReferenceOrder] = {}


def register_reference_order(ref: ReferenceOrder) -> ReferenceOrder:
    if ref.name in _REFERENCE_ORDERS:
        raise ValueError(f"duplicate reference order {ref.name!r}")
    _REFERENCE_ORDERS[ref.name] = ref
    return ref


def get_reference_order(name: str) -> ReferenceOrder:
    try:
        return _REFERENCE_ORDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown reference order (FST basis) {name!r}; "
            f"known: {', '.join(sorted(_REFERENCE_ORDERS))}"
        ) from None


def reference_order_names() -> Tuple[str, ...]:
    """Registered names, in registration order."""
    return tuple(_REFERENCE_ORDERS)


register_reference_order(ReferenceOrder(
    "fairshare",
    "decayed per-user usage, light users first (the paper's choice)",
    _fairshare_reference,
))
register_reference_order(ReferenceOrder(
    "fcfs",
    "strict seniority: arrival order decides the hypothetical schedule",
    _fcfs_reference,
))
register_reference_order(ReferenceOrder(
    "shortest-first",
    "smallest hypothetical duration first (size-based fairness)",
    _shortest_first_reference,
))


# --------------------------------------------------------------------------
# the hybrid fairshare FST (Section 4.1)
# --------------------------------------------------------------------------

class HybridFSTObserver(Observer):
    """Records the paper's hybrid fair-start time for every job.

    ``estimate_mode`` picks the runtimes of the hypothetical schedule:
    ``"perfect"`` (actual runtimes — the default, matching the CONS_P-style
    perfect-estimate reference) or ``"wcl"`` (user estimates).

    ``basis`` names the socially-just order of the hypothetical schedule —
    any registered :class:`ReferenceOrder` (``"fairshare"``, the paper's
    choice; ``"fcfs"``; ``"shortest-first"``; plus extensions registered
    via :func:`register_reference_order`).

    The observer requires a scheduler that exposes ``waiting_jobs()`` and a
    fairshare ``tracker`` (every :class:`repro.sched.BaseScheduler` does).

    Implementation: the running-occupation view is maintained incrementally
    from the ``on_start``/``on_completion`` hooks (in ``"perfect"`` mode an
    occupation's hypothetical end is fixed the moment the job starts, so
    nothing is recomputed per arrival), and the hypothetical no-backfill
    schedule is built on a compact :class:`FreeTimeline` multiset —
    O(occupations) per placement instead of O(machine size) — stopping at
    the arriving job, whose start later entries in the order cannot move.
    """

    def __init__(self, estimate_mode: str = "perfect", basis: str = "fairshare") -> None:
        if estimate_mode not in ("perfect", "wcl"):
            raise ValueError("estimate_mode must be 'perfect' or 'wcl'")
        try:
            self._reference = get_reference_order(basis)
        except KeyError as exc:
            raise ValueError(f"basis: {exc.args[0]}") from None
        self.estimate_mode = estimate_mode
        self.basis = basis
        self.fst: Dict[int, float] = {}
        self._engine: Engine | None = None
        #: running occupations, maintained across events:
        #: job id -> (nodes, fixed hypothetical end)        ("perfect")
        #: job id -> (nodes, start + wcl, tail wcl)         ("wcl")
        self._occupied: Dict[int, tuple] = {}
        #: per-job hypothetical durations (immutable for a given run —
        #: runtime/wcl and chain tails never change); queued jobs are
        #: re-placed at every arrival, so this memo is hit constantly
        self._durations: Dict[int, float] = {}

    def on_attach(self, engine: Engine) -> None:
        self._engine = engine
        self._occupied = {}
        self._durations = {}
        sched = engine.scheduler
        if not hasattr(sched, "waiting_jobs") or not hasattr(sched, "tracker"):
            raise TypeError(
                "HybridFSTObserver needs a scheduler with waiting_jobs() and "
                "a fairshare tracker"
            )

    @property
    def tracker(self):
        """The scheduler's fairshare tracker (for usage-ranked orders)."""
        return self._engine.scheduler.tracker

    def duration_of(self, job: Job) -> float:
        """Hypothetical-schedule duration: a chunk carries its whole
        remaining chain, so the fair reference treats the original trace job
        as one contiguous block regardless of runtime-limit splitting."""
        d = self._durations.get(job.id)
        if d is not None:
            return d
        if self.estimate_mode == "wcl":
            d = job.wcl + self._engine.chain_tail_wcl(job)
        else:
            rt = job.runtime
            if self._engine.kill_policy is KillPolicy.AT_WCL:
                rt = min(rt, job.wcl)
            d = max(rt + self._engine.chain_tail_runtime(job), 1e-9)
        self._durations[job.id] = d
        return d

    def on_start(self, job: Job, now: float) -> None:
        if self.estimate_mode == "wcl":
            self._occupied[job.id] = (
                job.nodes, job.start_time + job.wcl,
                self._engine.chain_tail_wcl(job),
            )
        else:
            # in perfect mode the hypothetical end never moves: the job's
            # (kill-policy-capped) runtime plus its chain tail is >= the
            # real occupation, so max(end, now) == end while it runs
            self._occupied[job.id] = (
                job.nodes, job.start_time + self.duration_of(job),
            )

    def on_completion(self, job: Job, now: float) -> None:
        self._occupied.pop(job.id, None)

    def on_fork(self, memo: Dict[int, object]) -> None:
        # append-only per-job maps of floats: C-level copies, no deepcopy walk
        memo[id(self.fst)] = dict(self.fst)
        memo[id(self._durations)] = dict(self._durations)

    def _occupation_pairs(self, now: float):
        if self.estimate_mode == "wcl":
            for nodes, wcl_end, tail in self._occupied.values():
                end = now + tail
                if wcl_end > end:
                    end = wcl_end
                yield nodes, end
        else:
            yield from self._occupied.values()

    def on_arrival(self, job: Job, now: float) -> None:
        engine = self._engine
        sched = engine.scheduler
        # machine state: running occupations at their (mode-dependent) ends
        tl = FreeTimeline.from_pairs(
            engine.cluster.size, now, self._occupation_pairs(now)
        )
        # hypothetical: everyone queued right now runs in the socially-just
        # order, no backfilling.  Placement can stop at the arriving job —
        # later entries in the order cannot move it.
        order = self._reference.order(self, sched.waiting_jobs(), now)
        target = job.id
        for queued in order:
            start = tl.place(queued.nodes, self.duration_of(queued), earliest=now)
            if queued.id == target:
                self.fst[target] = start
                return
        raise RuntimeError(f"arriving job {job.id} missing from waiting_jobs()")

    def collect(self, result: SimulationResult) -> None:
        key = "fst_hybrid" if self.basis == "fairshare" else f"fst_hybrid_{self.basis}"
        result.series[key] = dict(self.fst)


# --------------------------------------------------------------------------
# CONS_P: conservative backfilling with perfect estimates, FCFS
# --------------------------------------------------------------------------

def consp_fst(jobs: Sequence[Job], system_size: int) -> Dict[int, float]:
    """The CONS_P fair-start times.

    With perfect estimates nothing ever finishes early, so the conservative
    schedule is exactly "insert each arrival at its earliest fit": no holes
    appear and no reservation ever moves.  One pass over arrivals suffices.
    """
    profile = ReservationProfile(system_size)
    out: Dict[int, float] = {}
    for job in sorted(jobs, key=lambda j: (j.submit_time, j.id)):
        rt = max(job.runtime, 1e-9)
        start = profile.earliest_fit(job.nodes, rt, job.submit_time)
        profile.reserve_fitted(start, start + rt, job.nodes)
        out[job.id] = start
    return out


# --------------------------------------------------------------------------
# Sabin/Sadayappan FST: actual policy, no later arrivals
# --------------------------------------------------------------------------

def sabin_fst(
    jobs: Sequence[Job],
    system_size: int,
    scheduler_factory: Callable[[], object],
    kill_policy: KillPolicy = KillPolicy.NEVER,
) -> Dict[int, float]:
    """FSTs by re-simulating the actual policy per job with later arrivals
    dropped.  O(n) full simulations — use on small workloads.
    """
    from ..core.cluster import Cluster  # local import avoids a cycle

    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.id))
    out: Dict[int, float] = {}
    for j in ordered:
        prefix = [x.fresh_copy() for x in ordered
                  if (x.submit_time, x.id) <= (j.submit_time, j.id)]
        engine = Engine(
            Cluster(system_size), scheduler_factory(), prefix,
            kill_policy=kill_policy,
        )
        result = engine.run()
        out[j.id] = result.job_by_id()[j.id].start_time
    return out


# --------------------------------------------------------------------------
# resource equality (Sabin & Sadayappan 2005 family)
# --------------------------------------------------------------------------

def resource_equality_deficits(
    jobs: Sequence[Job],
    system_size: int,
) -> Dict[int, float]:
    """Per-job shortfall between deserved and received processor-seconds.

    While N jobs are live (queued or running), each deserves a 1/N share of
    the machine — capped at its own width, since a job cannot use more
    nodes than it requested.  A job receives its node count while running
    and nothing while queued.  The deficit is
    max(0, deserved integral - received integral).
    """
    done = [j for j in jobs if j.state is JobState.COMPLETED]
    if not done:
        return {}
    events: List[tuple[float, int]] = []
    for j in done:
        events.append((j.submit_time, +1))
        events.append((j.end_time, -1))
    events.sort()
    # interval sweep: edges are event times; N is constant per interval
    edges: List[float] = [events[0][0]]
    live_counts: List[int] = []
    live = 0
    for t, d in events:
        if t > edges[-1]:
            edges.append(t)
            live_counts.append(live)
        live += d
    edges_arr = np.array(edges)
    dt = np.diff(edges_arr)
    n_live = np.array(live_counts, dtype=np.float64)
    share = np.where(n_live > 0, system_size / np.maximum(n_live, 1.0), 0.0)

    out: Dict[int, float] = {}
    for j in done:
        i0 = int(np.searchsorted(edges_arr, j.submit_time, side="left"))
        i1 = int(np.searchsorted(edges_arr, j.end_time, side="left"))
        rate = np.minimum(j.nodes, share[i0:i1])
        deserved = float((rate * dt[i0:i1]).sum())
        received = j.nodes * (j.end_time - j.start_time)
        out[j.id] = max(0.0, deserved - received)
    return out


# --------------------------------------------------------------------------
# aggregation (Figures 8/9/14/15 and Eq. 5)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FairnessStats:
    n_jobs: int
    n_unfair: int
    percent_unfair: float       # fraction in [0,1]
    average_miss_time: float    # Eq. 5: summed misses / all jobs
    average_miss_of_unfair: float  # summed misses / unfair jobs
    total_miss_time: float
    #: fraction of the *load* (nodes x runtime) on unfair jobs — the
    #: paper's alternative aggregate ("measuring the percentage of the
    #: load that misses its FST"); 0 when job areas are unavailable.
    percent_unfair_load: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "n_jobs": self.n_jobs,
            "n_unfair": self.n_unfair,
            "percent_unfair": self.percent_unfair,
            "average_miss_time": self.average_miss_time,
            "average_miss_of_unfair": self.average_miss_of_unfair,
            "total_miss_time": self.total_miss_time,
            "percent_unfair_load": self.percent_unfair_load,
        }


def miss_times(jobs: Sequence[Job], fst: Dict[int, float]) -> Dict[int, float]:
    """Per-job max(0, start - FST)."""
    out: Dict[int, float] = {}
    for j in jobs:
        if j.state is not JobState.COMPLETED:
            raise ValueError(f"job {j.id} not completed")
        if j.id not in fst:
            raise KeyError(f"job {j.id} has no fair-start time")
        out[j.id] = max(0.0, j.start_time - fst[j.id])
    return out


def fairness_stats(
    jobs: Sequence[Job],
    fst: Dict[int, float],
    epsilon: float = DEFAULT_EPSILON,
) -> FairnessStats:
    misses = miss_times(jobs, fst)
    n = len(misses)
    if n == 0:
        return FairnessStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = list(jobs)
    vals = np.array([misses[j.id] for j in ordered])
    areas = np.array([j.area for j in ordered])
    unfair = vals > epsilon
    n_unfair = int(unfair.sum())
    total = float(vals.sum())
    total_area = float(areas.sum())
    return FairnessStats(
        n_jobs=n,
        n_unfair=n_unfair,
        percent_unfair=n_unfair / n,
        average_miss_time=total / n,
        average_miss_of_unfair=float(vals[unfair].sum() / n_unfair) if n_unfair else 0.0,
        total_miss_time=total,
        percent_unfair_load=(
            float(areas[unfair].sum() / total_area) if total_area > 0 else 0.0
        ),
    )
