"""The batch workloads: ``repro.api.run`` of two policies on the full trace.

``batch-cons`` runs the conservative-backfilling pair, whose reservation
profile and compression pass do most of the work; ``batch-light`` runs
EASY and the CPlant no-guarantee policy, which never touch the profile and
spend their time in the HybridFST observer, the priority-order cache and
(for cplant24) chunk chains and timers.  Each is the other's control.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Tuple

from common import (
    PINNED_DIGESTS,
    PINNED_SEED,
    Tally,
    calibrated_trace,
    check_policy_run,
    note,
    peak_rss_mb,
    seeded_trace,
    wall_seconds,
)
from hostclock import HostClock

POLICIES: Dict[str, Tuple[str, ...]] = {
    "batch-cons": ("cons.nomax", "consdyn.nomax"),
    "batch-light": ("easy.fairshare", "cplant24.nomax.all"),
}

#: workloads timed on the seed's input.  The conservative pair's cost
#: follows the schedule it ends up with: over seeds 101-109 the owner
#: shuffle moved it by up to 25%, against 4% between runs of one input.
#: So ``batch-cons`` is timed on the calibrated trace at every seed and
#: runs the seed's input, at a tenth of the size, only through the oracles.
TIMED_ON_SEED = frozenset({"batch-light"})
HELD_OUT_SCALE = 0.1

#: set-ups per run (the reported set-up time is their median)
SETUPS = 5


class BatchRun:
    """One workload instance: its inputs for a seed, the oracles, a cycle."""

    def __init__(self, name: str, seed: int, scale: float = 1.0,
                 pinned=None) -> None:
        self.policies = POLICIES[name]
        self.seed = seed
        self.scale = scale
        self.timed_seed = seed if name in TIMED_ON_SEED else PINNED_SEED
        if pinned is None and scale == 1.0 and self.timed_seed == PINNED_SEED:
            pinned = PINNED_DIGESTS
        self.pinned = pinned or {}
        self.tally = Tally()

    def inputs(self):
        """The timed input (the set-up step)."""
        return seeded_trace(calibrated_trace(self.scale), self.timed_seed)

    def cycle(self, clock: HostClock, wl, pinned=None):
        """Run every policy once; returns (policy, t0, t1) spans and the
        digests, after checking each result."""
        from repro import api

        pinned = self.pinned if pinned is None else pinned
        spans, digests = [], {}
        for policy in self.policies:
            t0 = clock.now()
            handle = api.run(policy=policy, workload=wl)
            t1 = clock.now()
            spans.append((policy, t0, t1))
            self.tally.attempted += 1
            check_policy_run(self.tally, handle, wl, pinned.get(policy))
            digests[policy] = handle.digest()
        return spans, digests

    def check_held_out(self, clock: HostClock) -> None:
        """Put the seed's input through the oracles when it is not timed."""
        if self.timed_seed != self.seed:
            held_out = seeded_trace(
                calibrated_trace(self.scale * HELD_OUT_SCALE), self.seed)
            self.cycle(clock, held_out, pinned={})


def measure(name: str, seed: int, seconds: float, clock: HostClock,
            scale: float = 1.0, pinned=None):
    """The untraced run: end-to-end metrics."""
    run = BatchRun(name, seed, scale, pinned)
    setups = []
    for _ in range(SETUPS):
        t0 = clock.now()
        wl = run.inputs()
        setups.append((t0, clock.now()))

    deadline = clock.now() + seconds
    spans: List[Tuple[str, float, float]] = []
    cycles: List[Tuple[float, float]] = []
    while not cycles or clock.now() < deadline:
        c0 = clock.now()
        got, _ = run.cycle(clock, wl)
        spans += got
        cycles.append((c0, clock.now()))
    run.check_held_out(clock)

    rss = peak_rss_mb()

    def metrics(sec):
        per_policy = {p: median([sec(t0, t1) for q, t0, t1 in spans if q == p])
                      for p in run.policies}
        return {
            "setup_s": median([sec(*s) for s in setups]),
            "jobs_per_s": len(run.policies) * len(wl.jobs) / sum(per_policy.values()),
            "request_p50_ms": median([1000 * sec(*c) for c in cycles]),
            "peak_rss_mb": rss,
        }

    note("samples", {"setup_s": len(setups), "jobs_per_s": len(cycles),
                     "request_p50_ms": len(cycles)})
    note("uncorrected", metrics(wall_seconds))
    return run.tally, metrics(clock.ref_seconds)


def traced(name: str, seed: int, clock: HostClock, scale: float = 1.0):
    """The traced run: one untraced and one traced pass of identical work
    (set-up plus one cycle); per-layer self times, exact work counts and
    the tracing overhead."""
    import repro.api  # noqa: F401  (imported before either pass)
    from layers import Tracer, install_core, scheduler_classes
    from repro.obs import counters

    run = BatchRun(name, seed, scale)

    t0 = clock.now()
    wl = run.inputs()
    _, plain = run.cycle(clock, wl)
    t1 = clock.now()

    tracer = Tracer()
    install_core(tracer, scheduler_classes(run.policies))
    try:
        with counters.collect() as ctr:
            t2 = clock.now()
            wl = tracer.span("workload.generate", run.inputs)
            _, seen = run.cycle(clock, wl)
            t3 = clock.now()
    finally:
        tracer.uninstall()
    run.tally.check(seen == plain, "traced digests differ from untraced digests")
    run.check_held_out(clock)
    return run.tally, tracer, ctr.as_dict(), (t0, t1), (t2, t3), {}
