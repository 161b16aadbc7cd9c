"""The ``paper-build`` workload: ``repro.api.build_artifacts`` of every
registered artifact at scale 0.1 with two worker processes.

Each run makes cold builds into fresh caches (17 cells simulated in the
campaign pool), each followed by warm rebuilds against the first cache,
and then more warm rebuilds until its time is up; a warm rebuild
simulates nothing and spends its time regenerating the trace, reading the
cache, planning and rendering.

Every build runs on one CPU -- the main thread, its render threads and
the two pool workers -- and the host-speed probe runs beside it on that
CPU.  On two CPUs the cold builds' time moved with how much of the second
CPU the host's other tenants left, which a probe on one CPU does not see
(see README.md).  The pool still runs its two workers, so its start-up,
dispatch, result collection and cache writes are measured; the parallel
speed-up is not.  The probe leaves out the time it waits while the
program's workers and threads hold the CPU, so more or less work in them
reaches it only through the caches they share.

The input is the paper configuration itself (scale 0.1, trace seed 7, the
``repro paper build`` default): ``build_artifacts`` takes no other input,
and a different trace seed changes the cold build's simulation work by up
to 2x, so the benchmark seed does not change this workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median

from common import (
    PINNED_SEED,
    Tally,
    calibrated_trace,
    note,
    peak_rss_mb,
    wall_seconds,
    work_dir,
)
from hostclock import HostClock

SCALE = 0.1
JOBS = 2
SETUPS = 20
COLD_BUILDS = 3
#: warm rebuilds per run at least, a third after each cold build (a slow
#: host stretches the cold builds past the run's time)
MIN_WARM_BUILDS = 42
TRACED_WARM_BUILDS = 3


def timed_build(run: "PaperRun", clock: HostClock, cache_dir: Path, wl, cold: bool):
    """One build; returns the result and the build's (start, end) interval."""
    t0 = clock.now()
    res = run.build(cache_dir, wl, cold)
    t1 = clock.now()
    return res, (t0, t1)


class PaperRun:
    def __init__(self, work: Path, scale: float = SCALE) -> None:
        self.scale = scale
        self.tally = Tally()
        self.work = work
        self._n = 0
        self.cold_outputs = None

    def setup(self):
        """Generate the trace (for the manifest's workload digest) and
        create a fresh cache directory."""
        wl = calibrated_trace(self.scale)
        self._n += 1
        cache_dir = self.work / f"cache-{self._n}"
        cache_dir.mkdir(parents=True)
        return wl, cache_dir

    def build(self, cache_dir: Path, wl, cold: bool):
        from repro import api
        from repro.artifacts.build import PaperConfig, verify_outputs
        from repro.campaign.cache import CampaignCache

        out = cache_dir.parent / f"out-{cache_dir.name}"
        res = api.build_artifacts(
            config=PaperConfig(scale=self.scale, seed=PINNED_SEED),
            out_dir=out, jobs=JOBS, cache=CampaignCache(cache_dir))
        t = self.tally
        t.attempted += 1
        n_cells = len(res.plan.cells)
        t.check(res.n_simulated == (n_cells if cold else 0),
                f"{'cold' if cold else 'warm'} build simulated {res.n_simulated} of {n_cells} cells")
        t.check(not verify_outputs(out), f"manifest does not describe the outputs in {out}")
        digests = {o.artifact.id: o.sha256 for o in res.outputs}
        manifest = res.manifest_path.read_bytes()
        if self.cold_outputs is None:
            self.cold_outputs = (digests, manifest)
            wl_digest = wl.content_digest()
            inputs = [a["inputs"] for a in json.loads(manifest)["artifacts"].values()]
            t.check(all(i.get("workload", wl_digest) == wl_digest for i in inputs),
                    "manifest workload digest differs from the generated trace")
        else:
            t.check(digests == self.cold_outputs[0], "output digests differ from the cold build")
            t.check(manifest == self.cold_outputs[1], "manifest bytes differ from the cold build")
        return res


def measure(seconds: float, clock: HostClock, scale: float = SCALE):
    with work_dir("paper") as work:
        run = PaperRun(work, scale)
        setups, colds, warms = [], [], []
        caches = []
        for _ in range(SETUPS):
            t0 = clock.now()
            wl, cache_dir = run.setup()
            setups.append((t0, clock.now()))
            caches.append(cache_dir)
        # cold builds and warm rebuilds alternate, so both sample the
        # host over the whole run
        deadline = clock.now() + seconds
        n_jobs = 0
        for cache_dir in caches[:COLD_BUILDS]:
            res, span = timed_build(run, clock, cache_dir, wl, cold=True)
            colds.append(span)
            n_jobs = len(res.plan.cells) * len(wl.jobs)
            for _ in range(MIN_WARM_BUILDS // COLD_BUILDS):
                warms.append(timed_build(run, clock, caches[0], wl, cold=False)[1])
        while clock.now() < deadline:
            warms.append(timed_build(run, clock, caches[0], wl, cold=False)[1])

    rss = peak_rss_mb()

    def metrics(sec):
        return {
            "setup_s": median([sec(*s) for s in setups]),
            "jobs_per_s": n_jobs / median([sec(*c) for c in colds]),
            "request_p50_ms": median([1000 * sec(*w) for w in warms]),
            "peak_rss_mb": rss,
        }

    note("samples", {"setup_s": len(setups), "jobs_per_s": len(colds),
                     "request_p50_ms": len(warms)})
    note("uncorrected", metrics(wall_seconds))
    return run.tally, metrics(clock.ref_seconds)


def _pass(run: PaperRun, clock: HostClock, tracer=None):
    """Set-up, one cold build, then a fixed number of warm rebuilds."""
    span = tracer.span if tracer is not None else (lambda _k, fn, *a: fn(*a))
    wl, cache_dir = span("workload.generate", run.setup)
    cold, cold_span = timed_build(run, clock, cache_dir, wl, cold=True)
    warm = [timed_build(run, clock, cache_dir, wl, cold=False)
            for _ in range(TRACED_WARM_BUILDS)]
    return cold, cold_span, warm


def traced(clock: HostClock, scale: float = SCALE):
    from layers import Tracer, install_paper
    from repro.obs import counters

    tracer = Tracer()
    with work_dir("paper") as work:
        run = PaperRun(work, scale)
        t0 = clock.now()
        _, cold_span, plain_warm = _pass(run, clock)
        t1 = clock.now()
        install_paper(tracer)
        try:
            with counters.collect() as ctr:
                t2 = clock.now()
                cold, _, warm = _pass(run, clock, tracer)
                t3 = clock.now()
        finally:
            tracer.uninstall()

    builds = [cold] + [w for w, _ in warm]
    stats = cold.stats
    speed = clock.speed(t2, t3)
    sim_s = stats.cell_seconds["total"] * speed
    extra = {
        "cache.hits": sum(b.stats.cache.hits for b in builds),
        "cache.misses": sum(b.stats.cache.misses for b in builds),
        "campaign.cell_sim_s": sim_s,
        "campaign.cell_overhead_s": stats.wall * speed - sim_s / stats.workers,
        "campaign.pool_utilization": stats.pool_utilization or 0.0,
        "artifacts.render_cpu_s": tracer.thread_cpu_s.get("artifacts.render", 0.0),
        "paper.cold_s": clock.ref_seconds(*cold_span),
        "paper.warm_s": median([clock.ref_seconds(*s) for _, s in plain_warm]),
    }
    note("samples", {"paper.cold_s": 1, "paper.warm_s": len(plain_warm)})
    return run.tally, tracer, ctr.as_dict(), (t0, t1), (t2, t3), extra
