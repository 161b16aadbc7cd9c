"""Per-layer attribution for the traced run.

:class:`Tracer` wraps public functions and methods of the program's layers
in place (class attributes and module globals), records wall-clock self
time (total minus the time of wrapped calls made inside it) and call counts
per span key, and restores every original on :meth:`Tracer.uninstall`.
Nothing in ``src/`` is edited; the wrappers exist only while a traced pass
runs.

Calls made from threads other than the main one are timed in thread CPU
time (under the GIL a thread's wall time includes waiting for other
threads) and kept apart: they overlap the main thread's spans, so they are
not part of the main-thread decomposition ``sum(self times) + other ==
wall``.

:data:`LAYER_TIMES` groups span keys into the reported per-layer metrics.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

_WRAPPED = "__perfbench_span__"

#: reported time metric -> the span keys whose self times it sums.  The
#: groups are disjoint, so the metrics plus ``other_s`` add up to the
#: traced wall time.
LAYER_TIMES: Dict[str, Tuple[str, ...]] = {
    "workload.generate_s": ("workload.generate",),
    "engine.self_s": ("engine.run", "engine.finish"),
    "engine.step_until_s": ("engine.step_until",),
    "engine.ingest_s": ("engine.ingest",),
    "engine.fork_s": ("engine.fork",),
    "sched.schedule_s": ("sched.schedule",),
    "sched.enqueue_s": ("sched.enqueue",),
    "sched.on_completion_s": ("sched.on_completion",),
    "sched.on_timer_s": ("sched.on_timer",),
    "profile.earliest_fit_s": ("profile.earliest_fit",),
    "profile.reserve_s": ("profile.reserve",),
    "profile.release_s": ("profile.release",),
    "profile.from_occupations_s": ("profile.from_occupations",),
    "fst.on_arrival_s": ("fst.on_arrival",),
    "listsched.place_s": ("listsched.place",),
    "listsched.from_pairs_s": ("listsched.from_pairs",),
    "loc.hooks_s": ("loc.hooks",),
    "runner.derive_s": ("runner.derive",),
    "tenancy.submit_s": ("tenancy.submit",),
    "tenancy.drive_s": ("tenancy.drive",),
    "session.snapshot_s": ("session.snapshot",),
    "session.per_user_s": ("session.per_user",),
    "session.whatif_s": ("session.whatif",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "campaign.run_cells_s": ("campaign.run_cells",),
    "artifacts.plan_s": ("artifacts.plan",),
    "artifacts.build_s": ("artifacts.build",),
}

#: call-count metrics: metric -> span key
LAYER_CALLS: Dict[str, str] = {
    "sched.schedule_calls": "sched.schedule",
    "profile.earliest_fit_calls": "profile.earliest_fit",
    "profile.from_occupations_calls": "profile.from_occupations",
    "listsched.place_calls": "listsched.place",
    "engine.fork_calls": "engine.fork",
    "tenancy.submit_calls": "tenancy.submit",
    "cache.get_calls": "cache.get",
}


class Tracer:
    """Span recorder plus the in-place wrapping that feeds it."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: CPU seconds of spans entered from non-main threads
        self.thread_cpu_s: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        self._main = threading.main_thread().ident
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def wrap(self, key: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s, calls, cpu = self.self_s, self.calls, self.thread_cpu_s
        main = self._main
        perf, thread_time, ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if ident() != main:
                c0 = thread_time()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cpu[key] += thread_time() - c0
                    calls[key] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt

        setattr(span, _WRAPPED, key)
        return span

    def span(self, key: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` once inside a span (for call sites in the benchmark)."""
        return self.wrap(key, fn)(*args, **kwargs)

    # -- installing --------------------------------------------------------------

    def patch(self, owner: object, name: str, key: str) -> None:
        """Replace ``owner.name`` (a function, method, classmethod or
        staticmethod) with a span.  An attribute that already resolves to a
        span (inherited from a patched base class) is left alone."""
        if isinstance(owner, type):
            # the raw descriptor, possibly inherited: an inherited method
            # is shadowed on ``owner`` and the shadow deleted on uninstall
            raw = next(b.__dict__[name] for b in owner.__mro__
                       if name in b.__dict__)
            binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            func = raw.__func__ if binder else raw
            old = owner.__dict__.get(name, _ABSENT)
        else:
            binder, func = None, getattr(owner, name)
            old = func
        if getattr(func, _WRAPPED, None) is not None:
            return
        new = self.wrap(key, func)
        self._patched.append((owner, name, old))
        setattr(owner, name, binder(new) if binder else new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patched):
            if old is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------------

    def layer_times(self) -> Dict[str, float]:
        return {metric: sum(self.self_s.get(k, 0.0) for k in keys)
                for metric, keys in LAYER_TIMES.items()}

    def layer_calls(self) -> Dict[str, int]:
        return {metric: self.calls.get(key, 0)
                for metric, key in LAYER_CALLS.items()}

    def merge(self, other: Dict[str, Dict[str, float]]) -> None:
        """Fold in totals recorded by another process (see ``dump``)."""
        for k, v in other.get("self_s", {}).items():
            self.self_s[k] += v
        for k, v in other.get("calls", {}).items():
            self.calls[k] += int(v)
        for k, v in other.get("thread_cpu_s", {}).items():
            self.thread_cpu_s[k] += v

    def dump(self) -> Dict[str, Dict[str, float]]:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "thread_cpu_s": dict(self.thread_cpu_s)}


_ABSENT = object()


def install_core(tracer: Tracer, scheduler_classes) -> None:
    """Wrap the simulation core: engine, scheduler hooks, reservation
    profile, fairness/LOC observers, list scheduler and metric derivation."""
    from repro.core.engine import Engine
    from repro.core.listsched import FreeTimeline
    from repro.core.profile import ReservationProfile
    from repro.experiments import runner
    from repro.metrics.fairness import HybridFSTObserver
    from repro.metrics.loc import LossOfCapacityObserver
    from repro.service import session

    for name in ("run", "finish", "step_until", "ingest", "fork"):
        tracer.patch(Engine, name, f"engine.{name}")
    for cls in scheduler_classes:
        for name in ("schedule", "enqueue", "on_completion", "on_timer"):
            tracer.patch(cls, name, f"sched.{name}")
    tracer.patch(ReservationProfile, "earliest_fit", "profile.earliest_fit")
    for name in ("reserve", "reserve_fitted"):
        tracer.patch(ReservationProfile, name, "profile.reserve")
    for name in ("release", "release_reserved"):
        tracer.patch(ReservationProfile, name, "profile.release")
    tracer.patch(ReservationProfile, "from_occupations", "profile.from_occupations")
    tracer.patch(FreeTimeline, "place", "listsched.place")
    tracer.patch(FreeTimeline, "from_pairs", "listsched.from_pairs")
    tracer.patch(HybridFSTObserver, "on_arrival", "fst.on_arrival")
    for name in ("on_arrival", "on_start", "on_completion", "on_end"):
        tracer.patch(LossOfCapacityObserver, name, "loc.hooks")
    # run_policy and the live session both look the function up as a
    # module global, so both bindings are wrapped
    tracer.patch(runner, "derive_policy_run", "runner.derive")
    tracer.patch(session, "derive_policy_run", "runner.derive")


def install_service(tracer: Tracer) -> None:
    """Wrap the service layers (inside the server process)."""
    from repro.service.session import LiveSimulation
    from repro.service.tenancy import TenantMux

    tracer.patch(TenantMux, "submit", "tenancy.submit")
    tracer.patch(TenantMux, "drive", "tenancy.drive")
    tracer.patch(LiveSimulation, "snapshot", "session.snapshot")
    tracer.patch(LiveSimulation, "per_user_metrics", "session.per_user")
    tracer.patch(LiveSimulation, "whatif", "session.whatif")


def install_paper(tracer: Tracer) -> None:
    """Wrap the campaign and artifact layers of a paper build."""
    import repro.artifacts as artifacts
    from repro.artifacts import build
    from repro.artifacts.spec import Artifact
    from repro.campaign.cache import CampaignCache
    from repro.campaign.spec import WorkloadSpec

    tracer.patch(CampaignCache, "get", "cache.get")
    tracer.patch(CampaignCache, "put", "cache.put")
    tracer.patch(build, "run_cells", "campaign.run_cells")
    tracer.patch(build, "plan_build", "artifacts.plan")
    tracer.patch(artifacts, "build_artifacts", "artifacts.build")
    tracer.patch(Artifact, "build_text", "artifacts.render")
    tracer.patch(WorkloadSpec, "build", "workload.generate")


def scheduler_classes(policies) -> List[type]:
    """The concrete scheduler class behind each registered policy."""
    from repro.sched.registry import get_policy

    out: List[type] = []
    for p in policies:
        cls = type(get_policy(p).make_scheduler())
        if cls not in out:
            out.append(cls)
    return out
