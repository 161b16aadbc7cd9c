"""Deterministic multi-tenant admission on top of one live simulation.

The server's correctness bar is brutal: any interleaving of tenant
submissions over the wire must finish byte-identical to an offline batch
run of the merged trace.  The engine itself guarantees that *given the
same jobs in the same order*; this module guarantees the same jobs in the
same order.

The mechanism is a per-tenant **watermark**.  Each tenant's submissions
must be non-decreasing in arrival time, so a tenant's latest ``at`` is a
promise: nothing earlier will ever arrive from it.  The merge frontier
``W = min(watermarks)`` is therefore a time below which the merged trace
is complete, whatever the network interleaving.  :meth:`TenantMux.drive`
admits exactly the buffered jobs with ``at < W`` — sorted by
``(at, tenant, seq)`` and numbered from one global counter, so job ids are
a pure function of the submitted payloads — and advances the engine
*strictly* below ``W`` (an arrival exactly at ``W`` may still be pending,
and arrivals order ahead of timers at equal timestamps).

Draining a tenant lifts its watermark to ``+inf``; once every tenant has
drained, ``W = +inf`` and the remaining buffer flushes.

:func:`merged_workload` replays the identical admission rule over a
complete submission map in one shot — the offline referee the soak tests
compare against.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.job import Job
from ..workload.model import Workload
from .session import LiveSimulation

#: payload fields a tenant may send per job (all times in seconds)
JOB_FIELDS = ("at", "nodes", "runtime", "wcl", "user")


class TenantError(ValueError):
    """A tenant broke the submission protocol (the session survives)."""


def default_user_id(tenant: str) -> int:
    """Stable fallback user id for a tenant (crc32 of its name), so user
    identities never depend on connection order."""
    return zlib.crc32(tenant.encode("utf-8")) & 0x7FFFFFFF


def _integral(value: object, name: str) -> int:
    """An integer job field: a bool or a fractional number is refused
    rather than truncated into a different job."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def build_job(job_id: int, payload: Mapping[str, object], user_id: int) -> Job:
    """One wire payload -> one engine job.

    Shared verbatim by the online admission path and the offline
    :func:`merged_workload` referee; byte-identical results depend on the
    two paths constructing byte-identical jobs.
    """
    unknown = sorted(set(payload) - set(JOB_FIELDS))
    if unknown:
        raise TenantError(
            f"unknown job field{'s' if len(unknown) > 1 else ''} "
            f"{unknown}; known: {', '.join(JOB_FIELDS)}"
        )
    try:
        at = float(payload["at"])
        nodes = _integral(payload["nodes"], "nodes")
        runtime = float(payload["runtime"])
        wcl = float(payload.get("wcl", runtime))
        user = _integral(payload.get("user", user_id), "user")
    except KeyError as exc:
        raise TenantError(f"job payload missing required field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise TenantError(f"malformed job payload: {exc}") from None
    try:
        return Job(
            id=job_id,
            submit_time=at,
            nodes=nodes,
            runtime=runtime,
            wcl=wcl,
            user_id=user,
        )
    except ValueError as exc:
        raise TenantError(str(exc)) from None


class TenantBuffer:
    """One tenant's bounded pending buffer and watermark."""

    __slots__ = ("name", "user_id", "watermark", "drained", "pending", "_seq",
                 "submitted")

    def __init__(self, name: str, user_id: int, watermark: float) -> None:
        self.name = name
        self.user_id = user_id
        #: highest ``at`` promised so far; future submissions must be >= it
        self.watermark = watermark
        self.drained = False
        #: buffered (at, seq, validated job) not yet admitted to the engine
        self.pending: List[Tuple[float, int, Job]] = []
        self._seq = 0
        self.submitted = 0

    @property
    def frontier(self) -> float:
        return math.inf if self.drained else self.watermark

    def next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq


class TenantMux:
    """Merge tenant submission streams into one live simulation,
    deterministically."""

    def __init__(self, live: LiveSimulation, max_pending: int = 1024) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        self.live = live
        self.max_pending = max_pending
        self.tenants: Dict[str, TenantBuffer] = {}
        self._next_job_id = len(live.engine.jobs)
        self.admitted = 0

    # -- registration ------------------------------------------------------------

    def register(self, name: str, user_id: Optional[int] = None) -> TenantBuffer:
        """Register a tenant; its watermark starts at the engine clock, so
        a late joiner cannot rewrite already-simulated history."""
        if not name:
            raise TenantError("tenant name must be non-empty")
        if name in self.tenants:
            raise TenantError(f"tenant {name!r} is already registered")
        buf = TenantBuffer(
            name,
            default_user_id(name) if user_id is None else int(user_id),
            watermark=self.live.now,
        )
        self.tenants[name] = buf
        return buf

    def _buffer(self, name: str) -> TenantBuffer:
        try:
            return self.tenants[name]
        except KeyError:
            raise TenantError(f"unknown tenant {name!r}; send hello first") from None

    # -- submission --------------------------------------------------------------

    def backlog(self, name: str) -> int:
        return len(self._buffer(name).pending)

    def has_room(self, name: str, n: int = 1) -> bool:
        return len(self._buffer(name).pending) + n <= self.max_pending

    def submit(self, name: str, jobs: Sequence[Mapping[str, object]]) -> int:
        """Validate and buffer a batch of job payloads for one tenant.

        The batch is all-or-nothing: every payload is built into a job
        (:func:`build_job`) and checked — finite times, at most the
        cluster's width, arrival times non-decreasing per tenant (that
        ordering IS the watermark promise) — before anything is staged,
        so a rejected batch leaves the tenant exactly as it was.
        Capacity is the caller's job: the async layer awaits room
        *before* calling, so a full buffer here is a protocol violation,
        not backpressure.
        """
        buf = self._buffer(name)
        if buf.drained:
            raise TenantError(f"tenant {name!r} already drained")
        if len(buf.pending) + len(jobs) > self.max_pending:
            raise TenantError(
                f"tenant {name!r} buffer overflow: "
                f"{len(buf.pending)} pending + {len(jobs)} submitted "
                f"> max_pending={self.max_pending}"
            )
        width = self.live.engine.cluster.size
        built: List[Job] = []
        mark = buf.watermark
        for i, payload in enumerate(jobs):
            if not isinstance(payload, Mapping):
                raise TenantError(f"job {i}: payload must be an object")
            # the id is provisional; drive() numbers jobs at admission
            job = build_job(i, payload, buf.user_id)
            if not all(map(math.isfinite, (job.submit_time, job.runtime, job.wcl))):
                raise TenantError(
                    f"job {i}: at, runtime and wcl must be finite numbers"
                )
            if job.nodes > width:
                raise TenantError(
                    f"job {i}: {job.nodes} nodes exceed the cluster's {width}"
                )
            if job.submit_time < mark:
                raise TenantError(
                    f"tenant {name!r} arrival times must be non-decreasing: "
                    f"got at={job.submit_time} after watermark {mark}"
                )
            mark = job.submit_time
            built.append(job)
        buf.pending.extend((job.submit_time, buf.next_seq(), job) for job in built)
        buf.watermark = mark
        buf.submitted += len(built)
        return len(built)

    def drain(self, name: str) -> None:
        """Tenant promises no further submissions (watermark -> +inf)."""
        self._buffer(name).drained = True

    @property
    def all_drained(self) -> bool:
        return bool(self.tenants) and all(t.drained for t in self.tenants.values())

    @property
    def frontier(self) -> float:
        """The merge frontier W: below it the merged trace is complete."""
        if not self.tenants:
            return self.live.now
        return min(t.frontier for t in self.tenants.values())

    # -- admission ---------------------------------------------------------------

    def drive(self) -> Dict[str, int]:
        """Admit every safely-merged job and advance the engine to the
        frontier.  Idempotent between submissions; safe to call after any
        protocol event."""
        w = self.frontier
        ready: List[Tuple[float, str, int, Job]] = []
        for buf in self.tenants.values():
            keep = []
            for at, seq, job in buf.pending:
                if at < w:
                    ready.append((at, buf.name, seq, job))
                else:
                    keep.append((at, seq, job))
            buf.pending = keep
        ready.sort(key=lambda item: (item[0], item[1], item[2]))
        jobs = []
        for _at, _name, _seq, job in ready:
            job.id = self._next_job_id
            self._next_job_id += 1
            jobs.append(job)
        if jobs:
            self.live.submit(jobs)
        self.admitted += len(jobs)
        stepped = self.live.advance(w, inclusive=False) if w > self.live.now else 0
        return {"admitted": len(jobs), "events": stepped}

    # -- reporting ---------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        return {
            "frontier": self.frontier,
            "now": self.live.now,
            "admitted": self.admitted,
            "tenants": {
                name: {
                    "watermark": buf.watermark,
                    "drained": buf.drained,
                    "pending": len(buf.pending),
                    "submitted": buf.submitted,
                }
                for name, buf in sorted(self.tenants.items())
            },
        }


def merged_workload(
    submissions: Mapping[str, Sequence[Mapping[str, object]]],
    system_size: int,
    name: str = "service-merged",
    user_ids: Optional[Mapping[str, int]] = None,
) -> Workload:
    """The offline referee: the workload a complete submission map merges
    to, independent of any interleaving.

    Feeding the returned workload to the batch runner must produce results
    byte-identical to streaming the same payloads through a server — both
    paths sort by ``(at, tenant, seq)`` and number jobs from zero via
    :func:`build_job`.
    """
    entries = []
    for tenant in submissions:
        uid = (user_ids or {}).get(tenant, default_user_id(tenant))
        for seq, payload in enumerate(submissions[tenant]):
            entries.append((float(payload["at"]), tenant, seq, payload, uid))
    entries.sort(key=lambda item: (item[0], item[1], item[2]))
    jobs = [
        build_job(job_id, payload, uid)
        for job_id, (_at, _tenant, _seq, payload, uid) in enumerate(entries)
    ]
    return Workload(name=name, system_size=system_size, jobs=jobs)
