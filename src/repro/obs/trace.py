"""Structured event tracing: schema-versioned JSONL records of every
scheduler-visible occurrence in a simulation.

:class:`TraceObserver` rides the engine's :class:`~repro.core.engine.Observer`
hooks — including the telemetry hooks ``on_schedule_pass`` / ``on_kill`` /
``on_chunk_chain`` — and streams one JSON object per line to a file, a
file-like object, or an in-memory ring buffer.  The record stream is what
the paper's analysis is *about* (every arrival/completion triggers a queue
pass; fairness is judged against the resulting start order), so the trace
is the ground truth for per-policy decision summaries: passes per event,
queue-depth percentiles, starts per pass, kill counts.

Record shapes (all lines are JSON objects; ``t`` is simulation seconds):

=========  ==================================================================
``ev``     fields
=========  ==================================================================
header     ``schema``, ``policy``, ``cluster``, ``n_jobs``, plus caller meta
arrival    ``t``, ``job``, ``nodes``, ``wcl``, ``user``
start      ``t``, ``job``, ``nodes``, ``wait``
complete   ``t``, ``job``, ``nodes``
kill       ``t``, ``job``
chunk      ``t``, ``job``, ``parent``, ``index``
pass       ``t``, ``reason``, ``queue``, ``running``, ``free``, ``started``
end        ``t``, ``events``, ``jobs``
=========  ==================================================================

Tracing is an observation layer only: attaching a ``TraceObserver`` must
leave :meth:`SimulationResult.digest` byte-identical (enforced by
``tests/test_obs.py``).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Dict, Iterable, Iterator, List, Optional, Union

from ..core.engine import Engine, Observer
from ..core.job import Job
from ..core.results import SimulationResult
from .stats import percentile

#: bump when record shapes change; readers reject newer schemas.
TRACE_SCHEMA = 1

#: default ring-buffer capacity when no sink is given
DEFAULT_RING = 65_536

Sink = Union[str, Path, IO[str], None]


class TraceObserver(Observer):
    """Streams simulation events as JSONL records.

    ``sink`` may be a path (opened on attach, closed at end-of-run), an
    open file-like object (written to, left open), or ``None`` for an
    in-memory ring buffer of the last ``ring`` records (dicts, not
    strings — cheap to assert on in tests).  ``meta`` is merged into the
    header record (workload name, CLI arguments, ...).
    """

    def __init__(self, sink: Sink = None, ring: int = DEFAULT_RING,
                 meta: Optional[Dict[str, object]] = None) -> None:
        self._sink_spec = sink
        self._ring = ring
        self._fh: Optional[IO[str]] = None
        self._owns_fh = False
        self.meta = dict(meta or {})
        #: ring-buffer mode storage (None when writing to a file)
        self.records: Optional[deque] = (
            deque(maxlen=ring) if sink is None else None
        )

    # -- record plumbing ---------------------------------------------------------

    def _emit(self, rec: Dict[str, object]) -> None:
        if self.records is not None:
            self.records.append(rec)
        else:
            self._fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    # -- engine hooks ------------------------------------------------------------

    def on_attach(self, engine: Engine) -> None:
        if self.records is None:
            if hasattr(self._sink_spec, "write"):
                self._fh = self._sink_spec
            else:
                self._fh = open(self._sink_spec, "w")
                self._owns_fh = True
        header: Dict[str, object] = {
            "ev": "header",
            "schema": TRACE_SCHEMA,
            "policy": getattr(engine.scheduler, "name", "?"),
            "cluster": engine.cluster.size,
            "n_jobs": len(engine._jobs),
            "kill_policy": engine.kill_policy.value,
        }
        header.update(self.meta)
        self._emit(header)

    def on_fork(self, memo: Dict[int, object]) -> None:
        """A fork never writes into this observer's sink: its twin records
        into an in-memory ring, seeded with this ring's records (emitted
        records are never mutated, so they are shared)."""
        twin = TraceObserver(None, ring=self._ring, meta=self.meta)
        if self.records is not None:
            twin.records.extend(self.records)
        memo[id(self)] = twin

    def on_arrival(self, job: Job, now: float) -> None:
        self._emit({"t": now, "ev": "arrival", "job": job.id,
                    "nodes": job.nodes, "wcl": job.wcl, "user": job.user_id})

    def on_start(self, job: Job, now: float) -> None:
        self._emit({"t": now, "ev": "start", "job": job.id,
                    "nodes": job.nodes, "wait": now - job.submit_time})

    def on_completion(self, job: Job, now: float) -> None:
        self._emit({"t": now, "ev": "complete", "job": job.id,
                    "nodes": job.nodes})

    def on_kill(self, job: Job, now: float) -> None:
        self._emit({"t": now, "ev": "kill", "job": job.id})

    def on_chunk_chain(self, job: Job, successor: Job, now: float) -> None:
        self._emit({"t": now, "ev": "chunk", "job": successor.id,
                    "parent": successor.parent_id,
                    "index": successor.chunk_index})

    def on_schedule_pass(self, now: float, reason: str, queue_depth: int,
                         running: int, free_nodes: int, started: int) -> None:
        self._emit({"t": now, "ev": "pass", "reason": reason,
                    "queue": queue_depth, "running": running,
                    "free": free_nodes, "started": started})

    def on_end(self, now: float) -> None:
        pass  # the end record needs the event count, written in collect()

    def collect(self, result: SimulationResult) -> None:
        self._emit({"t": result.end_time, "ev": "end",
                    "events": result.events_processed,
                    "jobs": len(result.jobs)})
        if self._owns_fh and self._fh is not None:
            self._fh.close()
            self._fh = None
            self._owns_fh = False


# -- reading and summarizing ---------------------------------------------------


def read_trace(path: Union[str, Path]) -> Iterator[Dict[str, object]]:
    """Yield records from a JSONL trace file, validating the schema.

    Raises ``ValueError`` on a malformed line, a missing header, or a
    schema this reader does not understand.
    """
    with open(path) as fh:
        first = True
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if first:
                if rec.get("ev") != "header":
                    raise ValueError(f"{path}: first record is not a header")
                if rec.get("schema") != TRACE_SCHEMA:
                    raise ValueError(
                        f"{path}: trace schema {rec.get('schema')!r} "
                        f"unsupported (this reader understands {TRACE_SCHEMA})"
                    )
                first = False
            yield rec
        if first:
            raise ValueError(f"{path}: empty trace")


def summarize_records(records: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Per-run decision summary computed from a record stream.

    Works on a file iterator or a ring buffer; single pass, O(passes)
    memory (queue depths are kept for percentile computation).
    """
    header: Dict[str, object] = {}
    counts: Dict[str, int] = {}
    by_reason: Dict[str, int] = {}
    depths: List[int] = []
    waits: List[float] = []
    started_total = 0
    productive = 0
    t_min: Optional[float] = None
    t_max = 0.0
    end: Dict[str, object] = {}
    for rec in records:
        ev = rec.get("ev")
        counts[ev] = counts.get(ev, 0) + 1
        if ev == "header":
            header = rec
            continue
        t = float(rec.get("t", 0.0))
        t_min = t if t_min is None else min(t_min, t)
        t_max = max(t_max, t)
        if ev == "pass":
            by_reason[rec["reason"]] = by_reason.get(rec["reason"], 0) + 1
            depths.append(int(rec["queue"]))
            started = int(rec["started"])
            started_total += started
            if started:
                productive += 1
        elif ev == "start":
            waits.append(float(rec["wait"]))
        elif ev == "end":
            end = rec
    n_pass = counts.get("pass", 0)
    n_sched_events = counts.get("arrival", 0) + counts.get("complete", 0)
    return {
        "schema": header.get("schema"),
        "policy": header.get("policy"),
        "cluster": header.get("cluster"),
        "n_jobs": header.get("n_jobs"),
        "events": {k: counts.get(k, 0)
                   for k in ("arrival", "start", "complete", "kill",
                             "chunk", "pass")},
        "engine_events": end.get("events"),
        "passes": {
            "total": n_pass,
            "by_reason": dict(sorted(by_reason.items())),
            "per_schedule_event": (
                round(n_pass / n_sched_events, 4) if n_sched_events else 0.0
            ),
            "productive_fraction": (
                round(productive / n_pass, 4) if n_pass else 0.0
            ),
            "starts_per_pass": (
                round(started_total / n_pass, 4) if n_pass else 0.0
            ),
        },
        "queue_depth": {
            "p50": percentile(depths, 50.0),
            "p95": percentile(depths, 95.0),
            "max": max(depths) if depths else 0,
        },
        "wait": {
            "p50": round(percentile(waits, 50.0), 1),
            "p95": round(percentile(waits, 95.0), 1),
            "max": round(max(waits), 1) if waits else 0.0,
        },
        "horizon": [t_min or 0.0, t_max],
    }


def render_summary(summary: Dict[str, object]) -> str:
    """The ``repro trace summarize`` text block."""
    ev = summary["events"]
    p = summary["passes"]
    qd = summary["queue_depth"]
    w = summary["wait"]
    lines = [
        f"trace: policy {summary.get('policy')}, "
        f"{summary.get('n_jobs')} jobs on {summary.get('cluster')} nodes "
        f"(schema v{summary.get('schema')})",
        f"  events     : {ev['arrival']} arrivals, {ev['start']} starts, "
        f"{ev['complete']} completions, {ev['kill']} kills, "
        f"{ev['chunk']} chunk resubmits",
        f"  passes     : {p['total']} total "
        f"({', '.join(f'{k}={v}' for k, v in p['by_reason'].items()) or '-'})",
        f"  per event  : {p['per_schedule_event']:.2f} passes/scheduling event, "
        f"{p['starts_per_pass']:.2f} starts/pass, "
        f"{100 * p['productive_fraction']:.1f}% productive",
        f"  queue depth: p50 {qd['p50']:.0f}, p95 {qd['p95']:.0f}, "
        f"max {qd['max']}",
        f"  wait time  : p50 {w['p50']:,.0f}s, p95 {w['p95']:,.0f}s, "
        f"max {w['max']:,.0f}s",
        f"  horizon    : {summary['horizon'][0]:,.0f}s .. "
        f"{summary['horizon'][1]:,.0f}s",
    ]
    return "\n".join(lines)
