"""The ``service-stream`` workload: the full trace streamed to ``repro serve``.

One load generator holds two tenant connections (jobs split by
``user_id % 2``) and sends 7-job ``submit`` batches in merged arrival
order, one request in flight at a time (a closed loop: each reply is
awaited, and the server withholds replies under backpressure).  Tenant 0
also sends ``metrics`` after every 25th submit and a ``whatif`` after 25,
50 and 75% of the submits (counted over both tenants, so the engine is at
the same point of the trace whatever the tenant split); both tenants drain,
then tenant 0 asks for the ``result``.  The order of requests is a
function of the inputs alone, so every run does identical work, whatever
the host's speed.

The timed streams carry the calibrated trace at every seed: with the
owners shuffled by the seed, the submit latency moved 11% between seeds
against 2% between runs of one input.  The seed's own input is streamed
once, at a tenth of the size and untimed, through the oracles.

The served digest and per-user block must equal an offline ``api.run`` of
``merged_workload`` (the referee), and every reply must be ``ok``.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import os
import queue
import signal
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from common import (
    PINNED_SEED,
    Tally,
    calibrated_trace,
    median_or_zero,
    note,
    peak_rss_mb,
    per_user_payload,
    work_dir,
    seeded_trace,
    tail,
    wall_seconds,
)
from hostclock import HostClock

POLICY = "easy.fairshare"
SYSTEM_SIZE = 1024
BATCH = 7
METRICS_EVERY = 25
WHATIF_AT = (0.25, 0.5, 0.75)
WHATIF_OVERRIDES = {"decay_factor": 0.5}
SETUPS = 5
#: size of the seed's input, relative to the timed one, in the untimed check
HELD_OUT_SCALE = 0.1
STARTUP_TIMEOUT_S = 60.0
#: prctl option: signal sent to a child when its parent dies
PR_SET_PDEATHSIG = 1

HERE = Path(__file__).resolve().parent


def tenant_streams(wl) -> Dict[str, List[dict]]:
    streams: Dict[str, List[dict]] = {"tenant-0": [], "tenant-1": []}
    for j in wl.jobs:
        streams[f"tenant-{j.user_id % 2}"].append(
            {"at": j.submit_time, "nodes": j.nodes, "runtime": j.runtime,
             "wcl": j.wcl, "user": j.user_id})
    return streams


def _setup(seed: int, scale: float):
    wl = seeded_trace(calibrated_trace(scale), seed)
    return wl, tenant_streams(wl)


def _die_with_parent() -> None:
    """In the server child: get SIGKILL when the benchmark process dies, so
    a benchmark killed mid-stream leaves no server behind."""
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


class Server:
    """A server subprocess: ``repro serve``, or the benchmark's traced
    launcher that wraps the same server's layers."""

    def __init__(self, root: Path, layers_out: Optional[Path] = None) -> None:
        if layers_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--policy", POLICY, "--system-size", str(SYSTEM_SIZE)]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(layers_out)]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                     preexec_fn=_die_with_parent)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.host, self.port = self._await_listening()

    def _pump(self) -> None:
        for line in self.proc.stdout:  # type: ignore[union-attr]
            self._lines.put(line)
        self._lines.put(None)

    def _await_listening(self) -> Tuple[str, int]:
        tail_lines: List[str] = []
        while True:
            try:
                line = self._lines.get(timeout=STARTUP_TIMEOUT_S)
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise RuntimeError("server did not start: " + "".join(tail_lines[-20:]))
            tail_lines.append(line)
            if "[repro-serve] listening on " in line:
                host, port = line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)
                return host, int(port)

    def wait(self, timeout: float = 60.0) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)


async def _stream(server: Server, streams: Dict[str, List[dict]],
                  clock: HostClock, tally: Tally) -> dict:
    """Drive one full stream; returns timings and the final result."""
    from repro.service.client import ServiceClient, ServiceError

    names = sorted(streams)
    batches = {n: [streams[n][i:i + BATCH] for i in range(0, len(streams[n]), BATCH)]
               for n in names}
    control = names[0]
    n_submits = sum(len(b) for b in batches.values())
    whatif_at = {max(1, round(q * n_submits)) for q in WHATIF_AT}
    lat: Dict[str, List[Tuple[float, float]]] = {
        op: [] for op in ("hello", "submit", "metrics", "whatif", "drain", "result",
                          "shutdown")}
    conns = {n: await ServiceClient.connect(server.host, server.port) for n in names}
    admitted = 0

    async def call(name: str, op: str, **fields):
        t0 = clock.now()
        try:
            resp = await conns[name].request(op, **fields)
        except ServiceError as exc:
            tally.check(False, f"{op} from {name}: {exc}")
            return None
        lat[op].append((t0, clock.now()))
        tally.attempted += 1
        return resp

    try:
        for n in names:
            await call(n, "hello", tenant=n)
        nxt = {n: 0 for n in names}
        sent = 0
        first = clock.now()
        while True:
            ready = [n for n in names if nxt[n] < len(batches[n])]
            if not ready:
                break
            # merged arrival order keeps both watermarks moving together
            name = min(ready, key=lambda n: (batches[n][nxt[n]][0]["at"], n))
            resp = await call(name, "submit", jobs=batches[name][nxt[name]])
            nxt[name] += 1
            if resp is not None:
                admitted += resp["admitted"]
            sent += 1
            if sent % METRICS_EVERY == 0:
                await call(control, "metrics")
            if sent in whatif_at:
                await call(control, "whatif", overrides=WHATIF_OVERRIDES)
        for n in names:
            resp = await call(n, "drain")
            if resp is not None:
                admitted += resp["admitted"]
        last = clock.now()
        result = await call(control, "result")
        rss = peak_rss_mb(server.proc.pid)
        await call(control, "shutdown")
    finally:
        for c in conns.values():
            await c.close()
    return {"lat": lat, "window": (first, last), "admitted": admitted,
            "result": result, "rss": rss}


class ServiceRun:
    def __init__(self, tamper=None) -> None:
        self.tally = Tally()
        self.tamper = tamper
        self.root = Path.cwd()

    def stream(self, clock: HostClock, streams, layers_out: Optional[Path] = None):
        """Start a server, stream once, stop it.  Returns the stream record
        and the (start, listening) interval."""
        t0 = clock.now()
        server = Server(self.root, layers_out)
        t1 = clock.now()
        try:
            rec = asyncio.run(_stream(server, streams, clock, self.tally))
            self.tally.check(server.wait() == 0, "server exited with an error")
        finally:
            server.kill()
        if self.tamper is not None and rec["result"] is not None:
            self.tamper(rec["result"])
        return rec, (t0, t1)

    def check_held_out(self, clock: HostClock, seed: int, scale: float) -> None:
        """Stream the seed's input through the oracles when it is not the
        timed one."""
        if seed != PINNED_SEED:
            wl, streams = _setup(seed, scale * HELD_OUT_SCALE)
            rec, _ = self.stream(clock, streams)
            self.check(rec, self.referee(wl, streams))

    def referee(self, wl, streams) -> dict:
        from repro import api
        from repro.service import merged_workload

        merged = merged_workload(streams, wl.system_size)
        ref = api.run(policy=POLICY, workload=merged)
        return {"n_jobs": len(merged.jobs), "digest": ref.digest(),
                "per_user": json.dumps(per_user_payload(ref.metric_jobs, ref.fst, 1.0),
                                       sort_keys=True)}

    def check(self, rec: dict, ref: dict) -> None:
        t = self.tally
        res = rec["result"]
        t.check(rec["admitted"] == ref["n_jobs"],
                f"admitted {rec['admitted']} of {ref['n_jobs']} submitted jobs")
        if not t.check(res is not None, "no result"):
            return
        t.check(res["summary"]["n_jobs"] == ref["n_jobs"],
                f"result reports {res['summary']['n_jobs']} jobs, {ref['n_jobs']} submitted")
        t.check(res["digest"] == ref["digest"],
                f"served digest {res['digest'][:12]} != referee {ref['digest'][:12]}")
        t.check(json.dumps(res["per_user"], sort_keys=True) == ref["per_user"],
                "served per-user metrics differ from the referee")


def measure(seed: int, seconds: float, clock: HostClock, scale: float = 1.0, tamper=None):
    run = ServiceRun(tamper)
    gens = []
    for _ in range(SETUPS):
        t0 = clock.now()
        wl, streams = _setup(PINNED_SEED, scale)
        gens.append((t0, clock.now()))
    ref = run.referee(wl, streams)

    deadline = clock.now() + seconds
    recs, starts = [], []
    while not recs or clock.now() < deadline:
        rec, up = run.stream(clock, streams)
        run.check(rec, ref)
        recs.append(rec)
        starts.append(up)
    run.check_held_out(clock, seed, scale)

    submits = [s for r in recs for s in r["lat"]["submit"]]
    rss = max(r["rss"] for r in recs)

    def metrics(sec):
        return {
            "setup_s": median([sec(*s) for s in gens]) + median([sec(*s) for s in starts]),
            "jobs_per_s": median([r["admitted"] / sec(*r["window"]) for r in recs]),
            "request_p50_ms": median([1000 * sec(*s) for s in submits]),
            "peak_rss_mb": rss,
        }

    note("samples", {"setup_s": [len(gens), len(starts)], "jobs_per_s": len(recs),
                     "request_p50_ms": len(submits)})
    note("uncorrected", metrics(wall_seconds))
    return run.tally, metrics(clock.ref_seconds)


def traced(seed: int, clock: HostClock, scale: float = 1.0):
    """One untraced stream (``repro serve``) and one traced stream (the
    launcher), with identical work; layer totals come from the server."""
    import repro.service.client  # noqa: F401  (imported before either pass)
    from layers import Tracer

    run = ServiceRun()
    t0 = clock.now()
    wl, streams = _setup(PINNED_SEED, scale)
    plain, _ = run.stream(clock, streams)
    t1 = clock.now()

    tracer = Tracer()
    with work_dir("serve") as work:
        t2 = clock.now()
        wl, streams = tracer.span("workload.generate", _setup, PINNED_SEED, scale)
        seen, _ = run.stream(clock, streams, work / "layers.json")
        t3 = clock.now()
        server = json.loads((work / "layers.json").read_text())
    tracer.merge(server["tracer"])

    ref = run.referee(wl, streams)
    run.check(plain, ref)
    run.check(seen, ref)
    run.check_held_out(clock, seed, scale)

    speed = clock.speed(t2, t3)
    ops = [s for spans in seen["lat"].values() for s in spans]
    client_s = sum(b - a for a, b in ops)
    extra = {
        "svc.submit_p99_ms": tail(
            [1000 * clock.ref_seconds(*s) for s in plain["lat"]["submit"]], 0.99),
        "tenancy.admitted": seen["admitted"],
        "server.wire_ms": 1000 * speed * (client_s - server["handler_s"])
        / max(1, server["handler_calls"]),
        **{f"svc.{op}_p50_ms": median_or_zero(
            [1000 * clock.ref_seconds(*s) for s in plain["lat"][op]])
           for op in ("metrics", "whatif", "result")},
    }
    note("samples", {f"svc.{op}_{q}_ms": len(plain["lat"][op])
                     for op, q in (("submit", "p99"), ("metrics", "p50"),
                                   ("whatif", "p50"), ("result", "p50"))})
    return run.tally, tracer, server["counters"], (t0, t1), (t2, t3), extra
