"""The repository benchmark: one command, four workloads, every metric by
name with its unit, correctness oracles always on.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-cons --seed 7 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes one untraced and one traced pass of identical work and
reports per-layer self times, exact work counts, the ``other`` remainder
and the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("batch-cons", "batch-light", "service-stream", "paper-build")

#: end-to-end metrics (tracing off): name -> unit
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "request_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: selected hot-path counters (``repro.obs.counters``) reported as
#: ``ctr.<name>``: the work an optimisation of one layer would change
COUNTERS = (
    "engine.events",
    "engine.schedule_pass",
    "profile.earliest_fit",
    "profile.reserve_fitted",
    "profile.from_occupations",
    "listsched.place",
    "listsched.rebuild",
    "cons.compress",
    "cons.compress_skipped",
    "sched.start",
    "sched.backfill_start",
    "sched.order_sort",
    "sched.order_cache_hit",
    "fairshare.settle",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric (``--trace 1``) -> unit."""
    from layers import LAYER_CALLS, LAYER_TIMES

    units = {name: "s" for name in LAYER_TIMES}
    units.update({
        "other_s": "s",
        "traced_wall_s": "s",
        "untraced_wall_s": "s",
        "trace_overhead_pct": "%",
        "host_speed": "ratio",
        "artifacts.render_cpu_s": "s",
        "campaign.cell_sim_s": "s",
        "campaign.cell_overhead_s": "s",
        "campaign.pool_utilization": "ratio",
        "server.wire_ms": "ms",
        "svc.submit_p99_ms": "ms",
        "svc.metrics_p50_ms": "ms",
        "svc.whatif_p50_ms": "ms",
        "svc.result_p50_ms": "ms",
        "paper.cold_s": "s",
        "paper.warm_s": "s",
    })
    units.update({name: "count" for name in LAYER_CALLS})
    units.update({"tenancy.admitted": "count", "cache.hits": "count",
                  "cache.misses": "count"})
    units.update({f"ctr.{name}": "count" for name in COUNTERS})
    return units


def layer_metrics(clock, tracer, counts, plain: Tuple[float, float],
                  seen: Tuple[float, float], extra) -> Dict[str, float]:
    """Per-layer values in reference seconds; the main-thread layer times
    plus ``other_s`` add up to ``traced_wall_s``."""
    speed = clock.speed(*seen)
    times = {k: v * speed for k, v in tracer.layer_times().items()}
    traced_wall = clock.ref_seconds(*seen)
    untraced_wall = clock.ref_seconds(*plain)
    out: Dict[str, float] = {name: 0 for name in per_layer_units()}
    out.update(times)
    out.update(tracer.layer_calls())
    out.update({f"ctr.{n}": counts.get(n, 0) for n in COUNTERS})
    out.update({
        "other_s": traced_wall - sum(times.values()),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "trace_overhead_pct": 100 * (traced_wall / untraced_wall - 1),
        "host_speed": clock.speed(),
    })
    out.update(extra)
    return out


def render_table(values: Dict[str, float], units: Dict[str, str]) -> str:
    """The per-layer table; the layer times and ``other_s``, which add up
    to the traced wall time, carry their share of it."""
    from layers import LAYER_TIMES

    wall = values["traced_wall_s"]
    rows = []
    for name, unit in units.items():
        v = values[name]
        text = f"{v:>14.4f}" if isinstance(v, float) else f"{v:>14,}"
        share = ""
        if (name in LAYER_TIMES or name == "other_s") and wall:
            share = f"{100 * v / wall:6.1f}%"
        rows.append(f"  {name:<34} {text} {unit:<6} {share}".rstrip())
    return "\n".join(rows)


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """Run one workload; returns the result object (the last output line)."""
    import wl_batch
    import wl_paper
    import wl_service
    from common import one_cpu
    from hostclock import HostClock

    # the program's threads and processes (the server, the pool workers)
    # start from here and share the probe's CPU (see hostclock.py)
    with one_cpu(), HostClock() as clock:
        if not trace:
            if workload in wl_batch.POLICIES:
                tally, values = wl_batch.measure(workload, seed, seconds, clock, scale)
            elif workload == "service-stream":
                tally, values = wl_service.measure(seed, seconds, clock, scale)
            else:
                tally, values = wl_paper.measure(seconds, clock, scale * wl_paper.SCALE)
            units = END_TO_END
        else:
            if workload in wl_batch.POLICIES:
                got = wl_batch.traced(workload, seed, clock, scale)
            elif workload == "service-stream":
                got = wl_service.traced(seed, clock, scale)
            else:
                got = wl_paper.traced(clock, scale * wl_paper.SCALE)
            tally = got[0]
            values = layer_metrics(clock, *got[1:])
            units = per_layer_units()
            print(f"per-layer table: {workload}, seed {seed} "
                  f"(reference seconds; host speed {values['host_speed']:.3f})")
            print(render_table(values, units))
        print(f"[perfbench] {workload} seed {seed}: host speed {clock.speed():.4f} "
              "(reference seconds = wall seconds x host speed)", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7,
                    help="input seed (7: the calibrated trace with pinned digests)")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measurement time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
