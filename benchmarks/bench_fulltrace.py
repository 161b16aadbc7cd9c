"""Macro benchmark: end-to-end simulation throughput, per policy.

This is the number the performance trajectory tracks (see
``docs/PERFORMANCE.md`` and ``tools/bench_trajectory.py``): wall-clock
time of :func:`repro.api.run` — the whole stack the
campaign layer multiplies out, i.e. engine + scheduler + reservation
profile + HybridFST/LOC observers + metric derivation — on a generated
CPlant-like trace.

Alongside throughput it records each run's :meth:`SimulationResult.digest`
so a perf PR can prove its numbers describe *the same simulation* as the
baseline (byte-identical results, not a behavior change).

Usage::

    PYTHONPATH=src python benchmarks/bench_fulltrace.py                 # default scale
    PYTHONPATH=src python benchmarks/bench_fulltrace.py --scale 1.0 \
        --out BENCH_4.json --label post

Also collectable by pytest (smoke scale, asserts throughput > 0) so CI
catches import/collection breakage without paying for a full trace.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: the headline policy (conservative backfilling + fairshare priority,
#: measured with the HybridFSTObserver attached) plus one representative
#: of each other scheduler family.
DEFAULT_POLICIES = (
    "cons.nomax",
    "consdyn.nomax",
    "cplant24.nomax.all",
    "easy.fairshare",
)


def bench_policy(workload, policy: str, repeat: int = 1,
                 counters: bool = False) -> dict:
    """Run one policy ``repeat`` times; report the best wall time.

    With ``counters=True`` an extra (untimed) run collects the hot-path
    counter registry — kept out of the timed runs so the reported seconds
    measure the zero-overhead disabled configuration.
    """
    from repro import api

    best = None
    events = jobs = 0
    digest = ""
    for _ in range(repeat):
        t0 = time.perf_counter()
        run = api.run(policy=policy, workload=workload)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best = dt
        events = run.result.events_processed
        jobs = len(run.result.jobs)
        digest = run.result.digest()
    rec = {
        "seconds": round(best, 4),
        "runs_per_sec": round(1.0 / best, 4),
        "events_per_sec": round(events / best, 1),
        "jobs_per_sec": round(jobs / best, 1),
        "events": events,
        "jobs": jobs,
        "digest": digest,
    }
    if counters:
        from repro.obs.counters import collect

        with collect() as c:
            counted = api.run(policy=policy, workload=workload)
        if counted.result.digest() != digest:
            raise AssertionError(
                f"{policy}: digest changed with counters enabled"
            )
        rec["counters"] = c.as_dict()
    return rec


def run_bench(scale: float, seed: int, policies, repeat: int = 1,
              progress: bool = True, counters: bool = False) -> dict:
    from repro.workload.generator import GeneratorConfig, generate_cplant_workload

    wl = generate_cplant_workload(GeneratorConfig(scale=scale), seed=seed)
    report = {
        "bench": "fulltrace",
        "scale": scale,
        "seed": seed,
        "n_jobs": len(wl.jobs),
        "system_size": wl.system_size,
        "python": platform.python_version(),
        "policies": {},
    }
    for policy in policies:
        if progress:
            print(f"[bench] {policy} ...", flush=True)
        rec = bench_policy(wl, policy, repeat=repeat, counters=counters)
        report["policies"][policy] = rec
        if progress:
            print(
                f"[bench] {policy}: {rec['seconds']:.2f}s "
                f"({rec['events_per_sec']:.0f} events/s, "
                f"{rec['jobs_per_sec']:.0f} jobs/s)",
                flush=True,
            )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=0.2,
                    help="fraction of the full trace (1.0 = 13,236 jobs)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--policies", nargs="*", default=list(DEFAULT_POLICIES))
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per policy; best time is reported")
    ap.add_argument("--counters", action="store_true",
                    help="record hot-path counters (one extra untimed "
                         "run per policy)")
    ap.add_argument("--out", type=Path, default=None,
                    help="write/update a BENCH_*.json report here")
    ap.add_argument("--label", default="post",
                    help="section of the report to fill: 'baseline' or 'post'")
    args = ap.parse_args(argv)

    report = run_bench(args.scale, args.seed, args.policies,
                       repeat=args.repeat, counters=args.counters)
    if args.out is not None:
        merged = {}
        if args.out.exists():
            merged = json.loads(args.out.read_text())
        merged[args.label] = report
        base = merged.get("baseline", {}).get("policies", {})
        post = merged.get("post", {}).get("policies", {})
        if base and post:
            merged["speedup"] = {
                p: round(base[p]["seconds"] / post[p]["seconds"], 2)
                for p in post if p in base
            }
            merged["digests_match"] = {
                p: base[p]["digest"] == post[p]["digest"]
                for p in post if p in base
            }
        args.out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"[bench] wrote {args.out}")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


# -- pytest smoke wrapper ------------------------------------------------------

def test_fulltrace_smoke():
    """Tiny-scale sanity run so CI catches breakage cheaply."""
    report = run_bench(scale=0.02, seed=7, policies=("cons.nomax",),
                       progress=False, counters=True)
    rec = report["policies"]["cons.nomax"]
    assert rec["events_per_sec"] > 0
    assert rec["jobs"] == report["n_jobs"]
    # the counter pass rode along and saw the simulation's hot paths fire
    assert rec["counters"]["engine.events"] == rec["events"]
    assert rec["counters"]["profile.reserve_fitted"] > 0


if __name__ == "__main__":
    sys.exit(main())
