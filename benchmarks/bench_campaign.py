"""Campaign executor scaling: parallel fan-out vs the serial path, and
warm-cache replay.

Eight independent cells (two policies x four seeds) are simulated three
ways — serially in-process, across a worker pool, and again against a
warm on-disk cache.  On a multi-core machine the pool's wall-clock should
approach serial/min(jobs, cores) (cells are embarrassingly parallel; the
overhead is one fork + one workload build per worker), and the cached
replay should be near-instant regardless of core count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

from repro.campaign import CampaignCache, CampaignSpec, run_campaign

JOBS = 4

SPEC = CampaignSpec.from_dict({
    "name": "bench-campaign",
    "policies": ["easy.fcfs", "cons.nomax"],
    "workloads": [
        {"kind": "random", "n_jobs": 600, "system_size": 64, "load": 1.2,
         "seeds": [1, 2, 3, 4]},
    ],
})


def _two_process_speedup(n: int = 20_000_000) -> float:
    """Measured speedup of two CPU-bound tasks on a two-process pool over
    running them back to back: near 2 where the host really runs two
    processes at once, near 1 where it only time-slices them (a CPU count
    or affinity mask can report 2 either way)."""
    work = [range(n)] * 2
    with multiprocessing.Pool(2) as pool:
        pool.map(sum, [range(1)] * 2)  # workers up before the clock starts
        t0 = time.perf_counter()
        pool.map(sum, work, chunksize=1)
        t_pool = time.perf_counter() - t0
    t0 = time.perf_counter()
    for r in work:
        sum(r)
    return (time.perf_counter() - t0) / t_pool


def _timed(**kwargs):
    t0 = time.perf_counter()
    result = run_campaign(SPEC, **kwargs)
    return result, time.perf_counter() - t0


def test_parallel_speedup_and_cache_replay(tmp_path, emit):
    serial, t_serial = _timed(jobs=1, cache=None)
    # probes bracket the pool run: the host's concurrency can change
    # from one second to the next when it is shared
    probe_before = _two_process_speedup()
    parallel, t_parallel = _timed(jobs=JOBS, cache=None)
    probe = min(probe_before, _two_process_speedup())
    cache = CampaignCache(tmp_path / "cache")
    _timed(jobs=JOBS, cache=cache)          # populate
    replay, t_replay = _timed(jobs=JOBS, cache=cache)

    cores = os.cpu_count() or 1
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    emit(
        "bench_campaign",
        "\n".join([
            f"campaign scaling — {serial.n_cells} cells, "
            f"--jobs {JOBS}, {cores} cores",
            f"  serial   (--jobs 1): {t_serial:8.2f} s",
            f"  parallel (--jobs {JOBS}): {t_parallel:8.2f} s   "
            f"speedup x{speedup:.2f} (ideal x{min(JOBS, cores)})",
            f"  warm cache replay  : {t_replay:8.2f} s   "
            f"({replay.n_cached}/{replay.n_cells} cells from cache)",
            f"  two-process probe  : x{probe:.2f}",
        ]),
    )

    # correctness regardless of path: identical aggregates everywhere
    docs = [json.dumps(r.aggregate(), sort_keys=True)
            for r in (serial, parallel, replay)]
    assert docs[0] == docs[1] == docs[2]
    assert replay.n_cached == replay.n_cells

    if probe >= 1.6:
        # the host runs two processes at once; loose floor: half the
        # ideal speedup still clears it comfortably
        assert speedup > 1.3
    assert t_replay < t_serial
