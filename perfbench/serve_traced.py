"""Launch the scheduler server with the benchmark's layer spans installed.

Runs the same ``serve_async`` as ``repro serve``, with the service
workload's policy and machine size, after wrapping the core and service
layers (see ``layers.py``) and timing every request handler, with the
hot-path counter registry enabled.  It binds an ephemeral port and
announces it like ``repro serve``.  At shutdown it writes the span totals,
the counters and the handler time to the file named by its argument.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python perfbench/serve_traced.py layers.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Tracer, install_core, install_service, scheduler_classes  # noqa: E402
from wl_service import POLICY, SYSTEM_SIZE  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("layers_out", type=Path)
    args = ap.parse_args()

    from repro.obs import counters
    from repro.service import server

    tracer = Tracer()
    install_core(tracer, scheduler_classes([POLICY]))
    install_service(tracer)
    handler = {"handler_s": 0.0, "handler_calls": 0}
    dispatch = server.SchedulerService._dispatch

    async def timed_dispatch(self, line, tenant):
        t0 = time.perf_counter()
        try:
            return await dispatch(self, line, tenant)
        finally:
            handler["handler_s"] += time.perf_counter() - t0
            handler["handler_calls"] += 1

    server.SchedulerService._dispatch = timed_dispatch
    with counters.collect() as ctr:
        asyncio.run(server.serve_async(policy=POLICY, system_size=SYSTEM_SIZE))
    args.layers_out.write_text(json.dumps(
        {"tracer": tracer.dump(), "counters": ctr.as_dict(), **handler}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
