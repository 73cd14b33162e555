"""The AIQL benchmark: investigation, streaming-ingest and sharded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig4-row --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` is a separate traced run that prints the per-layer metrics.
The last line of stdout is the JSON result; the line before it records
the workload, seed and sample counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    Shard workers are normally joined by their store's ``close()``; any
    still alive here is terminated.  The spawn start method also starts
    multiprocessing's resource tracker, which otherwise outlives this
    process by a moment and is left for init to reap.  It ends when the
    pipe it watches closes, so close that pipe and wait for it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(grace)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return
        tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + grace
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no AIQL sources under {ROOT / 'src'}; run from "
              f"the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    # Durable directories live inside the checkout and go away at exit.
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        measure = harness.per_layer if args.trace else harness.end_to_end
        tally, metrics, samples = measure(workload, args.seed, args.seconds,
                                          workdir)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "trace": args.trace, "samples": samples}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
