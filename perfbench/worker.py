"""One benchmark run in a fresh interpreter: replays a workload through
``tamecovers.cli.run`` in-process and streams one JSON line per request.

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py --workload W --seed S --seconds T [--trace SPANS]
    python3 perfbench/worker.py --workload W --seed S --units N

Run from the checkout root; the program is imported from ``src``.  With
--seconds the run takes whole passes over the workload's catalogue and
stops at the pass boundary nearest to T seconds of measured time; with
--trace it stops at the first unit boundary after T seconds and writes the
raw spans to SPANS; --units N replays exactly the first N units.  Each
request line is {"argv", "rc", "out", "s", "ref_s"}: raw seconds, and
seconds scaled to reference speed (calib.py), the unit of every reported
time and of --seconds.  The last line carries the measured time, the peak
RSS and, when traced, the trace summary.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

from calib import Probe  # noqa: E402


def _setup() -> None:
    with Probe() as probe:
        import tamecovers.cli

        tamecovers.cli.build_parser()
    print(json.dumps({"setup_s": probe.reference_s, "raw_s": probe.raw_s}))


def _fill(argv: list[str], prev_out: str, workloads) -> list[str] | None:
    """Hand the preceding lift's cover and lambda to a contract request."""
    if workloads.FROM_LIFT not in argv:
        return argv
    try:
        doc = json.loads(prev_out)
        cover, lam = doc["cover"], doc["lambda"]
    except (ValueError, KeyError, TypeError):
        return None
    with open(workloads.COVER_FILE, "w", encoding="utf-8") as fh:
        json.dump(cover, fh)
    return [lam if a == workloads.FROM_LIFT else a for a in argv]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--units", type=int)
    ap.add_argument("--trace", help="write raw spans to this file")
    args = ap.parse_args()
    if args.setup:
        _setup()
        return

    import workloads

    gen = workloads.passes(args.workload, args.seed)
    import tamecovers
    import tamecovers.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(tamecovers)
    os.makedirs(os.path.dirname(workloads.COVER_FILE), exist_ok=True)

    real_stdout = sys.stdout
    latencies: list[float] = []
    wall = 0.0  # request seconds at reference speed, the unit of --seconds
    raw_wall = 0.0
    units = 0
    prev_out = ""
    done = False
    while not done:
        pass_units = next(gen)
        pass_start = time.perf_counter()
        pass_wall = 0.0
        for unit in pass_units:
            for argv in unit:
                filled = _fill(argv, prev_out, workloads)
                if filled is None:
                    rc, out, dt, ref = "skipped: no lift output", "", None, None
                else:
                    buf = io.StringIO()
                    if tracer is not None:
                        tracer.request = len(latencies)
                    with Probe(sampling=tracer is None) as probe:
                        try:
                            with contextlib.redirect_stdout(buf):
                                rc = cli.run(filled)
                        except Exception as exc:  # noqa: BLE001 - a crash is a failed request
                            rc = f"exception: {type(exc).__name__}: {exc}"
                    if tracer is not None:
                        tracer.request = -1
                    dt, ref = probe.raw_s, probe.reference_s
                    latencies.append(dt)
                    pass_wall += ref
                    out = buf.getvalue()
                    argv = filled
                prev_out = out
                real_stdout.write(json.dumps({"argv": argv, "rc": rc, "out": out, "s": dt,
                                              "ref_s": ref}) + "\n")
            units += 1
            if args.units is not None and units >= args.units:
                done = True
                break
            if tracer is not None and wall + pass_wall >= args.seconds:
                done = True
                break
        wall += pass_wall
        raw_wall += time.perf_counter() - pass_start
        if args.units is None and tracer is None and wall + pass_wall / 2 >= args.seconds:
            done = True

    summary = {
        "done": True,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "units": units,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        summary["trace"] = tracer.summary(latencies)
        tracer.write(args.trace)
    real_stdout.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main()
