"""One benchmark process: set up one workload, then measure it.

Started by ``run.py``, never by hand.  It prints ``READY`` once the first
operation can start (``run.py`` times the set-up from process start to
that line) and, as its last line, ``RESULT <json>``.

Modes:

``warm``     load the native event core (compiling it into the cache on
             first use) and import the program once; measures nothing.
``setup``    set up and exit.
``measure``  run whole rounds for about ``--seconds`` (or ``--rounds``).
``spans``    as ``measure``, with host-time spans around layer entry
             points and counters read after every operation.
``profile``  as ``measure``, under ``cProfile``; reports layer shares.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(records: dict) -> str:
    """Order-free hash of one round's simulated results."""
    rows = sorted((repr(k), v) for k, v in records.items())
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def warm() -> dict:
    from repro.sim import native_build

    cache = native_build.native_cache_dir()
    before = set(os.listdir(cache)) if cache.is_dir() else set()
    mod = native_build.load_native_core()
    after = set(os.listdir(cache)) if cache.is_dir() else set()
    if mod is None:
        native = f"unavailable ({native_build.build_error})"
    else:
        native = "compiled" if after - before else "cache"
    import workloads  # noqa: F401 - writes byte code for the timed imports
    import repro.bench.figures, repro.faults.chaos, repro.mpi.collectives  # noqa: E401,F401
    import repro.hardware.topology  # noqa: F401
    from repro.sim.backend import flows_mode, resolve_backend

    return {"native": native, "backend": resolve_backend(), "flows": flows_mode()}


def measure(wl, seconds: float, rounds: int, mode: str) -> dict:
    rec = profiler = None
    if mode == "spans":
        from spans import Recorder, install

        rec = Recorder()
        install(rec)
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    op_s: list[float] = []
    round_s: list[float] = []
    msgs = attempted = failed = 0
    failures: dict = {}
    digests: list[str] = []

    def timed(fn, *args):
        if wl.collect_between_ops:
            gc.collect()  # untimed: see Workload.collect_between_ops
        if profiler:
            profiler.enable()
        t0 = perf_counter()
        result = fn(*args)
        dt = perf_counter() - t0
        if profiler:
            profiler.disable()
        if rec:
            rec.harvest()
        return result, dt

    t_begin = perf_counter()
    while True:
        outs: dict = {}
        records: dict = {}
        _, spent = timed(wl.round_start)
        for key in wl.keys:
            (record, n_msgs, out), dt = timed(wl.run_op, key)
            op_s.append(dt)
            spent += dt
            records[key] = record
            outs[key] = out
            msgs += n_msgs
        round_s.append(spent)
        attempted += len(wl.keys)
        bad = wl.check(outs)
        failed += len(bad)
        for key, why in bad.items():
            failures.setdefault(repr(key), why)
        digests.append(digest(records))
        if rounds:
            if len(round_s) >= rounds:
                break
        else:
            # whole rounds only: stop at the round end nearest to the target
            elapsed = perf_counter() - t_begin
            if elapsed + 0.5 * elapsed / len(round_s) >= seconds:
                break
    result = {
        "rounds": len(round_s),
        "round_s": round_s,
        "op_s": op_s,
        "msgs": msgs,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": digests[0],
        "deterministic": len(set(digests)) == 1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec:
        n = len(round_s)
        result["counts"] = {k: v / n for k, v in rec.counts.items()}
        result["busy_s"] = {k: v / n for k, v in rec.layer_busy().items()}
        result["span_self_s"] = {k: v / n for k, v in rec.self_s.items()}
    if profiler:
        from layers import shares_from_profile

        src = os.path.join(os.getcwd(), "src")
        result["shares"] = shares_from_profile(profiler, src, HERE)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=0, help="exact rounds (0: by time)")
    ap.add_argument(
        "--mode", choices=("warm", "setup", "measure", "spans", "profile"), required=True
    )
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if args.mode == "warm":
        print("RESULT " + json.dumps(warm()), flush=True)
        return 0

    from repro.sim.backend import flows_mode, resolve_backend
    from workloads import WORKLOADS

    backend, flows = resolve_backend(), flows_mode()
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        print("RESULT " + json.dumps({"backend": backend, "flows": flows}), flush=True)
        return 0
    result = measure(wl, args.seconds, args.rounds, args.mode)
    result.update(backend=backend, flows=flows)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
