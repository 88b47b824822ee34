"""End-to-end benchmark of the simulator: one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` produces the per-layer metrics from three more processes:
an untraced one (the base of ``trace.overhead_ratio`` and of the
per-event host time), one with host-time spans and one under cProfile.
Every process is a fresh interpreter running ``worker.py``; the program
runs in its default configuration, one process, no worker pool.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--write-reference``
re-measures the reference digests kept in ``perfbench/README.md``.

See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(HERE, "README.md")
#: set-up is timed in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5
#: the native event core is compiled into the checkout, not the home dir.
NATIVE_CACHE = os.path.join(".bench_build", "repro-native")


class ChildError(RuntimeError):
    pass


class Runner:
    """Starts worker processes one at a time, within a deadline."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["REPRO_NATIVE_CACHE"] = os.path.join(root, NATIVE_CACHE)

    def run(self, mode: str, workload: str = "-", seed: int = 0,
            seconds: float = 0.0, rounds: int = 0):
        """``(setup_s, result)``; ``setup_s`` runs from process start to
        the worker's ``READY`` line."""
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--rounds", str(rounds),
        ]
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            raise ChildError(f"no time left to start the {mode} process")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True
        )
        timer = threading.Timer(limit, proc.kill)
        timer.start()
        setup_s = None
        result = None
        try:
            for line in proc.stdout:
                if line == "READY\n" and setup_s is None:
                    setup_s = time.perf_counter() - t0
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or result is None:
            why = " (killed at the run's deadline)" if time.monotonic() >= self.deadline else ""
            raise ChildError(f"{mode} process for {workload} exited with code {code}{why}")
        return setup_s, result


# ---------------------------------------------------------------------- #
def read_reference() -> dict:
    """``{(workload, seed): digest}`` from the README table; seed ``any``
    is stored as ``None``."""
    ref = {}
    try:
        with open(README, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return ref
    m = re.search(r"<!-- reference-digests -->(.*?)<!-- /reference-digests -->", text, re.S)
    if not m:
        return ref
    for row in re.finditer(r"^\|\s*(\w+)\s*\|\s*(\w+)\s*\|\s*([0-9a-f]{16})\s*\|", m.group(1), re.M):
        name, seed, dig = row.groups()
        ref[(name, None if seed == "any" else int(seed))] = dig
    return ref


def reference_note(workload: str, seed: int, digest: str) -> str:
    ref = read_reference()
    want = ref.get((workload, None), ref.get((workload, seed)))
    if want is None:
        return f"no reference digest for seed {seed}"
    if want == digest:
        return "matches the reference"
    return f"DIFFERS from the reference {want}: simulated behaviour changed"


def write_reference(runner: Runner, seeds) -> None:
    lines = ["| workload | seed | digest |", "|---|---|---|"]
    for name, workload in WORKLOADS.items():
        if not workload.seeded_results:
            found = {runner.run("measure", name, s, rounds=1)[1]["digest"] for s in seeds[:2]}
            if len(found) != 1:
                raise ChildError(f"{name}: digest depends on the seed: {sorted(found)}")
            lines.append(f"| {name} | any | {found.pop()} |")
        else:
            for s in seeds:
                dig = runner.run("measure", name, s, rounds=1)[1]["digest"]
                lines.append(f"| {name} | {s} | {dig} |")
            print(f"{name}: done", file=sys.stderr)
    block = "<!-- reference-digests -->\n" + "\n".join(lines) + "\n<!-- /reference-digests -->"
    with open(README, encoding="utf-8") as f:
        text = f.read()
    text, n = re.subn(
        r"<!-- reference-digests -->.*?<!-- /reference-digests -->", block, text, flags=re.S
    )
    if n != 1:
        raise ChildError("README has no reference-digests block")
    with open(README, "w", encoding="utf-8") as f:
        f.write(text)


# ---------------------------------------------------------------------- #
def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(setups: list, res: dict) -> dict:
    op_s = res["op_s"]
    p90 = statistics.quantiles(op_s, n=10)[8] if len(op_s) > 1 else op_s[0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(res["round_s"]), "s"),
        "msgs_per_s": (res["msgs"] / sum(res["round_s"]), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(op_s), "ms"),
        "op_ms_p90": (1e3 * p90, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(plain: dict, traced: dict, profiled: dict) -> dict:
    c = defaultdict(float, traced["counts"])
    busy = defaultdict(float, traced["busy_s"])
    share = profiled["shares"]
    wall = statistics.median(plain["round_s"])
    events = c["sim.events"]
    m = {
        "sim.engine.events": (events, "count"),
        "sim.engine.cancelled_ratio": (
            _ratio(c["sim.scheduled"] - events, c["sim.scheduled"]), "ratio"),
        "sim.engine.host_us_per_event": (_ratio(1e6 * wall, events), "us"),
        "sim.engine.events_per_s": (_ratio(events, wall), "1/s"),
        "sim.flows.started": (c["flows.started"], "count"),
        "sim.flows.reschedules": (c["flows.reschedules"], "count"),
        "sim.flows.busy_s": (busy["sim.flows"], "s"),
        "sim.process.spawned": (c["process.spawned"], "count"),
        "core.session.built": (c["session.built"], "count"),
        "core.session.build_s": (busy["core.session"], "s"),
        "core.session.engines_built": (c["session.engines_built"], "count"),
        "core.sampling.busy_s": (busy["core.sampling"], "s"),
        "core.scheduler.sweeps": (c["scheduler.sweeps"], "count"),
        "core.scheduler.polls": (c["scheduler.polls"], "count"),
        "core.scheduler.commits": (c["scheduler.commits"], "count"),
        "core.scheduler.commits_per_sweep": (
            _ratio(c["scheduler.commits"], c["scheduler.sweeps"]), "ratio"),
        "core.scheduler.parks": (c["scheduler.parks"], "count"),
        "core.strategies.calls": (c["strategies.calls"], "count"),
        "core.strategies.commits": (c["strategies.commits"], "count"),
        "core.strategies.hit_ratio": (
            _ratio(c["strategies.commits"], c["strategies.calls"]), "ratio"),
        "core.strategies.entries_per_wrapper": (
            _ratio(c["strategies.entries"], c["strategies.commits"]), "ratio"),
        "core.strategies.busy_s": (busy["core.strategies"], "s"),
        "core.protocol.rdv_handshakes": (c["protocol.rdv_handshakes"], "count"),
        "core.protocol.unexpected": (c["protocol.unexpected"], "count"),
        "drivers.polls": (c["drivers.polls"], "count"),
        "drivers.idle_poll_ratio": (
            _ratio(c["drivers.idle_polls"], c["drivers.polls"]), "ratio"),
        "drivers.eager_posts": (c["drivers.eager_posts"], "count"),
        "drivers.dma_chunks": (c["drivers.dma_chunks"], "count"),
        "faults.events": (c["faults.events"], "count"),
        "faults.retries": (c["faults.retries"], "count"),
        "obs.series": (c["obs.series"], "count"),
        "trace.overhead_ratio": (
            _ratio(statistics.median(traced["round_s"]), wall), "ratio"),
    }
    for layer in ("sim.engine", "sim.flows", "sim.process", "core.scheduler",
                  "core.strategies", "core.protocol", "drivers", "faults", "mpi", "obs"):
        m[f"{layer}.share"] = (share[layer], "%")
    return m


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="re-measure the README's reference digests (seeds 1-10)")
    args = ap.parse_args(argv)
    root = os.getcwd()
    started = time.monotonic()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # the first run of a checkout compiles the native event core
    runner = Runner(root, deadline=started + 880.0)
    try:
        _, warm = runner.run("warm")
        # the measuring processes take about --seconds together (set-up
        # processes, or the three traced processes of a third each); the
        # margin covers their set-up and one overlong round
        runner.deadline = time.monotonic() + 60.0 + 2.5 * args.seconds
        if args.write_reference:
            runner.deadline = time.monotonic() + 3000.0
            write_reference(runner, list(range(1, 11)))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        return measure(args, runner, warm)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def measure(args, runner: Runner, warm: dict) -> int:
    name, seed = args.workload, args.seed
    print(f"perfbench {name} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"backend={warm['backend']} flows={warm['flows']} native_core={warm['native']}")
    problems: list[str] = []
    if args.trace == 0:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(runner.run("setup", name, seed)[0])
        setup_s, res = runner.run("measure", name, seed, seconds=args.seconds)
        setups.append(setup_s)
        metrics = end_to_end(setups, res)
        runs = [res]
        print(f"setup_s samples: {' '.join(f'{s:.3f}' for s in setups)}")
    else:
        from layers import check_map

        problems += check_map(os.path.join(runner.root, "src"))
        third = args.seconds / 3.0
        plain = runner.run("measure", name, seed, seconds=third)[1]
        traced = runner.run("spans", name, seed, seconds=third)[1]
        profiled = runner.run("profile", name, seed, seconds=third)[1]
        runs = [plain, traced, profiled]
        metrics = per_layer(plain, traced, profiled)
        res = plain
        print("profile self-time shares (%): " + ", ".join(
            f"{k} {v:.1f}" for k, v in profiled["shares"].items()))
        print("span self time per round (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(traced["span_self_s"].items())))
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        problems.append(f"traced and untraced runs disagree on the digest: {sorted(digests)}")
    for r in runs:
        if not r["deterministic"]:
            problems.append("rounds of one process produced different simulated results")
        if r["backend"] != warm["backend"] or r["flows"] != warm["flows"]:
            problems.append("a process resolved another backend or flow mode")
    digest = res["digest"]
    print(f"rounds={res['rounds']} operations={res['attempted']} failed={res['failed']}")
    for key, why in list(res["failures"].items())[:8]:
        print(f"  failed {key}: {why}")
    print(f"digest {digest}: {reference_note(name, seed, digest)}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    for p in problems:
        print(f"PROBLEM: {p}")
    out = {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
