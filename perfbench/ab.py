"""Interleaved A/B comparison of two git refs on the benchmark.

Each side is checked out into its own git worktree under
``.bench_build/ab/``; both sides run this checkout's benchmark code, so
only the program differs.  Pair ``i`` uses seed ``SEED_BASE + i`` on
both sides and alternates which side runs first; the worktrees are
removed afterwards.  Run from the root of
a git checkout::

    python3 perfbench/ab.py HEAD~1 HEAD --pairs 10 --workloads bulk_alltoall
    python3 perfbench/ab.py HEAD HEAD --env-b REPRO_SIM_FLOWS=scalar

For every end-to-end metric it prints each side's median and quartiles,
the fraction of pairs B won (ties count for neither side) and a verdict:
``gain`` when B won at least nine tenths of the pairs and the medians
differ by more than A's own quartile spread, ``worse`` when B's median is
worse than A's by more than the metric's bound, ``-`` otherwise.  It
also says whether the two sides produced the same simulated digests.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: pair ``i`` runs both sides with seed ``SEED_BASE + i``.
SEED_BASE = 1000


def git(*args, cwd=None) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_side(tree: str, env_extra: dict, workload: str, seed: int, seconds: int):
    env = dict(os.environ, **env_extra)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: benchmark failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next((m.group(1) for l in lines if (m := re.match(r"digest ([0-9a-f]+)", l))), None)
    return json.loads(lines[-1]), digest


def parse_env(items) -> dict:
    out = {}
    for item in items or ():
        key, _, value = item.partition("=")
        out[key] = value
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="interleaved A/B of two git refs")
    ap.add_argument("ref_a")
    ap.add_argument("ref_b")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", default="paper_figures,collective_scale,bulk_alltoall,fault_chaos")
    ap.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--env-b", action="append", metavar="K=V", help="extra environment for side B")
    args = ap.parse_args()

    top = git("rev-parse", "--show-toplevel")
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = os.path.join(top, ".bench_build", "ab")
    sides = {}
    for label, ref, env in (("A", args.ref_a, None), ("B", args.ref_b, args.env_b)):
        sha = git("rev-parse", "--verify", f"{ref}^{{commit}}", cwd=top)
        tree = os.path.join(base, label)
        if os.path.exists(tree):
            git("worktree", "remove", "--force", tree, cwd=top)
        git("worktree", "add", "--detach", tree, sha, cwd=top)
        sides[label] = (tree, parse_env(env), sha)
        print(f"{label}: {ref} ({sha[:10]}) env={parse_env(env)}")
    try:
        for workload in args.workloads.split(","):
            values = {"A": {}, "B": {}}
            same_digest = True
            for i in range(args.pairs):
                seed = SEED_BASE + i
                order = ("A", "B") if i % 2 == 0 else ("B", "A")
                digests = {}
                for label in order:
                    tree, env, _sha = sides[label]
                    out, digests[label] = run_side(tree, env, workload, seed, seconds)
                    for name, m in out["metrics"].items():
                        values[label].setdefault(name, []).append(m["value"])
                same_digest &= digests["A"] == digests["B"]
                print(f"  {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            print(f"\n{workload}: {args.pairs} pairs, {seconds} s runs,"
                  f" simulated digests {'identical' if same_digest else 'DIFFER'}")
            print(f"{'metric':<12} {'A median [q1,q3]':>30} {'B median [q1,q3]':>30} {'B won':>6}  verdict")
            for name, spec in metrics.items():
                a, b = values["A"][name], values["B"][name]
                lower = spec["better"] == "lower"
                wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
                ma, mb = statistics.median(a), statistics.median(b)
                qa, qb = quartiles(a), quartiles(b)
                worse = (mb - ma) / ma if lower else (ma - mb) / ma
                if wins >= 0.9 * len(a) and abs(mb - ma) > qa[1] - qa[0]:
                    verdict = "gain"
                elif worse > spec["bound"]:
                    verdict = "worse"
                else:
                    verdict = "-"
                print(f"{name:<12} {ma:>12.5g} [{qa[0]:.5g},{qa[1]:.5g}]"
                      f" {mb:>12.5g} [{qb[0]:.5g},{qb[1]:.5g}] {wins / len(a):>6.0%}  {verdict}")
    finally:
        for tree, _env, _sha in sides.values():
            git("worktree", "remove", "--force", tree, cwd=top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
