"""Feed deliberately corrupted results to every correctness check.

Runs a small instance of each workload, confirms that its check accepts
the real outputs, then corrupts one output at a time and confirms that
the check names the corrupted operation.  Run from the repository root::

    python3 perfbench/selftest.py

Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
os.environ.setdefault(
    "REPRO_NATIVE_CACHE", os.path.join(os.getcwd(), ".bench_build", "repro-native")
)

from workloads import BulkAlltoall, CollectiveScale, FaultChaos, PaperFigures  # noqa: E402

KB = 1024
MB = 1024 * KB


def outputs(wl, seed: int = 1) -> dict:
    wl.setup(seed)
    wl.round_start()
    return {key: wl.run_op(key)[2] for key in wl.keys}


def expect(wl, outs: dict, what: str, key, mutate) -> bool:
    """True when ``mutate``-ing a copy of ``outs`` makes the check fail
    ``key`` where the untouched outputs pass it."""
    before = wl.check(outs)
    bad = copy.deepcopy(outs)
    mutate(bad)
    after = wl.check(bad)
    ok = key not in before and key in after
    print(f"{'PASS' if ok else 'FAIL'} {wl.name}: {what}"
          + (f" -> {after[key]}" if key in after else ""))
    return ok


def main() -> int:
    results = []

    wl = PaperFigures(figures=["fig2a", "fig3a", "fig7"])
    outs = outputs(wl)
    hetero = ("fig7", "hetero-split over both", 8 * MB)
    iso = ("fig7", "iso-split over both", 1 * MB)
    agg = ("fig2a", "2-seg aggregated", 64)

    def too_fast(o):
        o[hetero]["one_way_us"] = 1.0

    def slow_hetero(o):
        o[hetero]["one_way_us"] = o[("fig7", "iso-split over both", 8 * MB)]["one_way_us"] * 1.01

    def slow_iso(o):
        o[iso]["one_way_us"] = o[("fig7", "1 segment over Myri-10G", 1 * MB)]["one_way_us"] * 1.01

    def slow_agg(o):
        o[agg]["one_way_us"] = o[("fig2a", "2-seg", 64)]["one_way_us"] + 0.5

    def nan_point(o):
        o[agg]["one_way_us"] = float("nan")

    results += [
        expect(wl, outs, "a point above the platform capacity", hetero, too_fast),
        expect(wl, outs, "hetero-split slower than iso-split", hetero, slow_hetero),
        expect(wl, outs, "iso-split slower than the best single rail", iso, slow_iso),
        expect(wl, outs, "aggregation losing below 16 KB", agg, slow_agg),
        expect(wl, outs, "a non-numeric latency", agg, nan_point),
    ]

    wl = CollectiveScale(sizes=(16,), reps=(1,))
    outs = outputs(wl)
    ar = ("multilane_allreduce", 16, 0)
    nb = ("nic_barrier", 16, 0)
    mb = ("multilane_barrier", 16, 0)

    def wrong_sum(o):
        o[ar]["results"][3][0] += 1.0

    def early_exit(o):
        o[nb]["exit"][0] = max(o[nb]["entry"].values()) - 0.001

    def lost_rank(o):
        del o[mb]["exit"][5]

    results += [
        expect(wl, outs, "an allreduce off by one", ar, wrong_sum),
        expect(wl, outs, "a rank leaving the barrier early", nb, early_exit),
        expect(wl, outs, "a rank that never left", mb, lost_rank),
    ]

    wl = BulkAlltoall(n=4, size=64 * KB)
    outs = outputs(wl)
    op = 0

    def flip_crc(o):
        size, crc = o[op]["received"][2][1]
        o[op]["received"][2][1] = (size, crc ^ 1)

    def drop_payload(o):
        del o[op]["received"][1][0]

    def short_payload(o):
        size, crc = o[op]["received"][0][3]
        o[op]["received"][0][3] = (size - 1, crc)

    def too_early(o):
        o[op]["sim_us"] = 1.0

    results += [
        expect(wl, outs, "a corrupted payload", op, flip_crc),
        expect(wl, outs, "a missing payload", op, drop_payload),
        expect(wl, outs, "a short payload", op, short_payload),
        expect(wl, outs, "finishing faster than the bus allows", op, too_early),
    ]

    wl = FaultChaos(seeds=range(2), strategies="aggreg,split_balance")
    outs = outputs(wl)
    case = ("split_balance", 1)

    def violated(o):
        o[case]["ok"] = False
        o[case]["violations"] = ["delivery: message #0 never arrived"]

    results += [
        expect(wl, outs, "a recorded invariant violation", case, violated),
    ]

    print(f"{sum(results)}/{len(results)} corruptions caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
