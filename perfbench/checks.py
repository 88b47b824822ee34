"""Correctness checks of each workload, computed apart from the program.

Each check takes the outputs of a round's operations and returns
``{op_key: reason}`` for every operation whose output is wrong.  The
expected values come from the benchmark's own inputs and from physics
(sums, sizes, checksums, capacities), never from a recorded copy of the
program's earlier output.  A check that cannot be evaluated at all
raises :class:`CheckError`.
"""

from __future__ import annotations

import math

KB = 1024

#: below this total size the paper's Figs 2-3 show aggregation winning.
AGGREGATION_LIMIT = 16 * KB
#: fig7 ordering is checked where an iso-split puts more than one eager
#: packet's worth (16 KB) on each rail, i.e. both rails stream by DMA.
STRIPING_FROM = 64 * KB

FIG7_MX = "1 segment over Myri-10G"
FIG7_ELAN = "1 segment over Quadrics"
FIG7_ISO = "iso-split over both"
FIG7_HETERO = "hetero-split over both"


class CheckError(RuntimeError):
    """A check could not be evaluated (missing points, wrong shape)."""


# ---------------------------------------------------------------------- #
# paper_figures
# ---------------------------------------------------------------------- #
def check_figures(points: dict) -> dict:
    """``points[(fig, label, size)] = {"one_way_us", "capacity_MBps"}``.

    * no point moves more bytes per microsecond than its platform can
      carry: the sum of its rails' bandwidths, capped by the host bus;
    * fig2a/fig3a: below 16 KB the aggregated N-segment point beats the
      separate N-segment point (N = 2, 4);
    * fig7, striping sizes: hetero-split >= iso-split >= best single rail.
    """
    failed: dict = {}
    for key, p in points.items():
        size, us = key[2], p["one_way_us"]
        if not (us > 0 and math.isfinite(us)):
            failed[key] = f"one-way time {us!r} is not a positive number"
        elif size / us > p["capacity_MBps"] * (1 + 1e-9):
            failed[key] = (
                f"{size / us:.1f} MB/s exceeds the platform capacity"
                f" {p['capacity_MBps']:.1f} MB/s"
            )
    for fig in ("fig2a", "fig3a"):
        sizes = sorted({k[2] for k in points if k[0] == fig})
        if not sizes:
            raise CheckError(f"{fig}: no points")
        for n in (2, 4):
            for size in sizes:
                if size >= AGGREGATION_LIMIT or size < n:
                    continue
                plain = points.get((fig, f"{n}-seg", size))
                agg = points.get((fig, f"{n}-seg aggregated", size))
                if plain is None or agg is None:
                    raise CheckError(f"{fig}: {n}-seg points missing at {size} B")
                if not agg["one_way_us"] < plain["one_way_us"]:
                    failed.setdefault(
                        (fig, f"{n}-seg aggregated", size),
                        f"aggregation does not win below 16 KB:"
                        f" {agg['one_way_us']:.3f} us aggregated vs"
                        f" {plain['one_way_us']:.3f} us separate",
                    )
    sizes = sorted({k[2] for k in points if k[0] == "fig7" and k[2] >= STRIPING_FROM})
    if not sizes:
        raise CheckError("fig7: no striping-size points")
    for size in sizes:
        try:
            bw = {
                label: size / points[("fig7", label, size)]["one_way_us"]
                for label in (FIG7_MX, FIG7_ELAN, FIG7_ISO, FIG7_HETERO)
            }
        except KeyError as exc:
            raise CheckError(f"fig7: point missing at {size} B: {exc}") from None
        best_single = max(bw[FIG7_MX], bw[FIG7_ELAN])
        if not bw[FIG7_ISO] >= best_single:
            failed.setdefault(
                ("fig7", FIG7_ISO, size),
                f"iso-split {bw[FIG7_ISO]:.1f} MB/s below the best single rail"
                f" {best_single:.1f} MB/s",
            )
        if not bw[FIG7_HETERO] >= bw[FIG7_ISO]:
            failed.setdefault(
                ("fig7", FIG7_HETERO, size),
                f"hetero-split {bw[FIG7_HETERO]:.1f} MB/s below iso-split"
                f" {bw[FIG7_ISO]:.1f} MB/s",
            )
    return failed


# ---------------------------------------------------------------------- #
# collective_scale
# ---------------------------------------------------------------------- #
def check_collective(key, out: dict) -> dict:
    """One collective: every rank finished, no rank left before the last
    one entered, and an allreduce returned the sum of the seeded inputs.

    ``out`` holds ``n``, ``entry``/``exit`` (simulated times per rank),
    ``results`` (rank -> vector, allreduce only) and ``inputs`` (rank ->
    vector, allreduce only).
    """
    n = out["n"]
    entry, exit_ = out["entry"], out["exit"]
    if len(entry) != n or len(exit_) != n:
        return {key: f"{len(exit_)}/{n} ranks left the collective"}
    last_in = max(entry.values())
    early = [r for r, t in exit_.items() if t < last_in]
    if early:
        return {
            key: f"rank {early[0]} left at {exit_[early[0]]:.3f} us, before"
            f" the last rank entered at {last_in:.3f} us"
        }
    inputs = out.get("inputs")
    if inputs is not None:
        width = len(inputs[0])
        expected = [sum(inputs[r][i] for r in range(n)) for i in range(width)]
        results = out["results"]
        for r in range(n):
            if results.get(r) != expected:
                return {key: f"rank {r} reduced {results.get(r)!r}, want {expected!r}"}
    return {}


# ---------------------------------------------------------------------- #
# bulk_alltoall
# ---------------------------------------------------------------------- #
def check_alltoall(key, out: dict) -> dict:
    """One all-to-all: each rank got exactly P-1 payloads with the input
    sizes and checksums, P(P-1)*size bytes arrived in all, and the run
    took no less than the per-node bytes over the node's fastest path
    (the host bus or the sum of its rails, whichever is smaller).

    ``out`` holds ``n``, ``size``, ``inputs[(src, dst)] = (size, crc)``,
    ``received[dst] = {src: (size, crc)}``, ``sim_us`` and ``cap_MBps``.
    """
    n, size = out["n"], out["size"]
    delivered = 0
    for dst in range(n):
        got = out["received"].get(dst, {})
        if len(got) != n - 1 or dst in got:
            return {key: f"rank {dst} received {len(got)} payloads, want {n - 1}"}
        for src, (nbytes, crc) in got.items():
            if (nbytes, crc) != out["inputs"][(src, dst)]:
                return {key: f"payload {src}->{dst} differs from its input"}
            delivered += nbytes
    if delivered != n * (n - 1) * size:
        return {key: f"{delivered} bytes delivered, want {n * (n - 1) * size}"}
    bound_us = (n - 1) * size / out["cap_MBps"]
    if out["sim_us"] < bound_us:
        return {
            key: f"finished at {out['sim_us']:.1f} us, below the physical"
            f" bound {bound_us:.1f} us"
        }
    return {}


# ---------------------------------------------------------------------- #
# fault_chaos
# ---------------------------------------------------------------------- #
def check_chaos(key, row: dict) -> dict:
    """One chaos case: ``run_case``'s delivery, stranded and accounting
    invariants hold (``run_case`` records every violation it finds)."""
    if not row["ok"]:
        return {key: "; ".join(row["violations"][:3])}
    return {}
