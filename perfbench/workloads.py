"""The four benchmark workloads.

A workload makes its inputs from the seed in :meth:`setup`, then runs
rounds: one round is every operation of :attr:`keys` once, in a seeded
order that is the same every round.  Each operation builds its own
session, so operations are independent simulations and a round's
simulated results do not depend on the order.  ``run_op`` returns
``(record, msgs, out)``: the simulated results that go into the digest,
the application messages delivered, and what the correctness check
needs.

Module-level imports stay light: the program is imported inside
``setup`` so that the set-up time covers it.
"""

from __future__ import annotations

import random
import zlib

from checks import check_alltoall, check_chaos, check_collective, check_figures

KB = 1024
#: timed repetitions and warm-up exchanges per figure point (the figure
#: runner's defaults).
FIGURE_REPS = 3
FIGURE_WARMUP = 1


class Workload:
    name = ""
    #: False when the seed only orders the operations, so that every seed
    #: gives the same simulated results and digest.
    seeded_results = True
    #: True when an operation builds sessions large enough that the
    #: cyclic garbage of a finished one would change the next one's peak
    #: memory: the worker then runs a full collection, untimed, before
    #: every operation, so peak memory does not depend on the seeded
    #: order.  Off for many small operations, where those collections
    #: (about 5 ms each) would take longer than the operations.
    collect_between_ops = False
    #: the operations of one round, in run order (set by ``setup``).
    keys: list

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def round_start(self) -> None:
        """Per-round library work that is not an operation."""

    def run_op(self, key):
        raise NotImplementedError

    def check(self, outs: dict) -> dict:
        raise NotImplementedError

    def order(self, keys: list, seed: int) -> list:
        keys = list(keys)
        random.Random(f"{self.name}:{seed}").shuffle(keys)
        return keys


def _capacity(spec) -> float:
    return min(spec.host.bus_MBps, sum(r.bw_MBps for r in spec.rails))


# ---------------------------------------------------------------------- #
class PaperFigures(Workload):
    """The ten-figure ping-pong sweep, one fresh two-node session per point."""

    name = "paper_figures"
    seeded_results = False

    def __init__(self, figures=None):
        self.figures = figures

    def setup(self, seed: int) -> None:
        from repro.bench.figures import figure_plan, FIGURES

        self._figure_plan = figure_plan
        self.plans = {f: figure_plan(f) for f in (self.figures or list(FIGURES))}
        keys = []
        for fid, plan in self.plans.items():
            for curve in plan.curves:
                keys += [(fid, curve.label, s) for s in plan.sizes if s >= curve.segments]
        self._curve = {
            (fid, c.label): c for fid, p in self.plans.items() for c in p.curves
        }
        self.keys = self.order(keys, seed)

    def round_start(self) -> None:
        # fig7's split ratios come from init-time sampling, which the
        # library runs once per sweep: that is work measured every round.
        if "fig7" in self.plans:
            plan = self._figure_plan("fig7")
            self.plans["fig7"] = plan
            for c in plan.curves:
                self._curve[("fig7", c.label)] = c

    def run_op(self, key):
        from repro.bench.pingpong import run_pingpong

        fid, label, size = key
        curve = self._curve[(fid, label)]
        session = curve.session_factory()
        r = run_pingpong(
            session, size, segments=curve.segments, reps=FIGURE_REPS, warmup=FIGURE_WARMUP
        )
        sim = session.sim
        record = (r.one_way_us, sim.now, sim.events_executed)
        out = {"one_way_us": r.one_way_us, "capacity_MBps": _capacity(session.spec)}
        return record, session.counters()["segments_submitted"], out

    def check(self, outs: dict) -> dict:
        return check_figures(outs)


# ---------------------------------------------------------------------- #
#: elements of the allreduce vector (as in the repo's scaling suite).
VECTOR_LEN = 8
#: ranks enter each collective after a seeded skew drawn from this range.
SKEW_US = (0.5, 10.0)
COLLECTIVES = ("multilane_allreduce", "multilane_barrier", "nic_barrier")


class CollectiveScale(Workload):
    """Multi-lane allreduce/barrier and NIC barrier at large node counts."""

    name = "collective_scale"
    collect_between_ops = True

    def __init__(self, sizes=(256, 1024), reps=(2, 1)):
        # The cheap P=256 collectives run twice per round: with six
        # equally weighted operation kinds the median operation would
        # fall exactly between two kinds (P=256 barrier, P=1024 NIC
        # barrier) and jump between them from run to run.
        self.sizes = tuple(sizes)
        self.reps = dict(zip(self.sizes, reps))

    def setup(self, seed: int) -> None:
        from repro.hardware.topology import rail_optimized_platform

        rng = random.Random(f"{self.name}:{seed}")
        self.specs = {n: rail_optimized_platform(n) for n in self.sizes}
        self.skew = {}
        self.inputs = {}
        for algo in COLLECTIVES:
            for n in self.sizes:
                self.skew[(algo, n)] = [
                    round(rng.uniform(*SKEW_US), 3) for _ in range(n)
                ]
                if algo == "multilane_allreduce":
                    # integral values: the reduction order cannot change the sum
                    self.inputs[(algo, n)] = [
                        [float(rng.randint(-1000, 1000)) for _ in range(VECTOR_LEN)]
                        for _ in range(n)
                    ]
        self.keys = self.order(
            [(a, n, i) for a in COLLECTIVES for n in self.sizes for i in range(self.reps[n])],
            seed,
        )

    def run_op(self, key):
        from repro.core.session import Session
        from repro.mpi import collectives
        from repro.mpi.comm import Communicator
        from repro.sim.process import Timeout

        algo, n, _rep = key
        session = Session(self.specs[n], strategy="aggreg_multirail")
        comm = Communicator(session, name=f"bench.{algo}")
        sim = session.sim
        skew = self.skew[(algo, n)]
        inputs = self.inputs.get((algo, n))
        entry: dict = {}
        exit_: dict = {}
        results: dict = {}
        fn = getattr(collectives, algo)

        def body(rank):
            yield Timeout(skew[rank])
            entry[rank] = sim.now
            ep = comm.endpoint(rank)
            if inputs is not None:
                results[rank] = yield from fn(ep, inputs[rank])
            else:
                yield from fn(ep)
            exit_[rank] = sim.now

        for rank in range(n):
            session.spawn(body(rank), name=f"bench.r{rank}")
        session.run_until_idle()
        exits = [exit_.get(r, -1.0) for r in range(n)]
        record = (
            sim.now,
            sim.events_executed,
            zlib.crc32(repr(exits).encode()),
            zlib.crc32(repr([results.get(r) for r in range(n)]).encode()),
        )
        out = {"n": n, "entry": entry, "exit": exit_, "results": results, "inputs": inputs}
        return record, session.counters()["segments_submitted"], out

    def check(self, outs: dict) -> dict:
        failed: dict = {}
        for key, out in outs.items():
            failed.update(check_collective(key, out))
        return failed


# ---------------------------------------------------------------------- #
#: switch radix of the all-to-all's fat tree: 4 hosts per leaf switch.
FAT_TREE_RADIX = 8


class BulkAlltoall(Workload):
    """Personalized all-to-all of rendezvous-sized messages on a fat tree."""

    name = "bulk_alltoall"
    collect_between_ops = True

    def __init__(self, n: int = 32, size: int = 64 * KB):
        self.n = n
        self.size = size

    def setup(self, seed: int) -> None:
        from repro.hardware.topology import fat_tree_platform

        rng = random.Random(f"{self.name}:{seed}")
        n = self.n
        self.spec = fat_tree_platform(n, radix=FAT_TREE_RADIX)
        self.payloads = {
            (s, d): rng.randbytes(self.size) for s in range(n) for d in range(n) if s != d
        }
        self.expect = {k: (len(v), zlib.crc32(v)) for k, v in self.payloads.items()}
        self.keys = [0]  # one all-to-all per round

    def run_op(self, key):
        from repro.core.session import Session
        from repro.mpi.collectives import alltoall
        from repro.mpi.comm import Communicator

        n = self.n
        session = Session(self.spec, strategy="split_balance")
        comm = Communicator(session, name="bench.alltoall")
        got: dict = {}

        def body(rank):
            row = [self.payloads.get((rank, d), b"") for d in range(n)]
            got[rank] = yield from alltoall(comm.endpoint(rank), row)

        for rank in range(n):
            session.spawn(body(rank), name=f"bench.r{rank}")
        session.run_until_idle()
        received = {
            dst: {
                src: (p.size, zlib.crc32(p.data) if p.data is not None else -1)
                for src, p in row.items()
                if p is not None
            }
            for dst, row in got.items()
        }
        sim = session.sim
        record = (sim.now, sim.events_executed, sorted(
            (d, s, c) for d, row in received.items() for s, (_n, c) in row.items()
        ))
        out = {
            "n": n,
            "size": self.size,
            "inputs": self.expect,
            "received": received,
            "sim_us": sim.now,
            "cap_MBps": _capacity(self.spec),
        }
        return record, session.counters()["segments_submitted"], out

    def check(self, outs: dict) -> dict:
        failed: dict = {}
        for key, out in outs.items():
            failed.update(check_alltoall(key, out))
        return failed


# ---------------------------------------------------------------------- #
#: the chaos grid's fixed seed range (every registered strategy x these).
CHAOS_SEEDS = range(20)


class FaultChaos(Workload):
    """The chaos grid: every strategy under seeded fault plans."""

    name = "fault_chaos"
    seeded_results = False

    def __init__(self, seeds=CHAOS_SEEDS, strategies="all"):
        self.seeds = seeds
        self.strategies = strategies

    def setup(self, seed: int) -> None:
        from repro.faults.chaos import ChaosCase, chaos_strategies
        from repro.faults.plan import random_plan
        from repro.hardware.presets import paper_platform

        spec = paper_platform()
        self.cases = {}
        for strategy in chaos_strategies(self.strategies):
            for s in self.seeds:
                case = ChaosCase(strategy, s)
                plan = random_plan(s, spec, horizon_us=case.horizon_us)
                self.cases[(strategy, s)] = (case, plan)
        self.keys = self.order(list(self.cases), seed)

    def run_op(self, key):
        from repro.faults.chaos import run_case

        case, plan = self.cases[key]
        row = run_case(case, plan)
        record = row["digest"]
        return record, case.messages, row

    def check(self, outs: dict) -> dict:
        failed: dict = {}
        for key, row in outs.items():
            failed.update(check_chaos(key, row))
        return failed


WORKLOADS = {
    w.name: w for w in (PaperFigures, CollectiveScale, BulkAlltoall, FaultChaos)
}
