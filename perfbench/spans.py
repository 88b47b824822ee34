"""Host-time spans around the public entry points of the program's layers.

:func:`install` wraps, from outside the program, the calls through which
work enters a layer: session and engine construction, init-time
sampling, the strategy interface, the flow allocator's entry points and
process creation.  Each wrapper records a span on a stack: its duration,
and the span that was open when it started (its parent).  A span's self
time is its duration minus the time its child spans cover; self time is
summed per span name.  The recorder keeps only these sums in memory and
reports them when the run ends.

Counts are read from public program state after every operation
(:meth:`Recorder.harvest`): simulator counters, ``FlowNetwork``
counters, per-node engine and driver counters, ``Session.active_health``
and the metrics registry.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

#: span name -> layer; spans not listed here belong to no layer and only
#: take their time out of their parent's self time.
SPAN_LAYER = {
    "session.build": "core.session",
    "engine.build": "core.session",
    "sampling": "core.sampling",
    "strategy": "core.strategies",
    "flows": "sim.flows",
}


class Recorder:
    def __init__(self) -> None:
        #: open spans: ``[name, child_time]``
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.sessions: list = []
        self._rail_poll_cost: dict[str, float] = {}

    # -- spans -------------------------------------------------------------
    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, outermost)`` runs on
        return (``outermost``: no span of the same name is open)."""
        stack = self.stack
        self_s = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != name
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self_s[name] += dur - frame[1]
            if after is not None:
                after(result, outer)
            return result

        return wrapper

    def layer_busy(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            layer = SPAN_LAYER.get(name)
            if layer is not None:
                out[layer] += s
        return dict(out)

    # -- counts from program state ------------------------------------------
    def harvest(self) -> None:
        """Fold the counters of every session built since the last call."""
        c = self.counts
        seen_sims = set()
        for session in self.sessions:
            sim = session.sim
            if id(sim) not in seen_sims:
                seen_sims.add(id(sim))
                c["sim.events"] += sim.events_executed
                c["sim.scheduled"] += sim.events_scheduled
            net = session.platform.flownet
            c["flows.reschedules"] += net.reschedule_count
            health = session.active_health()
            c["session.engines_built"] += health["engines_built"]
            for engine in session.engines.built():
                ec = engine.counters
                c["scheduler.sweeps"] += ec["sweeps"]
                c["scheduler.polls"] += ec["polls"]
                c["scheduler.commits"] += ec["packets_committed"]
                c["scheduler.parks"] += ec["pump_parks"]
                c["protocol.rdv_handshakes"] += ec["rdv_req_rx"]
                c["protocol.unexpected"] += ec["unexpected_eager"] + ec["rdv_unexpected"]
                for drv in engine.drivers:
                    c["drivers.polls"] += drv.polls
                    c["drivers.eager_posts"] += drv.eager_posted
                    c["drivers.dma_chunks"] += drv.dma_started
            snap = session.metrics.snapshot()
            c["obs.series"] += len(snap)
            for name, value in snap.items():
                base = name.split("{", 1)[0]
                if base == "engine.poll.idle_us":
                    rail = name.split("rail=", 1)[1].rstrip("}")
                    cost = self._poll_cost(session, rail)
                    if cost > 0:
                        c["drivers.idle_polls"] += round(value / cost)
                elif base == "fault.events":
                    c["faults.events"] += value
                elif base == "fault.retries":
                    c["faults.retries"] += value
        self.sessions.clear()

    def _poll_cost(self, session, rail: str) -> float:
        cost = self._rail_poll_cost.get(rail)
        if cost is None:
            cost = next(r.poll_cost_us for r in session.spec.rails if r.name == rail)
            self._rail_poll_cost[rail] = cost
        return cost


def _all_subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        for sub in c.__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def install(rec: Recorder) -> None:
    """Wrap the layer entry points; must run before any session is built."""
    import repro.core.strategies.adaptive  # noqa: F401 - register subclasses
    import repro.core.strategies.checker  # noqa: F401
    import repro.core.strategies.registry  # noqa: F401
    from repro.core import sampling
    from repro.core.scheduler import NodeEngine
    from repro.core.session import Session
    from repro.core.strategies.base import Strategy
    from repro.sim.flows import FlowNetwork
    from repro.sim.process import Process

    counts = rec.counts

    # -- core.session: construction, lazy engine builds -------------------
    orig_init = Session.__init__
    session_span = rec.span("session.build", orig_init)

    def session_init(self, *args, **kwargs):
        session_span(self, *args, **kwargs)
        rec.sessions.append(self)
        counts["session.built"] += 1

    Session.__init__ = session_init
    NodeEngine.__init__ = rec.span("engine.build", NodeEngine.__init__)

    # -- core.sampling: replace the function wherever it was imported -----
    orig_sample = sampling.sample_rails
    wrapped_sample = rec.span("sampling", orig_sample)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and getattr(
            mod, "sample_rails", None
        ) is orig_sample:
            mod.sample_rails = wrapped_sample

    # -- core.strategies: the strategy interface of every strategy class --
    def on_commit(pw, outer):
        if outer:
            counts["strategies.calls"] += 1
            if pw is not None:
                counts["strategies.commits"] += 1
                counts["strategies.entries"] += len(pw.entries)

    for cls in [Strategy] + _all_subclasses(Strategy):
        for attr in ("pack", "pack_ctrl", "observe", "try_and_commit"):
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            after = on_commit if attr == "try_and_commit" else None
            setattr(cls, attr, rec.span("strategy", fn, after))

    # -- sim.flows: allocator entry points; completion callbacks run in
    # -- their own (layer-less) spans so the allocator is not charged them
    def callback_span(fn):
        return rec.span("flows.callback", fn) if fn is not None else None

    orig_start = FlowNetwork.start_flow
    start_span = rec.span("flows", orig_start)

    def start_flow(self, path, size, on_complete=None, extra_latency=0.0,
                   tag=None, on_drain=None):
        counts["flows.started"] += 1
        return start_span(
            self, path, size, callback_span(on_complete), extra_latency, tag,
            callback_span(on_drain),
        )

    FlowNetwork.start_flow = start_flow
    for cls in [FlowNetwork] + _all_subclasses(FlowNetwork):
        for attr in ("cancel_flow", "refresh", "_on_drain", "_finish"):
            fn = cls.__dict__.get(attr)
            if fn is not None:
                setattr(cls, attr, rec.span("flows", fn))

    # -- sim.process: count process creation --------------------------------
    orig_proc_init = Process.__init__

    def proc_init(self, *args, **kwargs):
        counts["process.spawned"] += 1
        orig_proc_init(self, *args, **kwargs)

    Process.__init__ = proc_init
