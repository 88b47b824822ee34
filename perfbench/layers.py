"""Module -> layer map of the simulator, and profile attribution by layer.

Every module under ``src/repro/`` belongs to exactly one layer.  A key
ending in ``.*`` names a whole package (the package itself and every
module below it); any other key names one module.  ``check_map`` walks
the source tree and fails on a module that no key or more than one key
matches, so a new module cannot silently drop out of the shares.

Run ``python3 perfbench/layers.py`` from the repository root to check
the map by hand.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

#: layer -> module keys.  The order of layers is the order of report rows.
LAYER_MAP: dict[str, tuple[str, ...]] = {
    "sim.engine": (
        "repro.sim",
        "repro.sim.engine",
        "repro.sim.calendar_queue",
        "repro.sim.native",
        "repro.sim.native_build",
        "repro.sim.backend",
    ),
    "sim.flows": ("repro.sim.flows", "repro.sim.flows_vec"),
    "sim.process": ("repro.sim.process", "repro.sim.resources"),
    "core.session": (
        "repro.core",
        "repro.core.session",
        "repro.core.sampling",
        "repro.hardware",
        "repro.hardware.platform",
        "repro.hardware.spec",
        "repro.hardware.presets",
    ),
    "core.scheduler": ("repro.core.scheduler",),
    "core.strategies": ("repro.core.strategies.*",),
    "core.protocol": (
        "repro.core.rendezvous",
        "repro.core.matching",
        "repro.core.reassembly",
        "repro.core.packet",
        "repro.core.gate",
        "repro.core.request",
    ),
    # topology.py both builds plans and routes every transfer; routing is
    # the per-message cost, so the module sits with the drivers.
    "drivers": (
        "repro.drivers.*",
        "repro.hardware.nic",
        "repro.hardware.wire",
        "repro.hardware.host",
        "repro.hardware.topology",
    ),
    "faults": ("repro.faults.*",),
    "mpi": ("repro.mpi.*", "repro.api.*"),
    "obs": ("repro.obs.*", "repro.trace.*"),
    # CLI, figure/bench runners and helpers: the program's own harness.
    "harness": (
        "repro",
        "repro.__main__",
        "repro.cli",
        "repro.bench.*",
        "repro.util.*",
    ),
}

#: profile rows outside the program: the benchmark's own code, and code
#: no program frame called (interpreter start-up, stdlib at top level).
BENCHMARK = "benchmark"
OTHER = "other"


def _matches(key: str, module: str) -> bool:
    if key.endswith(".*"):
        pkg = key[:-2]
        return module == pkg or module.startswith(pkg + ".")
    return module == key


def layers_of(module: str) -> list[str]:
    """Every layer whose keys match ``module`` (exactly one when mapped)."""
    return [
        layer
        for layer, keys in LAYER_MAP.items()
        if any(_matches(k, module) for k in keys)
    ]


def source_modules(src_dir: str) -> list[str]:
    """Dotted names of every ``.py`` module under ``src_dir/repro``."""
    out = []
    root = os.path.join(src_dir, "repro")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                out.append(module_of_path(os.path.join(dirpath, fn), src_dir))
    return out


def module_of_path(path: str, src_dir: str) -> str:
    rel = os.path.relpath(path, src_dir)
    parts = rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def check_map(src_dir: str) -> list[str]:
    """Problems with the map: modules in no layer or in several."""
    problems = []
    for mod in source_modules(src_dir):
        found = layers_of(mod)
        if not found:
            problems.append(f"module {mod} belongs to no layer")
        elif len(found) > 1:
            problems.append(f"module {mod} belongs to several layers: {found}")
    return problems


class Attributor:
    """Turns a ``pstats.Stats`` table into self time per layer.

    A program function's self time goes to its module's layer.  A frame
    outside the program (a builtin, the stdlib, numpy) is charged to its
    callers, split by the time each caller edge accounts for, so that a
    ``list.append`` inside the pump counts as pump time.  Builtins of the
    native event core count as ``sim.engine`` whoever calls them.
    """

    def __init__(self, stats: dict, src_dir: str, bench_dir: str):
        self.stats = stats
        self.src_dir = os.path.realpath(src_dir) + os.sep
        self.bench_dir = os.path.realpath(bench_dir) + os.sep
        self._memo: dict = {}

    def _direct(self, func) -> str | None:
        filename, _line, name = func
        if filename == "~":
            return "sim.engine" if "_nativecore" in name else None
        path = os.path.realpath(filename)
        if path.startswith(self.src_dir):
            found = layers_of(module_of_path(path, self.src_dir[:-1]))
            return found[0] if len(found) == 1 else OTHER
        if path.startswith(self.bench_dir):
            return BENCHMARK
        return None

    def _mix(self, func, depth: int = 0) -> dict[str, float]:
        """Layer weights of ``func``'s self time (they sum to 1)."""
        if func in self._memo:
            return self._memo[func]
        direct = self._direct(func)
        if direct is not None:
            mix = {direct: 1.0}
        elif depth > 40:
            mix = {OTHER: 1.0}
        else:
            self._memo[func] = {OTHER: 1.0}  # cycle guard
            callers = self.stats[func][4]
            weights = {c: edge[2] for c, edge in callers.items()}
            total = sum(weights.values())
            if not callers:
                mix = {OTHER: 1.0}
            else:
                mix = defaultdict(float)
                for caller, w in weights.items():
                    share = w / total if total > 0 else 1.0 / len(weights)
                    for layer, v in self._mix(caller, depth + 1).items():
                        mix[layer] += share * v
                mix = dict(mix)
        self._memo[func] = mix
        return mix

    def self_time(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for func, row in self.stats.items():
            tt = row[2]
            if tt <= 0:
                continue
            for layer, w in self._mix(func).items():
                out[layer] += tt * w
        return dict(out)


def shares_from_profile(profile, src_dir: str, bench_dir: str) -> dict[str, float]:
    """Self-time share of every layer, in % of all profiled time."""
    import pstats

    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    times = Attributor(stats, src_dir, bench_dir).self_time()
    total = sum(times.values())
    names = list(LAYER_MAP) + [BENCHMARK, OTHER]
    return {n: (100.0 * times.get(n, 0.0) / total if total else 0.0) for n in names}


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("layers.py: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    problems = check_map(src)
    for p in problems:
        print(p)
    if not problems:
        print(f"layer map ok: {len(source_modules(src))} modules, {len(LAYER_MAP)} layers")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
