"""Span recording around the public functions of the tenshop modules.

The benchmark installs these wrappers from its own process wrapper
(child.py); nothing under src/ knows about them.  Each call of a wrapped
function records one span (name, start, end, parent span, raised?) in
memory; at the end of a command the spans are reduced to per-function
aggregates and written out as JSON.

Pool workers forked by a campaign inherit the wrappers.  They start with an
empty span list and rewrite their own aggregate file each time one of their
root spans ends, because a forked worker exits without running Python exit
handlers.
"""

from __future__ import annotations

import functools
import json
import os
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

# Layers in call order; each is a module of the tenshop package.
LAYERS = ("geometry", "model", "formfind", "dynamics", "hopsim", "cli")

# Private functions wrapped as well: the numpy stepping path has no public
# per-step function.
EXTRA_FUNCTIONS = {"dynamics": ("_step_arrays",)}


def self_times(spans) -> list[int]:
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans.

    `spans` is a sequence of (start, end, parent) with parent the index of
    the parent span or -1.  Overlapping children are counted once, and
    children reaching outside the parent interval are clipped to it.
    """
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for idx, (start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def merge(aggregates):
    """Sum aggregates from several processes into one."""
    names = defaultdict(Counter)
    counters = Counter()
    for agg in aggregates:
        for name, fields in agg["names"].items():
            names[name].update(fields)
        counters.update(agg["counters"])
    return {"names": {k: dict(v) for k, v in names.items()},
            "counters": dict(counters)}


def _count_hits(counters, args, kwargs):
    positions, velocities = args[0], args[1]
    counters["dynamics.contact_hits"] += int(
        ((positions[:, 2] < 0.0) & (velocities[:, 2] < 0.0)).sum())


def _count_cg(counters, result):
    counters["formfind.iterations"] += result.iterations
    counters["formfind.energy_evals"] += result.energy_evaluations
    counters["formfind.gradient_evals"] += result.gradient_evaluations


# Counters taken at the call boundary: (before-hook, after-hook).
HOOKS = {
    "dynamics.resolve_contacts": (_count_hits, None),
    "formfind.minimize_cg": (None, _count_cg),
}


class Recorder:
    """In-memory span list with the wrappers that fill it."""

    def __init__(self, worker_dir: Path | None = None):
        self.names: list[str] = []
        self.spans: list = []      # [name id, start ns, end ns, parent, raised]
        self.stack: list[int] = []
        self.counters = Counter()
        self.origin_pid = os.getpid()
        self.worker_dir = worker_dir
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self):
        self.spans, self.stack, self.counters = [], [], Counter()

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        before, after = HOOKS.get(name, (None, None))

        # The lists are read through self on every call: a fork replaces them.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(self.counters, args, kwargs)
            stack = self.stack
            record = [name_id, 0, 0, stack[-1] if stack else -1, False]
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
                if not stack and os.getpid() != self.origin_pid:
                    self._dump_worker()
            if after:
                after(self.counters, result)
            return result

        return wrapper

    def aggregate(self) -> dict:
        """Per-function calls, inclusive, self and layer-outer time (ns).

        A span's time counts as layer-outer when its parent belongs to
        another layer or it has none, so the outer times of a layer's
        functions add up to the time spent in that layer.
        """
        spans = self.spans
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        layer = [n.split(".", 1)[0] for n in self.names]
        names = defaultdict(Counter)
        for span, own in zip(spans, selfs):
            name_id, start, end, parent, raised = span
            fields = names[self.names[name_id]]
            fields["calls"] += 1
            fields["incl_ns"] += end - start
            fields["self_ns"] += own
            if parent < 0 or layer[spans[parent][0]] != layer[name_id]:
                fields["outer_ns"] += end - start
            fields["raised"] += int(raised)
        counters = Counter(self.counters)
        counters["formfind.fallbacks"] += self._fallbacks()
        return {"names": {k: dict(v) for k, v in names.items()},
                "counters": dict(counters)}

    def _fallbacks(self) -> int:
        """find_equilibrium calls that ran more than the direct CG search."""
        try:
            fe = self.names.index("hopsim.find_equilibrium")
            cg = self.names.index("formfind.cg_minimize")
        except ValueError:
            return 0
        searches = Counter()
        for span in self.spans:
            if span[0] != cg:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != fe:
                parent = self.spans[parent][3]
            if parent >= 0:
                searches[parent] += 1
        return sum(1 for n in searches.values() if n > 1)

    def _dump_worker(self):
        if self.worker_dir is not None:
            path = self.worker_dir / f"spans-{os.getpid()}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.aggregate()))
            os.replace(tmp, path)


def install(recorder: Recorder, package) -> None:
    """Wrap the layer functions and rebind every tenshop name bound to them.

    Modules import functions from each other by name, so a wrapper must
    replace the original wherever the package holds a reference to it.
    """
    modules = [m for m in vars(package).values()
               if isinstance(m, types.ModuleType)
               and m.__name__.startswith(package.__name__ + ".")]
    wrapped = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in vars(module).items():
            public = not attr.startswith("_")
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and (public or attr in EXTRA_FUNCTIONS.get(layer, ()))):
                wrapped[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    for module in modules + [package]:
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
