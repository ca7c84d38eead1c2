"""Spans around the library's layer boundaries, recorded from outside ``src/``.

While an operation is traced, every public function of the layer modules,
the constructors (``__post_init__``) of their dataclasses, ``market``'s
``linprog`` binding and the ``cli`` command functions are replaced, under
every name the package binds them to, by wrappers that record a span: name,
start, end, parent span and operation id.  Outside a traced operation the
original bindings are restored, so untraced operations run the unmodified
code.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
Each per-layer ``*_s`` metric is a sum of self times, so the metrics of one
operation (``cli.self_s`` included) add up to its traced wall time.  The
``cli.<command>_s`` metrics are the inclusive time of each command function
and overlap the others.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "horizon_deflators"
LAYERS = ("prob_core", "enlargement", "deflators", "market", "jumpdiff", "modelio")
COMMANDS = ("verify", "deflate", "decompose", "simulate")

# Per-value helpers called once per table cell or JSON node: a span each
# would cost more than the work it measures.  Their time stays with the caller.
UNWRAPPED = {"modelio.fmt", "modelio.dumps_canonical", "prob_core.as_values"}

_GROUPS = {
    "prob_core.filtration_s": ("prob_core.Filtration",),
    "prob_core.projection_s": ("prob_core.cond_expect", "prob_core.project",
                               "prob_core.dual_projection"),
    "prob_core.classify_s": ("prob_core.classify",),
    "enlargement.build_survival_s": ("enlargement.build_survival", "enlargement.enlarge"),
    "enlargement.transport_s": ("enlargement.transport", "enlargement.transport_compensated",
                                "enlargement.compensated_default_indicator"),
    "deflators.routes_s": ("deflators.build_additive", "deflators.build_multiplicative",
                           "deflators.build_measure_change", "deflators.validate"),
    "deflators.decompose_s": ("deflators.decompose_martingale",),
    "market.verify_deflator_s": ("market.verify_deflator",),
    "market.verify_lmd_s": ("market.verify_lmd",),
    "market.linprog_s": ("market.linprog",),
    "jumpdiff.simulate_s": ("jumpdiff.simulate",),
    "jumpdiff.mc_test_s": ("jumpdiff.mc_test",),
    "jumpdiff.deflator_s": ("jumpdiff.build_deflator", "jumpdiff.deflator_grid"),
    "modelio.read_s": ("modelio.load_model", "modelio.load_params", "modelio.load_scenario",
                       "modelio.process_from_csv"),
    "modelio.write_s": ("modelio.write_json", "modelio.process_to_csv"),
}
GROUP_OF = {span: metric for metric, spans in _GROUPS.items() for span in spans}

SELF_METRICS = (list(_GROUPS) + [f"{layer}.other_s" for layer in LAYERS] + ["cli.self_s"])
COUNT_METRICS = ["prob_core.filtration_calls", "market.linprog_calls", "market.nodes",
                 "modelio.bytes_read", "modelio.bytes_written"]
COMMAND_METRICS = [f"cli.{c}_s" for c in COMMANDS]


def group_of(span_name: str) -> str:
    """The self-time metric a span counts toward."""
    layer = span_name.split(".", 1)[0]
    if layer == "cli":
        return "cli.self_s"
    return GROUP_OF.get(span_name, f"{layer}.other_s")


def _path_size(args):
    path = args[0] if args else None
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return os.path.getsize(path)
    return 0


def _nodes(args, kwargs):
    """Reachable one-step nodes the deflator oracle visits: blocks of mass > 0."""
    market = kwargs.get("market", args[1] if len(args) > 1 else None)
    filt, w = market.filtration, market.measure.weights
    return sum(int((np.bincount(filt.block_ids[k], weights=w) > 0.0).sum())
               for k in range(filt.n_times - 1))


_COUNTERS = {
    "prob_core.Filtration": lambda a, k: {"prob_core.filtration_calls": 1},
    "market.linprog": lambda a, k: {"market.linprog_calls": 1},
    "market.verify_deflator": lambda a, k: {"market.nodes": _nodes(a, k)},
    **{name: (lambda a, k: {"modelio.bytes_read": _path_size(a)})
       for name in _GROUPS["modelio.read_s"]},
    **{name: (lambda a, k: {"modelio.bytes_written": _path_size(a)})
       for name in _GROUPS["modelio.write_s"]},
}


class Tracer:
    """Records spans for operations called through :meth:`run`."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, op id]
        self.counts = defaultdict(lambda: defaultdict(int))  # op id -> metric -> count
        self._stack = []
        self._op = None
        self._patches = self._plan()

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in LAYERS + ("cli",)}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self._wrap(name, obj)
        cli = mods["cli"]
        for attr in ["main"] + [f"cmd_{c}" for c in COMMANDS]:
            wrappers[getattr(cli, attr)] = self._wrap(f"cli.{attr}", getattr(cli, attr))
        owners = [importlib.import_module(PACKAGE)] + [
            mod for key, mod in sorted(sys.modules.items())
            if key.startswith(PACKAGE + ".")]
        patches = []
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((owner, attr, obj, wrappers[obj]))
        for layer in LAYERS:
            mod = mods[layer]
            for cls_name, cls in vars(mod).items():
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and "__post_init__" in vars(cls)):
                    orig = vars(cls)["__post_init__"]
                    patches.append((cls, "__post_init__", orig,
                                    self._wrap(f"{layer}.{cls_name}", orig)))
        market = mods["market"]
        patches.append((market, "linprog", market.linprog,
                        self._wrap("market.linprog", market.linprog)))
        return patches

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if counter is not None:
                    for metric, n in counter(args, kwargs).items():
                        self.counts[span[4]][metric] += n

        return traced

    def run(self, op_id, fn, *args):
        """Call ``fn(*args)`` with every wrapper installed, as operation ``op_id``."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._op = op_id
        try:
            return fn(*args)
        finally:
            self._op = None
            self._stack.clear()
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)

    def op_metrics(self, op_id) -> dict:
        """Self times, inclusive command times and counts of one operation."""
        out = dict.fromkeys(SELF_METRICS + COMMAND_METRICS, 0.0)
        idx = [i for i, s in enumerate(self.spans) if s[4] == op_id]
        child = defaultdict(float)
        for i in idx:
            name, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += end - start
        for i in idx:
            name, start, end, _, _ = self.spans[i]
            out[group_of(name)] += (end - start) - child[i]
            if name.startswith("cli.cmd_"):
                out[f"cli.{name[len('cli.cmd_'):]}_s"] += end - start
        for metric in COUNT_METRICS:
            out[metric] = self.counts[op_id].get(metric, 0)
        return out

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
