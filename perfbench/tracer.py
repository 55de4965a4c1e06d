"""Spans around the public entry points of every crflow module.

`install` wraps each public function of a crflow module on every binding that
refers to it, so `crflow.cli.integrate` (bound by `from ... import`) is
wrapped as well as `crflow.dynamics.integrate`. A span records its name,
start, end and parent; spans stay in memory until the run ends. A few
private helpers are wrapped too: `dynamics._clamp_weights` only bumps a step
counter on the enclosing span (it runs once per accepted step), and
`cli._sweep_child` becomes a span so that sweep children report their work.

Sweep children inherit the installed wrappers (or install them, under a
spawn start method), clear their buffer when a task starts and return the
task's spans inside the result row; the parent's pool moves them into its own
buffer under the `cli.cmd_sweep` span. Timestamps come from
`time.perf_counter_ns`, a system-wide monotonic clock on Linux, so child and
parent spans share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

LAYERS = ("scenario", "space", "kernel", "rates", "dynamics", "analysis",
          "measure", "simplex", "cli")
RATE_EVALS = ("rates.uptake_values", "rates.mortality_values")
SPANS_KEY = "_perfbench_spans"

_ACTIVE = None          # the tracer this process records into, if any


class Tracer:
    """Span buffer: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.clear()

    def clear(self) -> None:
        """Drop all spans; the name table stays, wrappers hold name ids."""
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.attrs: dict = {}        # span id -> dict from a result hook
        self.steps: dict = {}        # span id -> accepted RK steps inside it
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.start)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def export(self) -> dict:
        return {"names": list(self.names), "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "attrs": self.attrs,
                "steps": self.steps}

    def merge(self, spans: dict) -> None:
        """Append spans exported by a child; its roots hang off the open span."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in spans["names"]]
        root = self.stack[-1]
        self.name.extend(remap[i] for i in spans["name"])
        self.start.extend(spans["start"])
        self.end.extend(spans["end"])
        self.parent.extend(root if p < 0 else p + offset for p in spans["parent"])
        for k, v in spans["attrs"].items():
            self.attrs[k + offset] = v
        for k, v in spans["steps"].items():
            self.steps[k + offset] = v


# Result hooks: (args, kwargs, result) -> attributes kept on the span.
def _integrate_attrs(args, kwargs, result):
    return {"method": args[2].method}


def _picard_attrs(args, kwargs, result):
    return {"iterations": int(sum(result.metadata["iterations"]))}


def _lp_attrs(args, kwargs, result):
    m, n = args[1].shape
    return {"rows": int(m), "cols": int(n)}


def _write_attrs(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _out_attrs(args, kwargs, result):
    return {"out": str(args[0].out)}


def _sweep_attrs(args, kwargs, result):
    return {"jobs": int(args[0].jobs)}


def _child_attrs(args, kwargs, result):
    return {"out": str(args[0][2])}


HOOKS = {
    "dynamics.integrate": _integrate_attrs,
    "dynamics.picard_solve": _picard_attrs,
    "simplex.solve_lp": _lp_attrs,
    "cli.write_trajectory_csv": _write_attrs,
    "cli.write_json": _write_attrs,
    "cli.cmd_simulate": _out_attrs,
    "cli.cmd_sweep": _sweep_attrs,
    "cli._sweep_child": _child_attrs,
}


def _span(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            tracer.attrs[idx] = hook(args, kwargs, result)
        return result

    return wrapper


def _step_counter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        top = tracer.stack[-1]
        tracer.steps[top] = tracer.steps.get(top, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def traced_sweep_child(task):
    """Pool task run in place of `cli._sweep_child`; ships its spans back."""
    tracer = _ACTIVE
    if tracer is None:                       # spawned worker: fresh interpreter
        tracer = Tracer()
        install(tracer)
    tracer.clear()                           # drop spans inherited by fork
    row = dict(sys.modules["crflow.cli"]._sweep_child(task))
    row[SPANS_KEY] = tracer.export()
    return row


class TracedPool(ProcessPoolExecutor):
    """`cli.ProcessPoolExecutor` while tracing: collects children's spans."""

    def map(self, fn, *iterables, **kwargs):
        cli = sys.modules["crflow.cli"]
        if fn is cli._sweep_child:
            fn = traced_sweep_child
        for row in super().map(fn, *iterables, **kwargs):
            spans = row.pop(SPANS_KEY, None) if isinstance(row, dict) else None
            if spans is not None and _ACTIVE is not None:
                _ACTIVE.merge(spans)
            yield row


def install(tracer: Tracer) -> list:
    """Wrap every crflow entry point; returns the undo list for `uninstall`."""
    global _ACTIVE
    modules = {layer: importlib.import_module(f"crflow.{layer}") for layer in LAYERS}
    wrapped = {}                             # original -> wrapper
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                wrapped[obj] = _span(tracer, obj, f"{layer}.{attr}")
    cli, dyn = modules["cli"], modules["dynamics"]
    wrapped[cli._sweep_child] = _span(tracer, cli._sweep_child, "cli._sweep_child")
    wrapped[dyn._clamp_weights] = _step_counter(tracer, dyn._clamp_weights)

    undo = []
    holders = [m for name, m in sys.modules.items()
               if name == "crflow" or name.startswith("crflow.")]
    for holder in holders:
        for attr, obj in list(vars(holder).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                undo.append((holder, attr, obj))
                setattr(holder, attr, wrapped[obj])
    methods = (
        (modules["rates"].VitalRates, "uptake_values", "rates.uptake_values"),
        (modules["rates"].VitalRates, "mortality_values", "rates.mortality_values"),
        (modules["space"].StrategySpace, "__post_init__", "space.StrategySpace"),
    )
    for cls, attr, name in methods:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _span(tracer, original, name))
    undo.append((cli, "ProcessPoolExecutor", cli.ProcessPoolExecutor))
    cli.ProcessPoolExecutor = TracedPool
    _ACTIVE = tracer
    return undo


def uninstall(undo: list) -> None:
    global _ACTIVE
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)
    _ACTIVE = None


# ---------------------------------------------------------------- analysis

def _union_ns(intervals) -> int:
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Trace:
    """Read-only view of one pass's spans with the derived quantities."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        n = len(tracer)
        self.names = [tracer.names[i] for i in tracer.name]
        self.layer = [name.split(".", 1)[0] for name in self.names]
        self.children = [[] for _ in range(n)]
        for i, p in enumerate(tracer.parent):
            if p >= 0:
                self.children[p].append(i)

    def dur(self, i) -> int:
        return self.t.end[i] - self.t.start[i]

    def where(self, *names):
        wanted = set(names)
        return [i for i, name in enumerate(self.names) if name in wanted]

    def self_ns(self, i) -> int:
        """Duration minus the part covered by direct child spans."""
        kids = self.children[i]
        if not kids:
            return self.dur(i)
        return self.dur(i) - _union_ns((self.t.start[k], self.t.end[k]) for k in kids)

    def layer_self_ns(self, i) -> int:
        """Duration minus the part covered by spans of other layers below it."""
        own, cover, todo = self.layer[i], [], list(self.children[i])
        while todo:
            k = todo.pop()
            if self.layer[k] == own:
                todo.extend(self.children[k])
            else:
                cover.append((self.t.start[k], self.t.end[k]))
        return self.dur(i) - _union_ns(cover)

    def outermost(self, idxs):
        """Spans of idxs that have no ancestor in idxs."""
        members = set(idxs)
        keep = []
        for i in idxs:
            p = self.t.parent[i]
            while p >= 0 and p not in members:
                p = self.t.parent[p]
            if p < 0:
                keep.append(i)
        return keep

    def ancestor_attr(self, i, key):
        p = self.t.parent[i]
        while p >= 0:
            value = self.t.attrs.get(p, {}).get(key)
            if value is not None:
                return value
            p = self.t.parent[p]
        return None


def _seconds(ns) -> float:
    return ns / 1e9


def layer_metrics(trace: Trace) -> dict:
    """Per-layer values of one traced pass (units in PER_LAYER_UNITS)."""
    t, m = trace.t, {}

    def total(idxs, fn=None):
        fn = fn or trace.dur
        return _seconds(sum(fn(i) for i in idxs))

    loads = trace.where("scenario.load_config", "scenario.build_scenario",
                        "scenario.load_measure_file")
    m["scenario.load.calls"] = len(loads)
    m["scenario.load.s"] = total(trace.outermost(loads))
    spaces = trace.where("space.build_grid", "space.StrategySpace")
    m["space.build.s"] = total(trace.outermost(spaces))
    rates = [i for i, layer in enumerate(trace.layer) if layer == "rates"]
    m["rates.calls"] = len(rates)
    m["rates.s"] = total(trace.outermost(rates))

    integ = trace.where("dynamics.integrate")
    steps = sum(t.steps.get(i, 0) for i in integ)
    m["dynamics.integrate.calls"] = len(integ)
    m["dynamics.integrate.self_s"] = total(integ, trace.layer_self_ns)
    m["dynamics.steps"] = steps
    m["dynamics.us_per_step"] = (
        sum(trace.dur(i) for i in integ) / 1e3 / steps if steps else 0.0)
    picard = trace.where("dynamics.picard_solve")
    m["dynamics.picard.calls"] = len(picard)
    m["dynamics.picard.s"] = total(picard)
    m["dynamics.picard.iterations"] = sum(t.attrs[i]["iterations"] for i in picard)

    diag = trace.where("analysis.diagnostics")
    m["analysis.diagnostics.calls"] = len(diag)
    m["analysis.diagnostics.self_s"] = total(diag, trace.layer_self_ns)
    m["analysis.mass_balance.s"] = total(trace.where("analysis.mass_balance_residual"))

    flat = trace.where("measure.flat_distance")
    m["measure.flat_distance.calls"] = len(flat)
    m["measure.flat_distance.self_s"] = total(flat, trace.layer_self_ns)
    lps = trace.where("simplex.solve_lp")
    m["simplex.solve_lp.calls"] = len(lps)
    m["simplex.solve_lp.s"] = total(lps)
    rows = [t.attrs[i]["rows"] for i in lps]
    cols = [t.attrs[i]["cols"] for i in lps]
    m["simplex.rows_max"] = max(rows, default=0)
    # computed, not measured: the dense tableau is (m+1) x (n+m+1) float64
    m["simplex.tableau_mb_max"] = max(
        ((r + 1) * (c + r + 1) * 8 / 1e6 for r, c in zip(rows, cols)), default=0.0)

    writes = trace.where("cli.write_trajectory_csv", "cli.write_json")
    m["cli.write.s"] = total(writes)
    m["cli.write.bytes"] = sum(t.attrs[i]["bytes"] for i in writes)
    sweeps = trace.where("cli.cmd_sweep")
    children = trace.where("cli._sweep_child")
    busy = sum(trace.dur(i) for i in children)
    capacity = sum(trace.dur(i) * t.attrs[i]["jobs"] for i in sweeps)
    m["cli.sweep.child_busy_s"] = _seconds(busy)
    m["cli.sweep.parallel_efficiency"] = busy / capacity if capacity else 0.0

    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(
            [i for i, name in enumerate(trace.layer) if name == layer], trace.self_ns)
    return m


def identities(trace: Trace, csv_rows, expected_flat: dict) -> dict:
    """Exact-count self-checks of one traced pass.

    csv_rows(out_dir) returns the data rows written to out_dir/trajectory.csv;
    expected_flat maps a parent span name to the flat_distance calls expected
    under it.
    """
    t = trace.t
    result = {}
    integ = trace.where("dynamics.integrate")
    rk4 = [i for i in integ if t.attrs[i]["method"] == "rk4"]
    rate_under = sum(1 for i in rk4 for k in trace.children[i]
                     if trace.names[k] in RATE_EVALS)
    rk4_steps = sum(t.steps.get(i, 0) for i in rk4)
    result["rk4_rate_calls_eq_8x_steps"] = {
        "lhs": rate_under, "rhs": 8 * rk4_steps, "holds": rate_under == 8 * rk4_steps}

    written = [(i, trace.ancestor_attr(i, "out")) for i in integ]
    written = [(i, out) for i, out in written if out is not None]
    steps = sum(t.steps.get(i, 0) for i, _ in written)
    rows = sum(csv_rows(out) - 1 for _, out in written)
    result["steps_eq_rows_minus_1"] = {
        "lhs": steps, "rhs": rows, "items": len(written), "holds": steps == rows}

    flat = trace.where("measure.flat_distance")
    parents = {}
    for i in flat:
        p = t.parent[i]
        key = trace.names[p] if p >= 0 else "<root>"
        parents[key] = parents.get(key, 0) + 1
    concentration = len(trace.where("analysis.concentration"))
    expected = dict(expected_flat)
    if concentration:
        expected["analysis.concentration"] = concentration
    want = sum(expected.values())
    result["flat_distance_calls_eq_pairs_plus_conc_plus_checks"] = {
        "lhs": len(flat), "rhs": want, "by_parent": parents,
        "holds": len(flat) == want and parents == expected}
    return result
