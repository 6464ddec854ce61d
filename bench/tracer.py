"""Span tracer that instruments dynkit from outside its source.

`Instrumentation.install()` replaces every public function of the traced
modules, plus a few hot methods, with a wrapper that records a span
(name, start, end, parent) in a `Tracer`.  The replacement is made in
every ``dynkit.*`` namespace that binds the function, including
module-level dispatch dicts such as ``cli._SUBCOMMANDS``, so a call made
through a name imported with ``from .x import f`` is traced too.  Maps
built by ``make_map``/``polynomial_map`` while installed carry wrapped
forward/inverse/jac/jac_abs_bound callables.  `uninstall()` restores the
originals, so untraced passes run the program exactly as shipped.

Spans live in compact arrays in memory and are written out once, at the
end of a run.  Counters (`Tracer.tally`) and maxima (`Tracer.maxima`) are
kept at the same boundaries.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# dynkit modules whose public functions are traced, by short layer name
LAYERS = ("cli", "chain_graph", "conley", "phase_space", "system",
          "shadowing", "manifolds")

# span name -> hook(tracer, result, args, kwargs) adding counters
_HOOKS = {}


def _hook(name):
    def register(fn):
        _HOOKS[name] = fn
        return fn
    return register


@_hook("cli.write_report")
def _report_bytes(tr, path, args, kwargs):
    tr.tally["cli.report_bytes"] += path.stat().st_size


@_hook("chain_graph.build_graph")
def _graph_size(tr, g, args, kwargs):
    tr.tally["chain_graph.edges"] += g.n_edges
    mb = (g.offsets.nbytes + g.targets.nbytes) / 1e6
    tr.maxima["chain_graph.csr_mb"] = max(tr.maxima.get("chain_graph.csr_mb", 0.0), mb)


@_hook("conley.find_attractor_blocks")
def _blocks(tr, blocks, args, kwargs):
    tr.tally["conley.blocks"] += len(blocks)


@_hook("conley.attractor_from_block")
def _attractor_iterations(tr, result, args, kwargs):
    tr.tally["conley.attractor_iterations"] += result[1]


@_hook("shadowing.shadow_search")
def _search_outcome(tr, result, args, kwargs):
    tr.tally["shadowing.shadowed"] += bool(result.shadowed)
    tr.tally["shadowing.refined"] += result.method == "refined"


@_hook("manifolds.find_periodic_points")
def _periodic_points(tr, points, args, kwargs):
    tr.tally["manifolds.periodic_points"] += len(points)


@_hook("manifolds.grow_manifold")
def _vertices(tr, poly, args, kwargs):
    tr.tally["manifolds.vertices"] += poly.vertices.shape[0]


@_hook("manifolds.homoclinic_points")
def _hits(tr, result, args, kwargs):
    hits = result[0] if isinstance(result, tuple) else result
    tr.tally["manifolds.hits"] += len(hits)


def _eval_points(tr, result, args, kwargs):
    shape = np.shape(args[0])
    tr.tally["system.eval_points"] += int(np.prod(shape[:-1])) if len(shape) > 1 else 1


_HOOKS["system.map.forward"] = _eval_points
_HOOKS["system.map.inverse"] = _eval_points


def _map_name(map_spec, *args, **kwargs):
    return map_spec.name


def _subcommand(name, *args, **kwargs):
    return name


# span name -> label(args...) appended as "name[label]"
_LABELS = {
    "shadowing.shadow_search": _map_name,
    "cli.run_subcommand": _subcommand,
}


class Tracer:
    """In-memory span recorder; parents come from a call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.tally: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._stack = [-1]

    def __len__(self):
        return len(self.starts)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int):
        self.ends[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, fn, name: str):
        """`fn` recording one span and one call count per call."""
        label = _LABELS.get(name)
        hook = _HOOKS.get(name)
        tally = self.tally

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = f"{name}[{label(*args, **kwargs)}]" if label else name
            tally[name] += 1
            i = self.open(full)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        traced.__traced__ = fn
        return traced

    def count(self, fn, name: str):
        """`fn` counting its calls without a span (for very hot accessors)."""
        tally = self.tally

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)

        counted.__traced__ = fn
        return counted

    def arrays(self) -> dict:
        return {"names": np.asarray(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_ids, dtype=np.int32),
                "parent": np.frombuffer(self.parents, dtype=np.int32),
                "start": np.frombuffer(self.starts, dtype=np.float64),
                "end": np.frombuffer(self.ends, dtype=np.float64)}


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

class SpanTable:
    """Read-only view of one tracer's spans with the derived quantities."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(a["names"])
        self.name_id = a["name_id"].astype(np.int64)
        self.parent = a["parent"].astype(np.int64)
        self.dur = a["end"] - a["start"]

    def mask(self, *prefixes: str) -> np.ndarray:
        """Spans whose name is one of `prefixes`, with or without a label."""
        hit = [i for i, n in enumerate(self.names)
               if n.split("[", 1)[0] in prefixes or n in prefixes]
        return np.isin(self.name_id, hit)

    def nearest_ancestor(self, mask: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """For spans `idx`, the nearest proper ancestor inside `mask`, or -1."""
        out = np.full(idx.size, -1, dtype=np.int64)
        cur = self.parent[idx]
        todo = np.nonzero(cur >= 0)[0]
        while todo.size:
            c = cur[todo]
            hit = mask[c]
            out[todo[hit]] = c[hit]
            todo = todo[~hit]
            cur[todo] = self.parent[cur[todo]]
            todo = todo[cur[todo] >= 0]
        return out

    def inclusive_s(self, *prefixes: str) -> float:
        """Time covered by the named spans, counting nested ones once."""
        m = self.mask(*prefixes)
        idx = np.nonzero(m)[0]
        outer = idx[self.nearest_ancestor(m, idx) < 0]
        return float(self.dur[outer].sum())

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the time covered by its children."""
        child = self.parent >= 0
        covered = np.bincount(self.parent[child], weights=self.dur[child],
                              minlength=self.dur.size)
        return self.dur - covered

    def self_s(self, *prefixes: str) -> float:
        return float(self.self_times()[self.mask(*prefixes)].sum())

    def count_under(self, child: tuple, ancestor: tuple) -> np.ndarray:
        """Per `ancestor` span, in span order: the number of `child` spans
        beneath it at any depth."""
        am = self.mask(*ancestor)
        owners = np.nonzero(am)[0]
        cidx = np.nonzero(self.mask(*child))[0]
        owner = self.nearest_ancestor(am, cidx)
        return np.bincount(np.searchsorted(owners, owner[owner >= 0]),
                           minlength=owners.size)


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def public_functions(module) -> dict:
    """Module-level functions defined in `module` whose names are public."""
    return {k: v for k, v in vars(module).items()
            if inspect.isfunction(v) and not k.startswith("_")
            and v.__module__ == module.__name__}


def _dynkit_namespaces():
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dynkit" or name.startswith("dynkit.")):
            yield mod


class Instrumentation:
    """Swaps dynkit callables for traced ones and back."""

    def __init__(self, tracer: Tracer):
        from dynkit import chain_graph, phase_space, svg, system
        self.tracer = tracer
        # original function -> span name
        self.functions = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"dynkit.{layer}")
            for fname, fn in public_functions(mod).items():
                self.functions[fn] = f"{layer}.{fname}"
        self.functions[svg.emit_plot] = "cli.emit_plot"
        # methods get a span each; properties (Grid.nboxes) only a count
        self.methods = [
            (chain_graph.TransitionGraph, "image_boxes"),
            (chain_graph.TransitionGraph, "set_escapes"),
            (phase_space.BoxSet, "dilate"),
            (phase_space.BoxSet, "erode"),
            (phase_space.BoxSet, "boundary"),
            (phase_space.Grid, "nboxes"),
        ]
        self._factories = {system.make_map, system.polynomial_map}
        self._patches: list = []
        self.installed = False

    def _wrapper(self, fn, name):
        if fn in self._factories:
            traced = self.tracer.wrap(fn, name)

            @functools.wraps(fn)
            def factory(*args, **kwargs):
                return self.instrument_map(traced(*args, **kwargs))

            factory.__traced__ = fn
            return factory
        return self.tracer.wrap(fn, name)

    def instrument_map(self, spec):
        fields = {}
        for attr in ("forward", "inverse", "jac", "jac_abs_bound"):
            fn = getattr(spec, attr)
            if fn is not None:
                fields[attr] = self.tracer.wrap(fn, f"system.map.{attr}")
        return dataclasses.replace(spec, **fields)

    def install(self):
        if self.installed:
            return
        wrappers = {fn: self._wrapper(fn, name) for fn, name in self.functions.items()}
        for mod in _dynkit_namespaces():
            ns = vars(mod)
            for key, value in list(ns.items()):
                w = _lookup(wrappers, value)
                if w is not None:
                    self._patches.append((ns, key, value))
                    ns[key] = w
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        w = _lookup(wrappers, dval)
                        if w is not None:
                            self._patches.append((value, dkey, dval))
                            value[dkey] = w
        for cls, attr in self.methods:
            orig = cls.__dict__[attr]
            name = f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{attr}"
            if isinstance(orig, property):
                new = property(self.tracer.count(orig.fget, name))
            else:
                new = self.tracer.wrap(orig, name)
            self._patches.append((cls, attr, orig))
            setattr(cls, attr, new)
        self.installed = True

    def uninstall(self):
        for target, key, orig in reversed(self._patches):
            if isinstance(target, type):
                setattr(target, key, orig)
            else:
                target[key] = orig
        self._patches.clear()
        self.installed = False


def _lookup(wrappers: dict, value):
    try:
        return wrappers.get(value)
    except TypeError:  # unhashable module attribute
        return None
