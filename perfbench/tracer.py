"""Spans around the public functions of k3lat's modules, installed from outside.

k3lat binds names with ``from .x import f``, so wrapping ``f`` where it is
defined is not enough: the tracer rebinds every attribute of every loaded
``k3lat.*`` module that holds ``f``.  Only public names are wrapped.  A
span records the query id, its own id, its parent's id, the function
name, start and end, and its self time (duration minus the time covered
by its child spans).  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("intmat", "lattices", "discforms", "genus", "groups", "pipeline", "cli")

# Result summaries kept on the span, for counts measured where work happens.
_SUMMARIES = {
    "discforms.are_isomorphic": bool,
    "discforms.isotropic_subgroups": len,
    "genus.genus_class_count": lambda result: result[0],
}


def _summary(summarize, result):
    if summarize is None:
        return None
    try:
        return summarize(result)
    except (TypeError, IndexError, KeyError):
        return None


class Tracer:
    def __init__(self):
        self.spans = []  # (qid, sid, parent, name, start, end, self_s, summary)
        self.qid = None
        self.wrapped = set()
        self._stack = []  # [sid, child seconds] per open span
        self._next = 0
        self._undo = []

    def install(self):
        """Wrap every public function of the layer modules, and
        FiniteGroup.__init__, in every k3lat module that binds them."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"k3lat.{layer}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "k3lat" or modname.startswith("k3lat.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        groups = sys.modules["k3lat.groups"]
        cls = getattr(groups, "FiniteGroup", None)
        if cls is not None:
            init = cls.__dict__["__init__"]
            cls.__init__ = self._wrap("groups.FiniteGroup.init", init)
            self._undo.append((cls, "__init__", init))

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def _wrap(self, name, fn):
        self.wrapped.add(name)
        summarize = _SUMMARIES.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append((self.qid, sid, parent, name, start, end,
                                   end - start - frame[1],
                                   _summary(summarize, result) if done else None))

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"wrapped": sorted(self.wrapped),
                       "fields": ["qid", "sid", "parent", "name", "start", "end",
                                  "self_s", "summary"],
                       "spans": self.spans}, fh)


def read_spans(path):
    """(spans, wrapped names) from a file that ``Tracer.write`` made."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [tuple(s) for s in data["spans"]], set(data["wrapped"])


# -- per-layer metrics ---------------------------------------------------------

PER_QUERY = "count/query"
SECONDS_PER_QUERY = "s/query"

# metric prefix -> (span names folded into it, statistics reported)
_FUNCTIONS = {
    "discforms.are_isomorphic": ((), ("calls", "self_s")),
    "discforms.disc_form": ((), ("calls", "self_s")),
    "discforms.p_primary_parts": ((), ("calls", "self_s")),
    "discforms.isotropic_subgroups": ((), ("calls", "self_s")),
    "discforms.overlattice_disc": ((), ("calls", "self_s")),
    "genus.genus_class_count": ((), ("self_s",)),
    "genus.is_isometric": ((), ("calls", "self_s")),
    "genus.short_vectors": ((), ("calls", "self_s")),
    "intmat.smith_normal_form": ((), ("calls", "self_s")),
    "intmat.invert_unimodular": ((), ("calls", "self_s")),
    "intmat.solve_exact": ((), ("self_s",)),
    "intmat.kernel_basis": ((), ("self_s",)),
    "intmat.column_space_basis": ((), ("self_s",)),
    "intmat.invariant_factors": (("intmat.invariant_factors_of_rows",), ("calls", "self_s")),
    "intmat.det_exact": ((), ("calls", "self_s")),
    "groups.FiniteGroup.init": ((), ("self_s",)),
    "groups.h3_bar_resolution": ((), ("self_s",)),
    "lattices.config_lattice": ((), ("self_s",)),
    "lattices.disc_group": ((), ("calls", "self_s")),
    "pipeline.records_from_json": ((), ("self_s",)),
    "pipeline.discriminant_chain": ((), ("calls", "self_s")),
    "pipeline.derive_fixed_point_profile": ((), ("self_s",)),
}

# metric -> (unit, span names it needs)
_DERIVED = {
    "discforms.are_isomorphic.true": (PER_QUERY, ("discforms.are_isomorphic",)),
    "discforms.subgroups_found": (PER_QUERY, ("discforms.isotropic_subgroups",)),
    "genus.candidates": (PER_QUERY, ("discforms.are_isomorphic", "genus.genus_class_count")),
    "genus.form_survivors": (PER_QUERY, ("discforms.are_isomorphic", "genus.genus_class_count")),
    "genus.classes": (PER_QUERY, ("genus.genus_class_count",)),
    "genus.filter_pass_ratio": ("ratio", ("discforms.are_isomorphic", "genus.genus_class_count")),
    "cli.main.self_s": (SECONDS_PER_QUERY, ("cli.main",)),
}

# Measured by the runner, not from spans.
RUNNER_METRICS = {
    "cli.import.k3lat_s": "s",
    "cli.import.numpy_s": "s",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for prefix, (_, stats) in _FUNCTIONS.items():
        for stat in stats:
            units[f"{prefix}.{stat}"] = PER_QUERY if stat == "calls" else SECONDS_PER_QUERY
    units.update({name: unit for name, (unit, _) in _DERIVED.items()})
    units.update(RUNNER_METRICS)
    return units


def filter_counts(spans) -> dict:
    """qid -> [candidates, survivors]: are_isomorphic calls made inside
    genus_class_count, and how many of them returned true."""
    by_id = {(s[0], s[1]): s for s in spans}
    counts = {}
    for s in spans:
        if s[3] != "discforms.are_isomorphic":
            continue
        parent = s[2]
        while parent is not None and by_id[s[0], parent][3] != "genus.genus_class_count":
            parent = by_id[s[0], parent][2]
        if parent is not None:
            c = counts.setdefault(s[0], [0, 0])
            c[0] += 1
            c[1] += bool(s[7])
    return counts


def aggregate(spans, wrapped, queries: int):
    """(metrics, absent): per-query means of the span statistics; absent
    lists metrics whose functions no longer exist in the program."""
    calls, self_s, summed = {}, {}, {}
    layer_self = {}
    for s in spans:
        name = s[3]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s[6]
        if s[7] is not None:
            summed[name] = summed.get(name, 0) + s[7]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s[6]
    metrics, absent = {}, []
    for prefix, (extra, stats) in _FUNCTIONS.items():
        names = (prefix,) + extra
        if not any(n in wrapped for n in names):
            absent.append(prefix)
        for stat in stats:
            table = calls if stat == "calls" else self_s
            metrics[f"{prefix}.{stat}"] = sum(table.get(n, 0) for n in names) / queries
    candidates = survivors = 0
    for c, s in filter_counts(spans).values():
        candidates += c
        survivors += s
    derived = {
        "discforms.are_isomorphic.true": summed.get("discforms.are_isomorphic", 0) / queries,
        "discforms.subgroups_found": summed.get("discforms.isotropic_subgroups", 0) / queries,
        "genus.candidates": candidates / queries,
        "genus.form_survivors": survivors / queries,
        "genus.classes": summed.get("genus.genus_class_count", 0) / queries,
        "genus.filter_pass_ratio": survivors / candidates if candidates else 0.0,
        "cli.main.self_s": layer_self.get("cli", 0.0) / queries,
    }
    for name, (_, needs) in _DERIVED.items():
        if not all(n in wrapped for n in needs):
            absent.append(name)
    metrics.update(derived)
    return metrics, absent
