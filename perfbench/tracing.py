"""Spans and counts recorded around the program's layers, from outside it.

``Tracer.install`` replaces the functions and methods listed in ``SPANS``
and ``COUNTERS`` with wrappers.  A module-level function is replaced under
every name that refers to it in any loaded module of the package, because a
name imported into another module (``twisted_m1`` into ``cohomology``) is
looked up there.  A span is a name, a start, an end and the span that was
open when it started; spans are kept in flat arrays in memory and written
out by ``Tracer.write`` at the end of the run.  Hot scalar methods are only
counted: a span around each ``Poly`` multiply would swamp the trace.

A layer's self time is its spans' durations minus the durations of their
direct child spans.  The program runs on one thread, so the children of a
span never overlap and their durations simply add.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute, metric prefix, fields reported as per-layer metrics)
SPANS = [
    ("cli", "_emit", "cli.emit", ("self_s",)),
    ("cohomology", "TruncatedSpace.element_from_key", "cohomology.element_from_key", ("self_s",)),
    ("cohomology", "TruncatedSpace.coords_of", "cohomology.coords_of", ("self_s",)),
    ("cohomology", "TruncatedSpace.basis_keys", "cohomology.basis_keys", ("self_s",)),
    ("cohomology", "TruncatedSpace.element_from_coords", "cohomology.element_from_coords",
     ("self_s",)),
    ("linalg", "Echelon.add", "linalg.echelon_add", ("calls", "self_s")),
    ("linalg", "Echelon.clone", "linalg.echelon_clone", ("calls", "self_s")),
    ("twist", "twisted_m1", "twist.twisted_m1", ("calls", "self_s")),
    ("twist", "twisting_series", "twist.twisting_series", ("calls", "self_s")),
    ("twist", "del_plus_A", "twist.del_plus_A", ("calls",)),
    ("twist", "del_minus_A", "twist.del_minus_A", ("calls",)),
    ("cone", "cone_d", "cone.cone_d", ("calls", "self_s")),
    ("cone", "map_f", "cone.map_f", ("self_s",)),
    ("cone", "map_g", "cone.map_g", ("self_s",)),
    ("cone", "cone_split", "cone.cone_split", ("self_s",)),
    ("lefschetz", "decompose", "lefschetz.decompose", ("calls", "self_s")),
    ("lefschetz", "is_primitive", "lefschetz.is_primitive", ("calls", "self_s")),
    ("lefschetz", "primitive_fiber_coords", "lefschetz.primitive_fiber_coords",
     ("calls", "self_s")),
    ("lefschetz", "pi_p", "lefschetz.pi_p", ("self_s",)),
    ("lefschetz", "L_power", "lefschetz.L_power", ("self_s",)),
    ("ainfinity", "m1", "ainfinity.m1", ("self_s",)),
    ("ainfinity", "m2", "ainfinity.m2", ("self_s",)),
    ("ainfinity", "m3", "ainfinity.m3", ("self_s",)),
    ("ainfinity", "check_stasheff", "ainfinity.check_stasheff", ("calls",)),
    ("connection", "covariant_d", "connection.covariant_d", ("calls", "self_s")),
    ("connection", "analyze_flatness", "connection.analyze_flatness", ("calls",)),
    ("forms", "wedge", "forms.wedge", ("calls", "self_s")),
    ("forms", "exterior_d", "forms.exterior_d", ("calls", "self_s")),
    ("sampling", "rand_prim_element", "sampling.rand_prim_element", ("self_s",)),
    ("sampling", "rand_cone_element", "sampling.rand_cone_element", ("self_s",)),
    ("dsl", "parse_form", "dsl.parse_form", ("calls", "self_s")),
    ("dsl", "print_form", "dsl.print_form", ("calls", "self_s")),
]

# (module, attribute, metric name): calls counted, no span
COUNTERS = [
    ("ainfinity", "PrimElement.__init__", "ainfinity.PrimElement.constructions"),
    ("forms", "Form.__init__", "forms.Form.constructions"),
    ("forms", "VectorForm.__init__", "forms.VectorForm.constructions"),
    ("forms", "MatrixForm.__init__", "forms.MatrixForm.constructions"),
    ("scalars", "Poly.__mul__", "scalars.Poly.mul.calls"),
    ("scalars", "Poly.__add__", "scalars.Poly.add.calls"),
    ("scalars", "Poly.__init__", "scalars.Poly.constructions"),
]

CLI_KINDS = ["cohomology_prim", "cohomology_cone", "twist_square", "ainfty_check",
             "cone_verify"]

# per-layer metrics computed from arguments, results and the untraced rounds
DERIVED = [
    ("cohomology.columns", "count", "lower"),
    ("cohomology.columns_distinct_ratio", "ratio", "higher"),
    ("linalg.echelon_add.independent_ratio", "ratio", "higher"),
    ("linalg.entries_fed", "count", "lower"),
    ("linalg.relation_entries", "count", "lower"),
    ("linalg.relation_coeff_bits_max", "bits", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
] + [(f"cli.{kind}.s", "s", "lower") for kind in CLI_KINDS]


def self_times(span_name, parent, start, end) -> tuple[dict, dict]:
    """Calls and self seconds per span name id, from flat span arrays."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    calls: dict[int, int] = {}
    self_s: dict[int, float] = {}
    for i, nid in enumerate(span_name):
        calls[nid] = calls.get(nid, 0) + 1
        self_s[nid] = self_s.get(nid, 0.0) + (end[i] - start[i] - child[i])
    return calls, self_s


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.op_index = 0
        self.columns = 0
        self._distinct_columns: set = set()
        self.echelon_independent = 0
        self.entries_fed = 0
        self.relation_entries = 0
        self.relation_bits_max = 0

    # ---------- recording ----------

    def _span(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, starts, ends = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, name: str, fn):
        """Run ``fn()`` inside a top-level span; one per operation."""
        self.op_index += 1
        return self._span(name, fn)()

    def _after_element_from_key(self, args, result) -> None:
        space, key = args[0], args[1]
        self.columns += 1
        self._distinct_columns.add((self.op_index, space.kind, space.grading, key))

    def _after_echelon_add(self, args, result) -> None:
        self.entries_fed += len(args[1])
        if result is None:
            self.echelon_independent += 1
            return
        self.relation_entries += len(result)
        for value in result.values():
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > self.relation_bits_max:
                self.relation_bits_max = bits

    # ---------- installing the wrappers ----------

    def install(self, package: str = "primflat") -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == package or name.startswith(package + ".")) and m is not None]
        after = {"TruncatedSpace.element_from_key": self._after_element_from_key,
                 "Echelon.add": self._after_echelon_add}
        for module, attr, prefix, _fields in SPANS:
            self._replace(modules, f"{package}.{module}", attr,
                          lambda fn, p=prefix, a=attr: self._span(p, fn, after.get(a)))
        for module, attr, name in COUNTERS:
            self._replace(modules, f"{package}.{module}", attr,
                          lambda fn, n=name: self._counter(n, fn))

    def _replace(self, modules, module_name: str, attr: str, make) -> None:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # ---------- results ----------

    def layer_metrics(self) -> dict[str, float]:
        calls, self_s = self_times(self.span_name, self.parent, self.start, self.end)
        ids = {name: nid for nid, name in enumerate(self.names)}
        out: dict[str, float] = {}
        for _module, _attr, prefix, fields in SPANS:
            nid = ids[prefix]
            if "calls" in fields:
                out[f"{prefix}.calls"] = calls.get(nid, 0)
            if "self_s" in fields:
                out[f"{prefix}.self_s"] = self_s.get(nid, 0.0)
        out.update(self.counts)
        adds = calls.get(ids["linalg.echelon_add"], 0)
        out["cohomology.columns"] = self.columns
        out["cohomology.columns_distinct_ratio"] = (
            len(self._distinct_columns) / self.columns if self.columns else 0.0)
        out["linalg.echelon_add.independent_ratio"] = (
            self.echelon_independent / adds if adds else 0.0)
        out["linalg.entries_fed"] = self.entries_fed
        out["linalg.relation_entries"] = self.relation_entries
        out["linalg.relation_coeff_bits_max"] = self.relation_bits_max
        return out

    def write(self, prefix: str) -> None:
        """Write the spans: a JSON index and the four arrays, raw, in order."""
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": len(self.start),
                       "arrays": ["span_name:i", "parent:i", "start:d", "end:d"],
                       "counts": self.counts}, handle)
        with open(prefix + ".bin", "wb") as handle:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(handle)


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every metric ``layer_metrics`` returns."""
    out = []
    for _module, _attr, prefix, fields in SPANS:
        for f in fields:
            out.append((f"{prefix}.{f}", "s" if f == "self_s" else "count", "lower"))
    out += [(name, "count", "lower") for _m, _a, name in COUNTERS]
    return out + DERIVED
