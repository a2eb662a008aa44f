"""Timing wrappers around the library's layers, and the per-layer
metrics computed from the spans they record.

A layer is one library module.  install() wraps every public function
defined in a layer module, in every salemtori namespace that holds it
(so calls between modules and inside a module are both seen), and the
`RootSystem.refine` method.  Each call becomes a span: name, start, end,
the index of the enclosing span and the instance id.  Spans stay in
memory; write() saves them when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("intpoly", "certroots", "exactlin", "salem", "galois", "torus")

# extra data kept per span, computed from the arguments and the result
_EXTRA = {
    "certroots.isolate_roots": lambda args, out: args[0].coeffs,
    "intpoly.factor_over_z": lambda args, out: args[0].coeffs,
    "certroots.expand_ball_poly": lambda args, out: len(args[0]),
    "certroots.pin_integer_coeffs": lambda args, out: out[0] == "ok",
    "exactlin.char_poly": lambda args, out: args[0].nrows,
}

# sums of self times reported as one metric
GROUPS = {
    "exactlin.lattice": ("exactlin.kernel_basis", "exactlin.saturate", "exactlin.restricted_matrix"),
}

# (metric, unit, better), in the order of the benchmark's table
PER_LAYER = (
    ("certroots.isolate_roots.calls", "count", "lower"),
    ("certroots.isolate_roots.self_s", "s", "lower"),
    ("certroots.isolate_roots.distinct_ratio", "ratio", "higher"),
    ("certroots.RootSystem.refine.calls", "count", "lower"),
    ("certroots.RootSystem.refine.self_s", "s", "lower"),
    ("certroots.certify_value_match.calls", "count", "lower"),
    ("certroots.certify_value_match.self_s", "s", "lower"),
    ("certroots.expand_ball_poly.calls", "count", "lower"),
    ("certroots.expand_ball_poly.self_s", "s", "lower"),
    ("certroots.expand_ball_poly.balls_in", "count", "lower"),
    ("certroots.pin_integer_coeffs.calls", "count", "lower"),
    ("certroots.pin_integer_coeffs.ok_ratio", "ratio", "higher"),
    ("intpoly.factor_over_z.calls", "count", "lower"),
    ("intpoly.factor_over_z.self_s", "s", "lower"),
    ("intpoly.factor_over_z.max_degree", "degree", "lower"),
    ("intpoly.factor_over_z.distinct_ratio", "ratio", "higher"),
    ("intpoly.is_irreducible.calls", "count", "lower"),
    ("intpoly.is_irreducible.self_s", "s", "lower"),
    ("intpoly.is_squarefree.calls", "count", "lower"),
    ("intpoly.is_squarefree.self_s", "s", "lower"),
    ("exactlin.char_poly.calls", "count", "lower"),
    ("exactlin.char_poly.self_s", "s", "lower"),
    ("exactlin.char_poly.max_dim", "rows", "lower"),
    ("exactlin.wedge_power.calls", "count", "lower"),
    ("exactlin.wedge_power.self_s", "s", "lower"),
    ("exactlin.minimal_polynomial.calls", "count", "lower"),
    ("exactlin.minimal_polynomial.self_s", "s", "lower"),
    ("exactlin.lattice.self_s", "s", "lower"),
    ("salem.classify_special.calls", "count", "lower"),
    ("salem.classify_special.calls_per_item", "calls/item", "lower"),
    ("salem.classify_special.self_s", "s", "lower"),
    ("salem.dynamical_degrees.calls", "count", "lower"),
    ("salem.dynamical_degrees.self_s", "s", "lower"),
    ("salem.first_dynamical_degree_salem.calls", "count", "lower"),
    ("salem.first_dynamical_degree_salem.self_s", "s", "lower"),
    ("salem.gross_mcmullen.self_s", "s", "lower"),
    ("salem.is_salem.calls", "count", "lower"),
    ("galois.galois_class.self_s", "s", "lower"),
    ("galois.octet_data.calls", "count", "lower"),
    ("galois.octet_data.self_s", "s", "lower"),
    ("galois.pair_orbit_partition.calls", "count", "lower"),
    ("galois.pair_orbit_partition.self_s", "s", "lower"),
    ("torus.picard_table.self_s", "s", "lower"),
    ("torus.admissible_triples.calls", "count", "lower"),
    ("torus.build_fibrations.calls", "count", "lower"),
    ("torus.build_fibrations.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Span recorder.  Each span is [name, start, end, parent, item, extra]."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._undo = []

    # ---- wrappers ----

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra = _EXTRA.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, out)
            return out

        return traced

    def install(self):
        """Wrap every layer's public functions wherever salemtori holds
        them, and RootSystem.refine."""
        package = sys.modules["salemtori"]
        namespaces = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith("salemtori.")
        ]
        for layer in LAYERS:
            module = sys.modules[f"salemtori.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, traced)
                            self._undo.append((ns, key, fn))
        roots = sys.modules["salemtori.certroots"].RootSystem
        original = roots.refine
        roots.refine = self._wrap("certroots.RootSystem.refine", original)
        self._undo.append((roots, "refine", original))

    def uninstall(self):
        for ns, key, fn in reversed(self._undo):
            setattr(ns, key, fn)
        self._undo.clear()

    # ---- analysis ----

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item, _x in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def misplaced(self, windows: dict) -> list:
        """Problems with where the spans lie, given each instance's
        (start, end) on the same clock: a span must lie inside its
        instance's window and inside its parent, which belongs to the same
        instance, and must start after its previous sibling ended.  When
        none is found, the self times of an instance add up to at most its
        wall time, and the untraced remainder is never negative."""
        problems = []
        last_end = {}  # (item, parent) -> end of the latest sibling
        for i, (name, start, end, parent, item, _x) in enumerate(self.spans):
            where = f"span {i} ({name}, instance {item})"
            if item not in windows:
                problems.append(f"{where} belongs to no timed instance")
                continue
            lo, hi = windows[item]
            if not lo <= start <= end <= hi:
                problems.append(f"{where} lies outside its instance")
            if parent is not None:
                p = self.spans[parent]
                if parent >= i or p[4] != item or not p[1] <= start <= end <= p[2]:
                    problems.append(f"{where} lies outside its parent span {parent}")
            if start < last_end.get((item, parent), lo):
                problems.append(f"{where} overlaps its previous sibling")
            last_end[(item, parent)] = end
        return problems

    def metrics(self, items: int) -> dict:
        selfs = self.self_times()
        calls, self_s, extras = {}, {}, {}
        for span, own in zip(self.spans, selfs):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if span[5] is not None:
                extras.setdefault(name, []).append((span[4], span[5]))
        for group, members in GROUPS.items():
            self_s[group] = sum(self_s.get(m, 0.0) for m in members)

        def distinct_ratio(name):
            seen = extras.get(name, [])
            return len(set(seen)) / len(seen) if seen else 1.0

        def values(name):
            return [x for _item, x in extras.get(name, [])]

        pins = values("certroots.pin_integer_coeffs")
        derived = {
            "certroots.isolate_roots.distinct_ratio": distinct_ratio("certroots.isolate_roots"),
            "certroots.expand_ball_poly.balls_in": sum(values("certroots.expand_ball_poly")),
            "certroots.pin_integer_coeffs.ok_ratio": sum(pins) / len(pins) if pins else 1.0,
            "intpoly.factor_over_z.max_degree": max(
                (len(c) - 1 for c in values("intpoly.factor_over_z")), default=0
            ),
            "intpoly.factor_over_z.distinct_ratio": distinct_ratio("intpoly.factor_over_z"),
            "exactlin.char_poly.max_dim": max(values("exactlin.char_poly"), default=0),
            "salem.classify_special.calls_per_item": calls.get("salem.classify_special", 0) / items,
        }
        out = {}
        for metric, _unit, _better in PER_LAYER:
            if metric in derived:
                out[metric] = derived[metric]
            elif metric.endswith(".calls"):
                out[metric] = calls.get(metric[: -len(".calls")], 0)
            elif metric.endswith(".self_s"):
                out[metric] = self_s.get(metric[: -len(".self_s")], 0.0)
        return out

    def write(self, path):
        """Save the spans as JSON lines, one per span."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(self.spans, selfs)):
                name, start, end, parent, item, _extra = span
                record = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "self": own,
                    "parent": parent,
                    "item": item,
                }
                fh.write(json.dumps(record) + "\n")
