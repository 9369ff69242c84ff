"""Layer spans taken from outside the library.

`Tracer.install()` wraps the public functions and methods of every `plde`
module (each module is one layer) and rebinds every namespace in the
package that holds one of them, including the names that `bounds`,
`verify`, `cli` and `plde/__init__` import from other modules.  Nothing in
`src/` is edited.

A span is opened when a call crosses from one layer into another; a call
that stays inside the layer of the innermost open span is counted but not
spanned (except for the few functions whose inclusive time is reported),
so per-layer self times are exact while the span count stays small.
`__eq__` and `__hash__` are not wrapped: dictionaries call them
implicitly, and their counts would depend on PYTHONHASHSEED.  Each span
carries the request id set by the benchmark, the equation's index.  Spans stay in memory until
`write()` at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("polyring", "factored", "lattice", "spread", "geometry", "transform",
          "equation", "bounds", "verify", "cli")

# dunder methods that are part of a layer's interface
_DUNDERS = {"__init__", "__post_init__", "__add__", "__radd__", "__sub__", "__rsub__",
            "__mul__", "__rmul__", "__neg__", "__pow__", "__truediv__"}

# functions whose arguments and results feed counters; read after the run
_OBSERVED = {"geometry.lp_feasible", "geometry.corner_points", "geometry.witness_for_pair",
             "transform.frame_for", "bounds.strip_rewrite", "bounds.dispersion_bound",
             "bounds.combined_bound"}

# spanned even when called from their own layer, for inclusive times
_ALWAYS_SPANNED = {"verify.check_solution", "equation.load_equation", "equation.PLDE.from_json"}

# the layer self times must add up to the combined_bound spans within this share
SELF_TIME_TOLERANCE = 0.001

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("geometry.lp_calls", "count", "lower",
     "bound_p50_ms, equations_per_s on geometry; less on census"),
    ("geometry.lp_rows", "count", "lower",
     "bound_p50_ms, equations_per_s on geometry; less on census"),
    ("geometry.lp_feasible_ratio", "ratio", "higher", "bound_p50_ms on geometry"),
    ("geometry.lp_distinct_ratio", "ratio", "higher", "bound_p50_ms on geometry"),
    ("geometry.corner_calls", "count", "lower", "bound_p50_ms on geometry and census"),
    ("geometry.corner_distinct_ratio", "ratio", "higher", "bound_p50_ms on geometry and census"),
    ("geometry.witness_calls", "count", "lower", "bound_p50_ms on geometry"),
    ("geometry.witness_hit_ratio", "ratio", "higher", "bound_p50_ms on geometry"),
    ("geometry.self_s", "s", "lower",
     "bound_p50_ms, equations_per_s on geometry; flat on dispersion"),
    ("lattice.calls", "count", "lower", "bound_p50_ms on geometry and census"),
    ("lattice.self_s", "s", "lower", "bound_p50_ms on geometry and census"),
    ("transform.frame_calls", "count", "lower", "bound_p50_ms on census"),
    ("transform.frame_distinct_ratio", "ratio", "higher", "bound_p50_ms on census"),
    ("transform.self_s", "s", "lower", "bound_p50_ms on census"),
    ("bounds.strip_calls", "count", "lower", "bound_p50_ms, equations_per_s on dispersion"),
    ("bounds.strip_distinct_ratio", "ratio", "higher", "bound_p50_ms on dispersion"),
    ("bounds.strip_substitutions", "count", "lower", "bound_p50_ms on dispersion"),
    ("bounds.strip_live_terms", "count", "lower", "bound_p50_ms on dispersion"),
    ("bounds.strip_D_degree", "degree", "lower", "bound_p50_ms on dispersion"),
    ("bounds.dispersion_s_max", "shift", "lower", "bound_p50_ms on dispersion"),
    ("bounds.d_degree", "degree", "lower", "report size; flat unless the bound changes"),
    ("bounds.self_s", "s", "lower", "bound_p50_ms, equations_per_s on dispersion"),
    ("factored.calls", "count", "lower", "bound_p50_ms on dispersion and census"),
    ("factored.self_s", "s", "lower", "bound_p50_ms, equations_per_s on dispersion"),
    ("polyring.divide_exact_calls", "count", "lower", "bound_p50_ms on dispersion"),
    ("polyring.self_s", "s", "lower", "bound_p50_ms on dispersion; check_p50_ms on census"),
    ("verify.check_solution_s", "s", "lower", "check_p50_ms on census"),
    ("verify.self_s", "s", "lower", "check_p50_ms on census"),
    ("polyring.gcd_calls", "count", "lower", "check_p50_ms on census"),
    ("spread.shift_equiv_calls", "count", "lower", "flat everywhere (under 2 %)"),
    ("spread.invariance_calls", "count", "lower", "flat everywhere (under 2 %)"),
    ("spread.invariance_hit_ratio", "ratio", "higher", "flat everywhere (under 2 %)"),
    ("spread.self_s", "s", "lower", "flat everywhere (under 2 %)"),
    ("equation.parse_s", "s", "lower", "setup_s and cli_p50_ms on cli"),
    ("cli.main_s", "s", "lower", "cli_p50_ms on cli"),
    ("trace_overhead", "ratio", "lower", "none: traced wall time over untraced wall time"),
)


class Tracer:
    def __init__(self):
        self.names = []              # name id -> "layer.qualname"
        self.layer_of = []           # name id -> layer index
        self.counts = []             # name id -> calls
        self.spans = []              # (req, sid, parent, root, layer, name, t0, t1, self)
        self.observed = defaultdict(list)   # "layer.qualname" -> [(args, kwargs, result)]
        self.req = -1
        # open frames: [layer, sid, t0, child_time, name, root]; the base frame is the benchmark
        self._stack = [[-1, -1, 0.0, 0.0, -1, -1]]
        self._next_sid = 0
        self._patches = []
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------

    def _wrap(self, fn, layer, qualname):
        name_id = len(self.names)
        full = "%s.%s" % (LAYERS[layer], qualname)
        self.names.append(full)
        self.layer_of.append(layer)
        self.counts.append(0)
        counts = self.counts
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        observed = self.observed[full] if full in _OBSERVED else None
        elide = full not in _ALWAYS_SPANNED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name_id] += 1
            top = stack[-1]
            if elide and top[0] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = tracer._next_sid
                tracer._next_sid = sid + 1
                root = top[5] if top[5] >= 0 else sid
                frame = [layer, sid, perf(), 0.0, name_id, root]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    dur = t1 - frame[2]
                    stack[-1][3] += dur
                    spans.append((tracer.req, sid, top[1], root, layer, name_id,
                                  frame[2], t1, dur - frame[3]))
            if observed is not None:
                observed.append((args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Wrap every layer's public callables and rebind every namespace holding them."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "plde" or name.startswith("plde.")}
        originals = {}
        for layer, short in enumerate(LAYERS):
            mod = modules["plde." + short]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    if obj.__module__ == mod.__name__:
                        self._wrap_class(obj, layer)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(obj, layer, name))
        for mod in modules.values():
            for name, val in list(vars(mod).items()):
                entry = originals.get(id(val))
                if entry is not None and entry[0] is val:
                    setattr(mod, name, entry[1])
                    self._patches.append((mod, name, val))
        stale = ["%s.%s" % (mod.__name__, name)
                 for mod in modules.values() for name, val in vars(mod).items()
                 if id(val) in originals and originals[id(val)][0] is val]
        if stale:
            self.uninstall()
            raise RuntimeError("unwrapped layer functions remain: %s" % ", ".join(stale))
        return len(originals)

    def _wrap_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            qual = "%s.%s" % (cls.__name__, attr)
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, layer, qual))
            elif inspect.isfunction(member):
                wrapped = self._wrap(member, layer, qual)
            else:
                continue
            setattr(cls, attr, wrapped)
            self._patches.append((cls, attr, member))

    def uninstall(self):
        for target, name, val in reversed(self._patches):
            setattr(target, name, val)
        self._patches = []

    # ------------------------------------------------------------------

    def layer_totals(self):
        calls = [0] * len(LAYERS)
        for name_id, n in enumerate(self.counts):
            calls[self.layer_of[name_id]] += n
        self_s = [0.0] * len(LAYERS)
        for span in self.spans:
            self_s[span[4]] += span[8]
        return calls, self_s

    def count(self, full):
        return sum(n for name_id, n in enumerate(self.counts) if self.names[name_id] == full)

    def inclusive_s(self, fulls):
        """Total duration of the outermost spans of the named functions."""
        ids = {i for i, n in enumerate(self.names) if n in fulls}
        by_sid = {span[1]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            if span[5] not in ids:
                continue
            parent = by_sid.get(span[2])
            while parent is not None and parent[5] not in ids:
                parent = by_sid.get(parent[2])
            if parent is None:
                total += span[7] - span[6]
        return total

    def self_time_check(self, root_name):
        """(sum of self times under root_name roots, sum of those roots' durations)."""
        roots = {span[1]: span[7] - span[6] for span in self.spans
                 if span[2] == -1 and self.names[span[5]] == root_name}
        covered = sum(span[8] for span in self.spans if span[3] in roots)
        return covered, sum(roots.values())

    def write(self, path):
        """All spans as JSON lines.

        Fields: request, span, parent, root, layer, function, start, end, self time.
        """
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for req, sid, parent, root, layer, name_id, t0, t1, self_t in self.spans:
                fh.write(json.dumps([req, sid, parent, root, LAYERS[layer], self.names[name_id],
                                     round(t0, 7), round(t1, 7), round(self_t, 7)]) + "\n")


def _ratio(a, b):
    return a / b if b else 0.0


def _eq_key(eq):
    return (eq.variables, tuple((s, eq.terms[s]) for s in eq.support), eq.rhs)


def per_layer_metrics(tracer: Tracer, overhead: float):
    """Every PER_LAYER metric from the spans, counts and observed calls of one traced run."""
    calls, self_s = tracer.layer_totals()
    idx = {name: i for i, name in enumerate(LAYERS)}
    obs = tracer.observed
    lp = obs["geometry.lp_feasible"]
    lp_keys = {(a[1] if len(a) > 1 else kw["nvars"],
                tuple((tuple(c), rel, rhs) for c, rel, rhs in a[0])) for a, kw, _ in lp}
    corners = obs["geometry.corner_points"]
    corner_keys = {tuple(sorted(tuple(p) for p in a[0])) for a, _, _ in corners}
    witness = obs["geometry.witness_for_pair"]
    frames = obs["transform.frame_for"]
    frame_keys = {(_eq_key(a[0]), a[1], tuple(a[2])) for a, _, _ in frames}
    strips = obs["bounds.strip_rewrite"]
    strip_keys = {(_eq_key(a[0]), tuple(a[1]), a[2]) for a, _, _ in strips}
    finite_s = [r for _, _, r in obs["bounds.dispersion_bound"]
                if isinstance(r, int) and not isinstance(r, bool)]
    values = {
        "geometry.lp_calls": len(lp),
        "geometry.lp_rows": sum(len(a[0]) for a, _, _ in lp),
        "geometry.lp_feasible_ratio": _ratio(sum(r is not None for _, _, r in lp), len(lp)),
        "geometry.lp_distinct_ratio": _ratio(len(lp_keys), len(lp)),
        "geometry.corner_calls": len(corners),
        "geometry.corner_distinct_ratio": _ratio(len(corner_keys), len(corners)),
        "geometry.witness_calls": len(witness),
        "geometry.witness_hit_ratio": _ratio(sum(r is not None for _, _, r in witness),
                                             len(witness)),
        "lattice.calls": calls[idx["lattice"]],
        "transform.frame_calls": len(frames),
        "transform.frame_distinct_ratio": _ratio(len(frame_keys), len(frames)),
        "bounds.strip_calls": len(strips),
        "bounds.strip_distinct_ratio": _ratio(len(strip_keys), len(strips)),
        "bounds.strip_substitutions": sum(len(r.Rminus) - 1 for _, _, r in strips),
        "bounds.strip_live_terms": sum(len(r.Rplus) for _, _, r in strips),
        "bounds.strip_D_degree": sum(r.D_actual.total_degree() for _, _, r in strips),
        "bounds.dispersion_s_max": max(finite_s, default=0),
        "bounds.d_degree": sum(r.d.total_degree() for _, _, r in obs["bounds.combined_bound"]),
        "factored.calls": calls[idx["factored"]],
        "polyring.divide_exact_calls": tracer.count("polyring.divide_exact"),
        "verify.check_solution_s": tracer.inclusive_s({"verify.check_solution"}),
        "polyring.gcd_calls": tracer.count("polyring.gcd_poly"),
        "spread.shift_equiv_calls": tracer.count("spread.shift_equiv"),
        "spread.invariance_calls": tracer.count("spread.invariance_lattice"),
        "spread.invariance_hit_ratio": _ratio(tracer.cache_hits,
                                              tracer.cache_hits + tracer.cache_misses),
        "equation.parse_s": tracer.inclusive_s({"equation.PLDE.from_json",
                                                "equation.load_equation"}),
        "cli.main_s": self_s[idx["cli"]],
        "trace_overhead": overhead,
    }
    for layer in ("geometry", "lattice", "transform", "bounds", "factored", "polyring",
                  "verify", "spread"):
        values["%s.self_s" % layer] = self_s[idx[layer]]
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
