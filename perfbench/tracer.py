"""Span tracer installed on heegnerlab from outside the package.

`Tracer.install` replaces every module-level name inside heegnerlab that
refers to a public function of a layer with a wrapper that records a span.
This covers the names other modules imported (``cycles.first_primitive_vector``,
``lattices.mat_vec``, ``bounds.embed_k3_lattice``), the names a module uses
for its own functions, and the re-exports in ``heegnerlab/__init__``.  The
methods in METHODS are wrapped on their classes, because other layers call
them in their inner loops (``IntegerLattice.pairing`` from cycles,
``DiscriminantGroup.b`` from weil).

A span is (name, start, end, parent); spans stay in memory in flat arrays and
are written out once, at the end.  A layer's self time is the sum over its
spans of the span's duration minus the time covered by its child spans, and
is accumulated as spans close.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict

LAYERS = (
    "arith",
    "intlinalg",
    "lattices",
    "discriminant",
    "enumeration",
    "weil",
    "cycles",
    "bounds",
    "cli",
)

METHODS = {
    "lattices": {"IntegerLattice": ("pairing",)},
    "discriminant": {
        "DiscriminantGroup": ("q", "b", "lift", "element_of", "q_values", "level"),
    },
}

# lex_stream is a generator: the call returns before any work is done, so it
# is counted per yielded vector instead of being spanned.
GENERATORS = {"enumeration.lex_stream"}

SIEVES = (
    "arith.prime_sieve",
    "arith.omega_sieve",
    "arith.divisor_count_sieve",
    "arith.divisor_sigma_sieve",
    "arith.squarefree_sieve",
)

# Past this many spans the arrays stop growing; self times and counters stay
# exact because they are accumulated as spans close, not from the arrays.
SPAN_CAP = 2_000_000

BENCH = "bench"


def _after_call(tracer: "Tracer", name: str, args, result) -> None:
    """Work counters that need the arguments or the result of a call."""
    add = tracer.counters.update
    if name == "intlinalg.smith_normal_form":
        mat = args[0]
        add({"intlinalg.snf_cells": len(mat) * (len(mat[0]) if len(mat) else 0)})
    elif name == "enumeration.enumerate_by_norm":
        add({"enumeration.vectors_out": len(result)})
    elif name == "enumeration.first_primitive_vector":
        add({"enumeration.first_hits": int(result is not None)})
    elif name == "discriminant.discriminant_group":
        add({"discriminant.order_sum": result.order})
    elif name == "weil.build_weil_rep":
        add({"weil.dim_sum": result.dim, "weil.entries": result.dim * result.dim})
    elif name == "weil.verify_sl2_relations":
        worst = max((c.max_deviation for c in result), default=0.0)
        tracer.max_dev = max(tracer.max_dev, worst)
    elif name == "cycles.moment_matrix":
        add({"cycles.moment_cells": result.size * result.size})
    elif name in ("bounds.sandwich_check",):
        add({"bounds.sieve_len": result.m_hi - result.m_lo + 1})
    elif name == "bounds.divisor_bound_check":
        add({"bounds.sieve_len": result.hi - result.lo + 1})
    elif name in SIEVES:
        add({"arith.sieve_len": int(args[0]) + 1})


class Tracer:
    """Spans and counters for one process."""

    def __init__(self):
        self.active = True
        self.name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_of = array("i")
        self.parent_of = array("i")
        self.dropped = 0
        self.stack: list[list] = []  # [span index, child time]
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.layer_self_s: defaultdict = defaultdict(float)
        self.layer_errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.max_dev = 0.0
        self._last_error: BaseException | None = None
        self._ops: dict[str, object] = {}

    # -- installation -------------------------------------------------------

    def install(self, package) -> int:
        """Wrap the public functions of every layer of `package`; returns the
        number of names replaced."""
        import importlib

        modules = [package] + [importlib.import_module(f"{package.__name__}.{l}") for l in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", layer, obj)
            for cls_name, members in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for member in members:
                    raw = cls.__dict__[member]
                    span = f"{layer}.{cls_name}.{member}"
                    if isinstance(raw, property):
                        setattr(cls, member, property(self.wrap(span, layer, raw.fget)))
                    else:
                        setattr(cls, member, self.wrap(span, layer, raw))
        replaced = 0
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    replaced += 1
        return replaced

    def wrap(self, name: str, layer: str, fn):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)
        nid = self._name_id(name)
        starts, ends, name_of, parent_of = self.starts, self.ends, self.name_of, self.parent_of
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            if idx < SPAN_CAP:
                name_of.append(nid)
                parent_of.append(stack[-1][0] if stack else -1)
                ends.append(0.0)
                starts.append(0.0)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._record_error(layer, exc)
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.incl_s[name] += dur
                tracer.layer_calls[layer] += 1
                tracer.layer_self_s[layer] += dur - frame[1]
            _after_call(tracer, name, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen
            parent = tracer.names[tracer.name_of[tracer.stack[-1][0]]] if tracer.stack and tracer.stack[-1][0] >= 0 else ""
            key = "enumeration.lex_yielded_first" if parent == "enumeration.first_primitive_vector" else None
            return tracer._count_yields(gen, key)

        return counted

    def _count_yields(self, gen, key):
        counters = self.counters
        for item in gen:
            counters["enumeration.lex_yielded"] += 1
            if key:
                counters[key] += 1
            yield item

    def _record_error(self, layer: str, exc: BaseException) -> None:
        """Count an exception once, in the layer of the innermost span it
        leaves; the enclosing spans see the same object as it propagates."""
        if exc is self._last_error:
            return
        self._last_error = exc
        self.layer_errors[layer] += 1

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # -- benchmark-side spans -----------------------------------------------

    def op(self, name: str, fn, *args):
        """Call fn(*args) inside a root span for one benchmark operation.  Its
        layer is not a heegnerlab layer, so it only groups the operation's
        spans."""
        runner = self._ops.get(name)
        if runner is None:
            runner = self._ops[name] = self.wrap(f"{BENCH}.{name}", BENCH, _call)
        return runner(fn, *args)

    def current_span(self) -> int:
        return self.stack[-1][0] if self.stack else -1

    # -- merging and output ---------------------------------------------------

    def summary(self) -> dict:
        """Aggregates for this process, as plain JSON."""
        return {
            "calls": dict(self.calls),
            "incl_s": dict(self.incl_s),
            "layer_calls": dict(self.layer_calls),
            "layer_self_s": dict(self.layer_self_s),
            "layer_errors": dict(self.layer_errors),
            "counters": dict(self.counters),
            "max_dev": self.max_dev,
            "spans_kept": len(self.starts),
            "spans_dropped": self.dropped,
        }

    def merge(self, doc: dict, spans, parent: int) -> None:
        """Fold in the summary and the spans (as `write_spans` wrote them)
        of another process, a traced CLI invocation, hanging its top-level
        spans under `parent`."""
        self.calls.update(doc["calls"])
        for k, v in doc["incl_s"].items():
            self.incl_s[k] += v
        self.layer_calls.update(doc["layer_calls"])
        for k, v in doc["layer_self_s"].items():
            self.layer_self_s[k] += v
        self.layer_errors.update(doc["layer_errors"])
        self.counters.update(doc["counters"])
        self.max_dev = max(self.max_dev, doc["max_dev"])
        self.dropped += doc["spans_dropped"]
        # A parent span always precedes its children, so a kept prefix of
        # the spans is closed under parents.
        base = len(self.starts)
        keep = max(min(len(spans["start"]), SPAN_CAP - base), 0)
        self.dropped += len(spans["start"]) - keep
        ids = [self._name_id(str(n)) for n in spans["names"]]
        self.name_of.extend(ids[n] for n in spans["name"][:keep].tolist())
        self.starts.extend(spans["start"][:keep].tolist())
        self.ends.extend(spans["end"][:keep].tolist())
        self.parent_of.extend(parent if p < 0 else base + p for p in spans["parent"][:keep].tolist())

    def write_spans(self, path) -> None:
        """Write every kept span to an .npz file: `names` is the name table,
        and `name`, `start`, `end`, `parent` are parallel columns (parent -1
        marks a root)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parent_of, dtype=np.int32),
        )


def _call(fn, *args):
    return fn(*args)
