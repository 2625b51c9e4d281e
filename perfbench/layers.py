"""Per-layer tracing of mkt from outside the program.

The tracer replaces the public entry points of each mkt module (the layer
boundaries below) with timing wrappers, runs the workload, and puts every
original back. A name bound with `from .x import f` is a separate global in
each importing module, so every module global that holds a wrapped function
is replaced; that also catches the recursive `transfer`, which calls itself
through its own module's global name.

Time is attributed continuously: between two boundary events the elapsed
time goes to the layer of the innermost open span, which is that layer's
self time. A layer's busy time is the time during which at least one of its
spans is open. Spans at the coarse boundaries are kept in memory with their
parent and item number; `fields` and `zkernel` boundaries, which run
hundreds of thousands of times per run, are aggregated counters only.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "jointdet", "commuting", "canonical", "transfer", "valuations",
          "towers", "linalg", "factor", "fields", "numutil", "zkernel")

# (layer, module, attribute path) of every traced boundary
BOUNDARIES = [
    ("cli", "mkt.cli", "main"),
    ("jointdet", "mkt.jointdet", "JointDeterminant.__call__"),
    ("commuting", "mkt.commuting", "composition_series"),
    ("commuting", "mkt.commuting", "reduce_tuple"),
    ("commuting", "mkt.commuting", "class_of_tuple"),
    ("canonical", "mkt.canonical", "canonical_class"),
    ("transfer", "mkt.transfer", "reciprocity_check"),
    ("transfer", "mkt.transfer", "transfer"),
    ("transfer", "mkt.transfer", "transfer_ext"),
    ("transfer", "mkt.transfer", "transfer_tower"),
    ("valuations", "mkt.valuations", "support"),
    ("valuations", "mkt.valuations", "tame_symbol"),
    ("valuations", "mkt.valuations", "finite_place"),
    ("valuations", "mkt.valuations", "unit_part"),
    ("towers", "mkt.towers", "norm_element"),
    ("towers", "mkt.towers", "minimal_polynomial"),
    ("towers", "mkt.towers", "present_as_simple"),
    ("linalg", "mkt.linalg", "Matrix.det"),
    ("linalg", "mkt.linalg", "Matrix.inverse"),
    ("linalg", "mkt.linalg", "Matrix.kernel_basis"),
    ("linalg", "mkt.linalg", "Matrix.solve"),
    ("linalg", "mkt.linalg", "Matrix.rank"),
    ("linalg", "mkt.linalg", "minpoly_matrix"),
    ("linalg", "mkt.linalg", "SpanTracker.add"),
    ("factor", "mkt.factor", "factor"),
    ("factor", "mkt.factor", "is_irreducible"),
    ("fields", "mkt.fields", "Polynomial.__mul__"),
    ("fields", "mkt.fields", "Polynomial.__rmul__"),
    ("fields", "mkt.fields", "Polynomial.__divmod__"),
    ("fields", "mkt.fields", "poly_gcd"),
    ("numutil", "mkt.numutil", "factor_int"),
    ("numutil", "mkt.numutil", "is_prime"),
]
AGGREGATED = ("fields", "zkernel")


def _field_key(fd):
    if fd is None:
        return None
    mod = fd.modulus.coeff_key() if fd.modulus is not None else None
    return (fd.kind, fd.p, mod, _field_key(fd.base))


class Tracer:
    """Counters and spans of one traced run; install() ... uninstall()."""

    def __init__(self):
        self.calls = Counter()         # per layer
        self.busy = Counter()
        self.self_time = Counter()
        self.name_calls = Counter()    # per boundary, e.g. "Matrix.det"
        self.depth_max = Counter()     # deepest nesting per boundary
        self.spans: list[tuple] = []   # (id, parent id, item, name, start, end)
        self.item = -1
        self.factor_repeats = 0
        self._seen_polys: set = set()
        self._depth = Counter()
        self._stack: list[str] = []
        self._span_stack: list[int] = []
        self._open = Counter()
        self._opened_at: dict[str, float] = {}
        self._last = perf_counter()
        self._undo: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, layer: str) -> float:
        now = perf_counter()
        if self._stack:
            self.self_time[self._stack[-1]] += now - self._last
        self._last = now
        self._stack.append(layer)
        self.calls[layer] += 1
        if not self._open[layer]:
            self._opened_at[layer] = now
        self._open[layer] += 1
        return now

    def _exit(self, layer: str) -> float:
        now = perf_counter()
        self.self_time[layer] += now - self._last
        self._last = now
        self._stack.pop()
        self._open[layer] -= 1
        if not self._open[layer]:
            self.busy[layer] += now - self._opened_at[layer]
        return now

    def _seen(self, f) -> None:
        key = (_field_key(f.field), f.coeff_key())
        if key in self._seen_polys:
            self.factor_repeats += 1
        else:
            self._seen_polys.add(key)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        aggregated = layer in AGGREGATED
        repeats = name in ("factor", "is_irreducible")
        depth = self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.name_calls[name] += 1
            if repeats:
                tracer._seen(args[0])
            if aggregated:
                tracer._enter(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(layer)
            sid = len(tracer.spans)
            parent = tracer._span_stack[-1] if tracer._span_stack else None
            tracer.spans.append(None)
            tracer._span_stack.append(sid)
            depth[name] += 1
            tracer.depth_max[name] = max(tracer.depth_max[name], depth[name])
            start = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end = tracer._exit(layer)
                depth[name] -= 1
                tracer._span_stack.pop()
                tracer.spans[sid] = (sid, parent, tracer.item, name, start, end)
        return traced

    # -- install / uninstall ------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _count_constructions(self, cls) -> None:
        orig = cls.__init__
        name = f"{cls.__name__}.__init__"
        counts = self.name_calls

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            counts[name] += 1
            orig(obj, *args, **kwargs)
        self._replace(cls, "__init__", init)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mkt" or n.startswith("mkt.")]
        for layer, modname, path in BOUNDARIES:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            wrapped = self._wrap(layer, path, orig)
            if outer:
                self._replace(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, name, wrapped)
        zk = sys.modules["mkt.zkernel"]
        for name, value in list(vars(zk).items()):
            if name.startswith("zp_") and callable(value):
                self._replace(zk, name, self._wrap("zkernel", name, value))
        self._count_constructions(sys.modules["mkt.fields"].FieldElement)
        self._count_constructions(sys.modules["mkt.commuting"].MatrixTuple)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        n = self.name_calls
        lookups = n["factor"] + n["is_irreducible"]
        out["factor.irreducible_calls"] = (n["is_irreducible"], "count")
        out["factor.repeat_frac"] = (self.factor_repeats / lookups if lookups else 0.0,
                                     "frac")
        out["transfer.depth_max"] = (self.depth_max["transfer"], "count")
        out["commuting.tuple_builds"] = (n["MatrixTuple.__init__"], "count")
        out["linalg.minpoly_calls"] = (n["minpoly_matrix"], "count")
        out["fields.elements"] = (n["FieldElement.__init__"], "count")
        return out
