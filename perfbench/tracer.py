"""Span tracing of tamecovers from outside the package.

``Tracer.install`` wraps the public functions of each layer module (plus
``Poly.__mul__``, ``Poly.__divmod__`` and ``RatFunc.make``) in span
recorders, and the hottest helpers (field mul/inv per field kind, the
per-tuple permutation helpers of ``symhurwitz``) in plain counters, since
timing them would cost more than the work.  Every alias of a wrapped
function is rebound -- ``from .poly import poly_gcd`` copies in other
modules, re-exports in ``tamecovers/__init__``, and class attributes such
as ``Poly.__rmul__`` -- and ``install`` fails if any reference to an
unwrapped original is left.

A span is (name, parent span, request id, start, end).  Spans stay in
compact arrays until ``summary`` turns them into per-layer metrics; a
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
import types
from array import array
from collections import Counter

LAYERS = ("cli", "jsonio", "multconst", "addconst", "threepoint", "ramify", "poly",
          "field", "symhurwitz")

# public functions called once per permutation tuple: counted, not timed
SYMHURWITZ_COUNTED = {"compose", "inverse", "identity", "is_single_cycle",
                      "is_transitive", "conjugate", "canonical_cycle",
                      "centralizer_of_canonical"}


class TraceError(RuntimeError):
    pass


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType)


def _function_of(val):
    """The plain function behind a module global or class attribute."""
    fn = val.__func__ if isinstance(val, classmethod) else val
    return fn if _is_function(fn) else None


def _references(mods, pkg_name: str):
    """(owner, attribute, value) for every module global and every
    attribute of a class defined in the package."""
    out = []
    for mod in mods:
        for name, obj in vars(mod).items():
            out.append((mod, name, obj))
            if isinstance(obj, type) and obj.__module__.startswith(pkg_name):
                out.extend((obj, attr, val) for attr, val in vars(obj).items())
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack: list[int] = []
        self.request = -1
        self.counts: Counter = Counter()
        self.labels: set[str] = set()
        self.rebound = 0

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, on_call=None, on_result=None):
        self.labels.add(name)
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, reqs = self.name, self.parent, self.req
        starts, ends, failed, stack = self.start, self.end, self.failed, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            failed.append(0)
            ends.append(0.0)
            starts.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                failed[i] = 1
                raise
            ends[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name: str, fn):
        self.labels.add(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation -------------------------------------------------------

    def _plan(self, pkg) -> dict:
        """original function -> wrapper, for every function to trace."""
        plan = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{pkg.__name__}.{layer}")
            for name, obj in vars(mod).items():
                if not _is_function(obj) or obj.__module__ != mod.__name__ or name.startswith("_"):
                    continue
                label = f"{layer}.{name}"
                if layer == "field" or (layer == "symhurwitz" and name in SYMHURWITZ_COUNTED) \
                        or inspect.isgeneratorfunction(obj):
                    plan[obj] = self._counter(label, obj)
                elif label == "threepoint.kernel_basis":
                    plan[obj] = self._span(label, obj, on_call=self._kernel_cells)
                elif label == "poly.poly_gcd":
                    plan[obj] = self._span(label, obj, on_result=self._gcd_result)
                elif label == "symhurwitz.hurwitz_char0":
                    plan[obj] = self._span(label, obj, on_result=self._classes_found)
                else:
                    plan[obj] = self._span(label, obj)
        poly = importlib.import_module(f"{pkg.__name__}.poly")
        plan[poly.Poly.__mul__] = self._span("poly.Poly.mul", poly.Poly.__mul__)
        plan[poly.Poly.__divmod__] = self._span("poly.Poly.divmod", poly.Poly.__divmod__)
        make = vars(poly.RatFunc)["make"].__func__
        plan[make] = self._span("poly.RatFunc.make", make)
        field = importlib.import_module(f"{pkg.__name__}.field")
        for cls in (field.PrimeField, field.ExtField, field.RationalField):
            for op in ("_mul", "_inv"):
                fn = vars(cls)[op]
                plan[fn] = self._counter(f"field.{op[1:]}.{cls.kind}", fn)
        return plan

    def install(self, pkg) -> None:
        """Wrap and rebind every reference inside the package."""
        plan = self._plan(pkg)
        mods = [pkg] + [importlib.import_module(f"{pkg.__name__}.{m.name}")
                        for m in pkgutil.iter_modules(pkg.__path__) if m.name != "__main__"]
        for owner, attr, val in _references(mods, pkg.__name__):
            fn = _function_of(val)
            if fn in plan:
                setattr(owner, attr, classmethod(plan[fn]) if isinstance(val, classmethod) else plan[fn])
                self.rebound += 1
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, val in _references(mods, pkg.__name__)
                if _function_of(val) in plan]
        if left:
            raise TraceError(f"references to untraced originals remain: {left}")

    # -- hooks --------------------------------------------------------------

    def _kernel_cells(self, rows, *_args, **_kwargs):
        if rows:
            self.counts["threepoint.kernel_basis.cells"] += len(rows) * len(rows[0])

    def _gcd_result(self, g):
        if g.degree == 0:
            self.counts["poly.poly_gcd.trivial"] += 1

    def _classes_found(self, res):
        self.counts["symhurwitz.classes_found"] += res.count

    # -- results ------------------------------------------------------------

    def summary(self, request_seconds: list[float]) -> dict:
        """Per-name calls and times, plus the coverage of request time."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top = [0.0] * len(request_seconds)
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
            elif self.req[i] >= 0:
                top[self.req[i]] += dur[i]
        calls, total, self_s, errors = Counter(), Counter(), Counter(), Counter()
        names = self.names
        for i in range(n):
            name = names[self.name[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_s[name] += dur[i] - child[i]
            par = self.parent[i]
            if self.failed[i] and (par < 0 or not names[self.name[par]].startswith(name.split(".")[0] + ".")):
                errors[name.split(".")[0]] += 1
        return {
            "spans": n,
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "layer_errors": dict(errors),
            "counts": dict(self.counts),
            "untraced_s": sum(r - t for r, t in zip(request_seconds, top)),
            "rebound": self.rebound,
            "labels": sorted(self.labels),
        }

    def write(self, path: str) -> None:
        """Dump the raw spans: a names line, then the arrays in order."""
        with open(path, "wb") as fh:
            fh.write((",".join(self.names) + "\n").encode())
            for arr in (self.name, self.parent, self.req, self.start, self.end, self.failed):
                arr.tofile(fh)
