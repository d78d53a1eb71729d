"""Outside-in tracing of the forminv layers.

The tracer wraps public functions and methods of the library's modules
from the benchmark's own code; the library itself is not edited.  Each
wrapped call records a span (name, start, end, parent span, job id) into
flat in-memory arrays, which are written out once the run ends.  A few
wrappers also add operand counts at the same boundary (term-pair products,
cache repeats, bytes parsed).

Wrappers are installed on every place a wrapped object is looked up: the
module that defines it, every forminv module that imported it by name,
class-attribute aliases (``MSeries.__radd__`` is ``__add__``) and the
``METHODS`` registry.  ``uninstall`` puts every original back.

A span whose direct parent carries the same name is not recorded unless
the name is marked re-entrant: a ``METHODS`` entry such as
``lambda f, d: invert_recurrent(f, d).inverse_map()`` and the function it
calls then count as one call.  Re-entrant names (the recursive tree sums)
record every call.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional, Union

FIELDS = ("name", "parent", "job", "start_ns", "end_ns")


@dataclass
class Spans:
    """Recorded spans as parallel arrays; ``parent`` is -1 at the top."""

    names: list = field(default_factory=list)  # name id -> name
    ids: dict = field(default_factory=dict)  # name -> name id
    name: array = field(default_factory=lambda: array("q"))
    parent: array = field(default_factory=lambda: array("q"))
    job: array = field(default_factory=lambda: array("q"))
    start: array = field(default_factory=lambda: array("q"))
    end: array = field(default_factory=lambda: array("q"))

    def __len__(self):
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: int, end: int, parent: int = -1, job: int = 0) -> int:
        """Append one finished span; returns its index."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.job.append(job)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def write(self, prefix: Path) -> None:
        """``<prefix>.json`` describes ``<prefix>.bin``: the five int64
        arrays of FIELDS, one after the other, in native byte order."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{prefix}.bin", "wb") as out:
            for column in (self.name, self.parent, self.job, self.start, self.end):
                column.tofile(out)
        meta = {"fields": FIELDS, "count": len(self), "dtype": "int64", "names": self.names}
        Path(f"{prefix}.json").write_text(json.dumps(meta, indent=1))


@dataclass
class NameStats:
    calls: int = 0
    total_ns: int = 0  # inclusive time
    self_ns: int = 0  # minus the time of direct children


def self_times(spans: Spans) -> list[int]:
    """Per span: its duration minus the durations of its direct children.

    Children lie inside their parent's interval, so subtracting direct
    children's whole durations removes every descendant exactly once."""
    out = [e - s for s, e in zip(spans.start, spans.end)]
    for idx, parent in enumerate(spans.parent):
        if parent >= 0:
            out[parent] -= spans.end[idx] - spans.start[idx]
    return out


def summarize(spans: Spans) -> dict[str, NameStats]:
    """Calls, inclusive time and self time per span name."""
    selfs = self_times(spans)
    stats = [NameStats() for _ in spans.names]
    for idx, nid in enumerate(spans.name):
        st = stats[nid]
        st.calls += 1
        st.total_ns += spans.end[idx] - spans.start[idx]
        st.self_ns += selfs[idx]
    return {name: st for name, st in zip(spans.names, stats)}


def child_counts(spans: Spans, child: str, parent: str) -> int:
    """Number of spans named ``child`` whose direct parent is named ``parent``."""
    cid, pid = spans.ids.get(child), spans.ids.get(parent)
    if cid is None or pid is None:
        return 0
    return sum(
        1
        for nid, par in zip(spans.name, spans.parent)
        if nid == cid and par >= 0 and spans.name[par] == pid
    )


Observer = Callable[["Tracer", tuple, object], None]


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self):
        self.spans = Spans()
        self.counters: dict[str, float] = {}
        self.job = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (container, key, original)

    # -- counting ----------------------------------------------------------

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key: str, value) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span; the benchmark's job loop uses this for
        the per-job root span."""
        return self._wrap(fn, name, reentrant=True, observe=None)(*args, **kwargs)

    def _wrap(self, fn, name: Union[str, Callable], reentrant: bool, observe: Optional[Observer]):
        tracer = self
        spans = self.spans
        stack = self._stack
        fixed_id = spans.name_id(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else spans.name_id(name(args))
            parent = stack[-1] if stack else -1
            if not reentrant and parent >= 0 and spans.name[parent] == nid:
                return fn(*args, **kwargs)
            idx = len(spans.name)
            spans.name.append(nid)
            spans.parent.append(parent)
            spans.job.append(tracer.job)
            spans.end.append(0)
            stack.append(idx)
            spans.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[idx] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, original, name, namespaces, reentrant=False, observe=None):
        """Wrap ``original`` wherever it is bound in ``namespaces`` (modules,
        classes or dicts); returns the number of places patched."""
        wrapper = self._wrap(original, name, reentrant, observe)
        patched = 0
        for ns in namespaces:
            items = ns.items() if isinstance(ns, dict) else list(vars(ns).items())
            for key, value in list(items):
                if value is original:
                    self._patches.append((ns, key, original))
                    _set(ns, key, wrapper)
                    patched += 1
        if not patched:
            raise LookupError(f"{name}: nothing to patch")
        return patched

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            _set(ns, key, original)
        self._patches.clear()


def _set(ns, key, value):
    if isinstance(ns, dict):
        ns[key] = value
    else:
        setattr(ns, key, value)


# -- the forminv layers ----------------------------------------------------------


def _observe_mul(tracer: Tracer, args, result):
    a, b = args[0], args[1]
    tracer.count("series.mul.pairs", len(a.terms) * len(b.terms))
    tracer.count("series.mul.out_terms", len(result.terms))
    tracer.peak("series.peak_terms", len(result.terms))


def _observe_series(tracer: Tracer, args, result):
    tracer.peak("series.peak_terms", len(result.terms))


def _observe_compose(tracer: Tracer, args, result):
    for s in result:
        tracer.peak("series.peak_terms", len(s.terms))


def _observe_parse(tracer: Tracer, args, result):
    tracer.count("mapdoc.bytes_in", len(args[0]))


def _observe_serialize(tracer: Tracer, args, result):
    tracer.count("mapdoc.bytes_out", len(result))


class _RootSumObserver:
    """Repeat (tree.key, i) requests per TreePolyCache, and zero results."""

    def __init__(self):
        self.seen = weakref.WeakKeyDictionary()

    def __call__(self, tracer: Tracer, args, result):
        cache, tree, i = args[0], args[1], args[2]
        keys = self.seen.setdefault(cache, set())
        key = (tree.key, i)
        tracer.count("trees.root_sum.calls_seen")
        if key in keys:
            tracer.count("trees.root_sum.repeats")
        else:
            keys.add(key)
        if result.is_zero():
            tracer.count("trees.root_sum.zero")


def _root_sum_name(args) -> str:
    return f"trees.root_sum.size{args[1].size}"


def install_forminv(tracer: Tracer, lib) -> None:
    """Wrap the public functions of the layers series, rat, inversion,
    trees, laurent, flow and mapdoc.  ``lib`` is the imported ``forminv``
    package."""
    series, rat, inversion = lib.series, lib.rat, lib.inversion
    trees, laurent, flow, mapdoc = lib.trees, lib.laurent, lib.flow, lib.mapdoc
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == lib.__name__]
    classes = [series.MSeries, series.PolyMap, inversion.BForm, trees.TreePolyCache]
    everywhere = modules + classes + [inversion.METHODS]

    def wrap(original, name, **kw):
        tracer.install(original, name, everywhere, **kw)

    ms, pm = series.MSeries, series.PolyMap
    wrap(ms.mul, "series.mul", observe=_observe_mul)
    wrap(ms.__add__, "series.add", observe=_observe_series)
    wrap(series.compose_map_components, "series.compose", observe=_observe_compose)
    wrap(series.compose, "series.compose")
    wrap(ms.diff, "series.diff")
    wrap(series.unit_inverse, "series.unit_inverse")
    wrap(series.series_det, "series.det")
    wrap(series.jacobian_det, "series.det")
    wrap(pm.jacobian, "series.jacobian")
    wrap(series.jacobian, "series.jacobian")
    for method in ("with_params", "shift_param", "eval_param", "subst_param_sum", "pdiff", "strip_params"):
        wrap(vars(ms)[method], "series.param")

    wrap(rat.rat_from_str, "rat.from_str")
    wrap(rat.rat_to_str, "rat.to_str")

    methods = inversion.METHODS
    for key, fn in (
        ("fixed", inversion.invert_fixed_point),
        ("recurrent", inversion.invert_recurrent),
        ("homog", inversion.invert_homogeneous),
        ("ag", inversion.invert_abhyankar_gurjar),
        ("bcw", inversion.invert_bcw),
        ("jacobi", inversion.jacobi_coefficient),
    ):
        if methods[key] is not fn:  # a lambda around fn: wrap both
            wrap(methods[key], f"inversion.{key}")
        wrap(fn, f"inversion.{key}")
    wrap(inversion.recurrent_layers, "inversion.recurrent_layers")
    wrap(inversion.cross_check, "inversion.cross_check")
    wrap(inversion.BForm.apply, "inversion.homog.bform")
    wrap(inversion.b_form_apply, "inversion.homog.bform")

    wrap(trees.enumerate_trees, "trees.enumerate")
    wrap(trees.TreePolyCache.labeled_root_sum, _root_sum_name, reentrant=True, observe=_RootSumObserver())
    wrap(trees.order_polynomial, "trees.order_polynomial")

    wrap(laurent.laurent_inv_power, "laurent.inv_power")
    wrap(laurent.residue, "laurent.residue")

    for fname in (
        "deformation_inverse", "pde_residual", "formal_flow", "power_map",
        "check_lemma31", "check_euler_identities", "check_prop310",
    ):
        wrap(getattr(flow, fname), f"flow.{fname}")

    wrap(mapdoc.parse_map, "mapdoc.parse", observe=_observe_parse)
    wrap(mapdoc.serialize_polymap, "mapdoc.serialize", observe=_observe_serialize)
