"""Spans around the public functions of cgbv, and self time from them.

A :class:`Tracer` rebinds the functions it wraps in every module of the
package that binds them (``transgression`` is bound in ``chern_weil``,
``bundles``, ``thom`` and ``scenarios``), so a call is recorded whichever
module makes it.  Functions that return a form or a connection (``d``,
``pullback``, ``pfaffian``, ``mu``, the split connections ...) get their
*evaluations* recorded, since that is where their work happens.

A span is a name, a start, an end and the index of its parent span.  The
spans of a run are kept in memory in flat arrays and written out at the
end; a span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from collections import Counter

# layer name -> what the tracer wraps (module, attribute)
FUNCTION_LAYERS = {
    "relative.homotopy": (("relative", "homotopy_TI"),
                          ("relative", "homotopy_TII")),
    "relative.pairing": (("relative", "lefschetz_I"),
                         ("relative", "lefschetz_II")),
    "discrete": (("discrete", "betti"), ("discrete", "dirichlet_betti"),
                 ("discrete", "les_check"), ("discrete", "mapping_cone")),
}
FORM_LAYERS = {
    "chern_weil.pfaffian": (("chern_weil", "pfaffian"),),
    "chern_weil.transgression": (("chern_weil", "transgression"),),
    "chern_weil.secondary": (("chern_weil", "secondary_transgression"),),
    "thom.mu": (("thom", "mu"),),
    "bundles.split_connection": (("bundles", "projected_connection"),
                                 ("bundles", "frame_split_connection")),
}
METHOD_FORM_LAYERS = {
    "forms.d": (("forms", "Form", "d"), ("forms", "MatrixForm", "d")),
    "forms.pullback": (("forms", "Form", "pullback"),
                       ("forms", "MatrixForm", "pullback")),
}
LAYERS = ("geometry.integrate", "geometry.fiber_integrate", "forms.jacobian",
          *METHOD_FORM_LAYERS, *FORM_LAYERS, *FUNCTION_LAYERS)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cgbv" or name.startswith("cgbv."))]


def _grid_size(domain) -> int:
    if domain.kind == "points":
        return len(domain.point_entries)
    return math.prod(domain.orders)


class Tracer:
    """Records spans and counters while installed; :meth:`remove` undoes it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Counter = Counter()
        self._stack: list = []
        self._undo: list = []

    # ------------------------------------------------------------------
    # recording

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self.starts.append(self.clock())
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call is one span named ``name``."""
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    # ------------------------------------------------------------------
    # installing

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement, modules) -> None:
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, key, replacement)

    def _time_form(self, name: str, form) -> None:
        if hasattr(form, "comps"):
            form.comps = self.timed(name, form.comps)
        else:
            form.eval = self.timed(name, form.eval)

    def install(self) -> None:
        """Wrap the layers of every imported cgbv module."""
        import cgbv.forms as forms
        import cgbv.geometry as geometry

        modules = _package_modules()
        byname = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        counters = self.counters

        integrate = geometry.ChartDomain.integrate

        def traced_integrate(domain, form):
            counters["geometry.integrate.nodes"] += _grid_size(domain)
            return integrate(domain, form)

        self._set(geometry.ChartDomain, "integrate",
                  self.timed("geometry.integrate", traced_integrate))

        fiber_integrate = geometry.FiberBundleDomain.fiber_integrate

        def traced_fiber_integrate(bundle, form):
            out = fiber_integrate(bundle, form)
            comps, nodes = out.comps, _grid_size(bundle.fiber)

            def per_base_point(y):
                counters["geometry.fiber_integrate.base_points"] += 1
                counters["geometry.fiber_integrate.nodes"] += nodes
                return comps(y)

            out.comps = self.timed("geometry.fiber_integrate", per_base_point)
            return out

        self._set(geometry.FiberBundleDomain, "fiber_integrate",
                  traced_fiber_integrate)
        self._set(forms.SmoothMap, "jacobian",
                  self.timed("forms.jacobian", forms.SmoothMap.jacobian))

        lift_point = forms.lift_point

        def counted_lift_point(x, j):
            counters["forms.lift_point.calls"] += 1
            return lift_point(x, j)

        self._rebind(lift_point, counted_lift_point, modules)

        for name, targets in METHOD_FORM_LAYERS.items():
            for mod, cls, attr in targets:
                owner = getattr(byname[mod], cls)
                method = getattr(owner, attr)
                self._set(owner, attr, self._form_returning(name, method))
        for name, targets in FORM_LAYERS.items():
            for mod, attr in targets:
                fn = getattr(byname[mod], attr)
                self._rebind(fn, self._form_returning(name, fn), modules)
        for name, targets in FUNCTION_LAYERS.items():
            for mod, attr in targets:
                fn = getattr(byname[mod], attr)
                self._rebind(fn, self.timed(name, fn), modules)

    def _form_returning(self, name: str, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            # a connection carries its potential as a MatrixForm in .A
            self._time_form(name, getattr(out, "A", out))
            return out
        return wrapper

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # output

    def save(self, path: str) -> None:
        """One JSON header line, then the four span arrays as raw bytes."""
        header = {"names": self.names, "count": len(self.starts),
                  "counters": dict(self.counters)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def load(path: str) -> dict:
    """Inverse of :meth:`Tracer.save`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    name_ids, parents, starts, ends = arrays
    return {"names": header["names"], "counters": header["counters"],
            "name_ids": name_ids, "parents": parents,
            "starts": starts, "ends": ends}


def self_times(parents, starts, ends) -> list:
    """Each span's duration minus the time its children cover.

    Spans are listed in the order they opened, so a parent precedes its
    children and the children of one parent come in order of start.
    Child intervals are clipped to the parent and merged where they
    overlap, so no instant is subtracted twice.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [-math.inf] * n  # end of the merged child cover so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo, hi = max(starts[i], starts[p]), min(ends[i], ends[p])
        lo = max(lo, reach[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def summarize(trace: dict) -> dict:
    """Per name: number of spans, total duration, total self time."""
    names, name_ids = trace["names"], trace["name_ids"]
    starts, ends = trace["starts"], trace["ends"]
    own = self_times(trace["parents"], starts, ends)
    out = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i, nid in enumerate(name_ids):
        row = out[names[nid]]
        row["count"] += 1
        row["total_s"] += ends[i] - starts[i]
        row["self_s"] += own[i]
    return out
