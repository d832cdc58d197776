"""Timing and counting wrappers around the public functions of affpoints.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent span, op id, tag),
in every affpoints module namespace that bound the function, because
modules such as ``regions`` and ``points`` call through names they
imported with ``from .polygons import ...``.  ``Polygon.diameter`` is
wrapped on the class.  Spans are recorded only while ``tracer.op`` is set,
so input generation, warm-up and output checks stay out of the counts.
The library source is not modified.
"""

from __future__ import annotations

import functools
import gzip
import statistics
import sys
import types
from array import array
from time import perf_counter

# defining module -> layer name used in metric names
LAYERS = {
    "affpoints._polyops_py": "kernels",
    "affpoints._polyops": "kernels",
    "affpoints.polygons": "polygons",
    "affpoints.ellipses": "ellipses",
    "affpoints.points": "points",
    "affpoints.regions": "regions",
    "affpoints.duality": "duality",
    "affpoints.noninjective": "noninjective",
    "affpoints.cli": "cli",
}

REGION_MAPS = {
    "floating": "floating_body",
    "illumination": "illumination_body",
    "santalo": "santalo_region",
    "john": "john_region",
    "symcore": "symcore_region",
}
# the public callee each map evaluates once per predicate test on a ray
REGION_PREDICATES = {
    "floating": "kernels.cap_area",
    "santalo": "polygons.polar_about",
    "john": "ellipses.max_area_reaches",
    "symcore": "points.overlap_area",
}
POINT_IDS = ("centroid", "santalo", "john", "loewner", "symcore", "capfamily")
CLI_COMMANDS = ("point", "polar", "shift", "ellipse", "region", "dual-check",
                "invariance", "preimage", "counterexample", "iterate-product")


def _region_rays(args, kwargs):
    if "m" in kwargs:
        return kwargs["m"]
    if len(args) > 2:
        return args[2]
    return sys.modules["affpoints.regions"].DEFAULT_RAYS


# span name -> function of the call's (args, kwargs) giving the span's tag
TAGGERS = {
    "points.eval_point": lambda a, k: (a[0].id, a[0].params, hash(a[1].vertices.tobytes())),
    "cli.run_command": lambda a, k: a[0][0],
    **{f"regions.{fn}": _region_rays for fn in REGION_MAPS.values()},
}


class Tracer:
    def __init__(self):
        self.op = None
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.op_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tagger = TAGGERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            tracer.name_of.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.op_of.append(tracer.op)
            tracer.end.append(0.0)
            if tagger is not None:
                tracer.tags[sid] = tagger(args, kwargs)
            tracer._stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        wrappers = {}
        for modname, layer in LAYERS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == modname):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "affpoints" and not modname.startswith("affpoints."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        Polygon = sys.modules["affpoints.polygons"].Polygon
        prop = vars(Polygon)["diameter"]
        self._patches.append((Polygon, "diameter", prop))
        Polygon.diameter = property(self._wrap("polygons.diameter", prop.fget))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its child spans."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[sid] - self.start[sid]
        return out

    def write(self, path: str) -> None:
        """All spans as tab-separated lines: id, name, start, end, parent, op, tag."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart_s\tend_s\tparent\top\ttag\n")
            for sid in range(len(self.start)):
                tag = self.tags.get(sid, "")
                f.write(f"{sid}\t{self.names[self.name_of[sid]]}\t"
                        f"{self.start[sid] - t0:.9f}\t{self.end[sid] - t0:.9f}\t"
                        f"{self.parent[sid]}\t{self.op_of[sid]}\t{tag}\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span (see BENCHMARK.json)."""
        names = [self.names[i] for i in self.name_of]
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = self.self_times()
        by_name: dict[str, list[int]] = {}
        for sid, name in enumerate(names):
            by_name.setdefault(name, []).append(sid)

        def calls(name):
            return len(by_name.get(name, ()))

        def self_s(name):
            return sum((own[i] for i in by_name.get(name, ())), 0.0)

        def p50_ms(sids):
            return 1e3 * statistics.median(dur[i] for i in sids) if sids else 0.0

        kernel_sids = [i for i, n in enumerate(names) if n.startswith("kernels.")]
        m: dict[str, float] = {
            "kernels.calls": len(kernel_sids),
            "kernels.self_s": sum((own[i] for i in kernel_sids), 0.0),
        }
        for fn in ("cap_area", "clip_halfplane", "polar_vertices", "supports"):
            m[f"kernels.{fn}.calls"] = calls(f"kernels.{fn}")
        for fn in ("diameter", "canonicalize"):
            m[f"polygons.{fn}.calls"] = calls(f"polygons.{fn}")
            m[f"polygons.{fn}.self_s"] = self_s(f"polygons.{fn}")
        m["polygons.polar_about.calls"] = calls("polygons.polar_about")
        m["polygons.intersect.calls"] = calls("polygons.intersect")
        m["polygons.hausdorff.self_s"] = self_s("polygons.hausdorff")
        m["ellipses.john_ellipse.self_s"] = self_s("ellipses.john_ellipse")
        m["ellipses.loewner_ellipse.self_s"] = self_s("ellipses.loewner_ellipse")
        m["ellipses.max_area_reaches.calls"] = calls("ellipses.max_area_reaches")
        m["ellipses.max_area_reaches.self_s"] = self_s("ellipses.max_area_reaches")
        m["ellipses.verify_john_conditions.self_s"] = self_s(
            "ellipses.verify_john_conditions")

        evals = by_name.get("points.eval_point", [])
        for pid in POINT_IDS:
            m[f"points.{pid}.p50_ms"] = p50_ms([i for i in evals
                                                if self.tags[i][0] == pid])
        m["points.overlap_area.calls"] = calls("points.overlap_area")

        # nearest enclosing region-map span of every span (parents come first)
        region_of = [-1] * len(names)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                region_of[sid] = p if names[p].startswith("regions.") else region_of[p]
        for short, fn in REGION_MAPS.items():
            sids = by_name.get(f"regions.{fn}", [])
            m[f"regions.{short}.ms"] = p50_ms(sids)
            if short in REGION_PREDICATES:
                callee = REGION_PREDICATES[short]
                mine = set(sids)
                n_evals = sum(1 for i in by_name.get(callee, ()) if region_of[i] in mine)
                rays = sum(self.tags[i] for i in sids)
                m[f"regions.{short}.evals_per_ray"] = n_evals / rays if rays else 0.0

        for fn in ("dual_residual", "product_apply", "polar_preimage",
                   "invariance_check"):
            m[f"duality.{fn}.self_s"] = self_s(f"duality.{fn}")
        m["duality.point_evals"] = len(evals)
        m["duality.distinct_point_evals"] = len({(self.op_of[i], self.tags[i])
                                                 for i in evals})

        runs = by_name.get("cli.run_command", [])
        for cmd in CLI_COMMANDS:
            m[f"cli.run_command.{cmd}.ms"] = p50_ms([i for i in runs
                                                     if self.tags[i] == cmd])
        m["noninjective.certify.ms"] = p50_ms(by_name.get("noninjective.certify", []))
        return m
