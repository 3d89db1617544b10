"""Per-layer tracing of `wellspread` from outside the program.

Each traced name is wrapped, and the wrap is patched into every `wellspread`
module that holds the function (as a module attribute or as a value of a
module-level dict), so calls through any import path are seen.  Spans are kept
in memory; the caller writes them out when the run ends.  Names the program
lacks are reported as missing instead of failing the run.
"""
from __future__ import annotations

import functools
import sys
from time import perf_counter

# span group -> (module, traced names).  A "Class.method" name patches the class.
SPAN_GROUPS = {
    "graphs.build": ("graphs", ("build_kneser", "build_schrijver", "build_q",
                                "build_circular", "build_interlacing")),
    "graphs.delete": ("graphs", ("delete_vertex", "delete_edge")),
    "graphs.validate_map": ("graphs", ("validate_map",)),
    "independence.mis": ("independence", ("maximum_independent_set",)),
    "independence.ratio_bound": ("independence", ("ratio_upper_bound",)),
    "independence.pricing": ("independence", ("max_weight_independent_set",)),
    "simplex.primal": ("simplex", ("PackingMaster.primal_simplex",)),
    "simplex.dual": ("simplex", ("PackingMaster.dual_simplex",)),
    "fractional.chif": ("fractional", ("fractional_chromatic_number",)),
    "fractional.verify": ("fractional", ("verify_fractional_coloring",)),
    "coloring.chi": ("coloring", ("chromatic_number",)),
    "coloring.class_search": ("coloring", ("is_t_colorable",)),
    "coloring.vertex_search": ("coloring", ("find_proper_coloring",)),
    "coloring.greedy": ("coloring", ("greedy_coloring", "greedy_clique")),
    "homomorphism.chi_c": ("homomorphism", ("circular_chromatic_number",)),
    "certificates.construct": ("certificates", (
        "circular_isomorphism", "edge_deleted_coloring", "edge_deleted_retraction",
        "find_subgraph_qab", "scaling_isomorphism", "vertex_deleted_coloring",
        "vertex_deleted_retraction")),
    "criticality.sweep": ("criticality", ("vertex_criticality", "edge_criticality",
                                          "circular_edge_corollary")),
    "serialize.document": ("serialize", (
        "graph_to_document", "graph_to_dot", "coloring_to_document", "map_to_document",
        "report_to_document", "trace_to_document", "boundary_to_document")),
    "serialize.dumps": ("serialize", ("dumps",)),
}

# counter -> (module, name) whose calls are counted without a span: too
# frequent to time one by one.
COUNTED = {
    "simplex.pivots": ("simplex", "PackingMaster._pivot"),
    "simplex.columns": ("simplex", "PackingMaster.add_constraint"),
}

# The text these names return is the document a request prints.
_SIZED = ("dumps", "graph_to_dot")

_SOLVERS = ("coloring.chi", "fractional.chif", "homomorphism.chi_c")

# metric -> (unit, how it is computed, span groups or counters it reads).
#   calls: spans of the groups; busy: time inside the outermost such spans;
#   self: span time minus the time of its traced child spans;
#   children: spans of the later groups whose parent span is of the first;
#   counted: a counter kept by the wraps.
LAYER_METRICS = {
    "graphs.build_calls": ("count", "calls", ("graphs.build",)),
    "graphs.build_s": ("s", "busy", ("graphs.build",)),
    "graphs.delete_calls": ("count", "calls", ("graphs.delete",)),
    "graphs.delete_s": ("s", "busy", ("graphs.delete",)),
    "graphs.validate_map_s": ("s", "busy", ("graphs.validate_map",)),
    "independence.mis_calls": ("count", "calls", ("independence.mis",)),
    "independence.mis_s": ("s", "busy", ("independence.mis",)),
    "independence.ratio_bound_calls": ("count", "calls", ("independence.ratio_bound",)),
    "independence.ratio_bound_s": ("s", "busy", ("independence.ratio_bound",)),
    "independence.pricing_calls": ("count", "calls", ("independence.pricing",)),
    "independence.pricing_s": ("s", "busy", ("independence.pricing",)),
    "simplex.lp_solves": ("count", "calls", ("simplex.primal", "simplex.dual")),
    "simplex.columns": ("count", "counted", ("simplex.columns",)),
    "simplex.pivots": ("count", "counted", ("simplex.pivots",)),
    "simplex.primal_s": ("s", "busy", ("simplex.primal",)),
    "simplex.dual_s": ("s", "busy", ("simplex.dual",)),
    "fractional.chif_calls": ("count", "calls", ("fractional.chif",)),
    "fractional.chif_s": ("s", "busy", ("fractional.chif",)),
    "fractional.chif_self_s": ("s", "self", ("fractional.chif",)),
    "fractional.verify_s": ("s", "busy", ("fractional.verify",)),
    "coloring.chi_calls": ("count", "calls", ("coloring.chi",)),
    "coloring.chi_s": ("s", "busy", ("coloring.chi",)),
    "coloring.class_search_calls": ("count", "calls", ("coloring.class_search",)),
    "coloring.class_search_s": ("s", "busy", ("coloring.class_search",)),
    "coloring.vertex_search_calls": ("count", "calls", ("coloring.vertex_search",)),
    "coloring.vertex_search_s": ("s", "busy", ("coloring.vertex_search",)),
    "coloring.greedy_s": ("s", "busy", ("coloring.greedy",)),
    "homomorphism.chi_c_calls": ("count", "calls", ("homomorphism.chi_c",)),
    "homomorphism.chi_c_s": ("s", "busy", ("homomorphism.chi_c",)),
    "homomorphism.chi_c_self_s": ("s", "self", ("homomorphism.chi_c",)),
    "homomorphism.candidates": ("count", "children", ("homomorphism.chi_c", "graphs.build")),
    "certificates.construct_calls": ("count", "calls", ("certificates.construct",)),
    "certificates.construct_s": ("s", "busy", ("certificates.construct",)),
    "criticality.sweeps": ("count", "calls", ("criticality.sweep",)),
    "criticality.solves": ("count", "children", ("criticality.sweep", *_SOLVERS)),
    "criticality.sweep_self_s": ("s", "self", ("criticality.sweep",)),
    "serialize.document_s": ("s", "busy", ("serialize.document",)),
    "serialize.dumps_s": ("s", "busy", ("serialize.dumps",)),
    "serialize.bytes": ("bytes", "counted", ("serialize.dumps", "serialize.document")),
}


class Span:
    __slots__ = ("sid", "parent", "group", "name", "request", "outer", "t0", "t1",
                 "net", "factor")

    def __init__(self, sid, parent, group, name, request, outer):
        self.sid, self.parent, self.group, self.name = sid, parent, group, name
        self.request, self.outer = request, outer
        self.t0 = self.t1 = 0.0
        self.net, self.factor = 0.0, 1.0  # seconds less probe time; speed scale

    def duration(self) -> float:
        return self.net * self.factor


class Tracer:
    """Records spans and counts while installed; restores the program on removal."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = dict.fromkeys([*COUNTED, "serialize.bytes"], 0)
        self.missing: list[str] = []
        self.request = -1  # traced requests so far, less one; spans carry it
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, group: str, name: str, fn):
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        sized = name in _SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, group, name,
                        self.request, not depth.get(group))
            spans.append(span)
            stack.append(span.sid)
            depth[group] = depth.get(group, 0) + 1
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                depth[group] -= 1
                stack.pop()
            if sized:
                counts["serialize.bytes"] += len(result.encode())
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module: str, name: str, make) -> None:
        mod = sys.modules.get(f"wellspread.{module}")
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"wellspread.{module}.{name}")
            return
        wrapped = make(original)
        if owner_name:
            self._set(owner, attr, wrapped)
            return
        for mname, m in list(sys.modules.items()):
            if mname != "wellspread" and not mname.startswith("wellspread."):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._set(m, key, wrapped)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, wrapped)

    def _set(self, container, key: str, value) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    def install(self) -> None:
        """Wrap every traced and counted name."""
        self.missing.clear()
        for group, (module, names) in SPAN_GROUPS.items():
            for name in names:
                self._patch(module, name, lambda fn, g=group, nm=name: self._span_wrapper(g, nm, fn))
        for key, (module, name) in COUNTED.items():
            self._patch(module, name, lambda fn, kk=key: self._count_wrapper(kk, fn))

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def layer_metrics(self, first_span: int, counts: dict[str, int],
                      probe=None) -> dict[str, float]:
        """Every per-layer metric over spans[first_span:] and the given counts.

        With a speed probe (speed.SpeedProbe), span times leave out the
        probe's own time and are scaled to its reference speed; a self time
        is scaled by its own span's factor, so it never goes negative."""
        spans = self.spans[first_span:]
        for s in spans:
            s.net = s.t1 - s.t0
            if probe is not None:
                s.net -= probe.handler_time(s.t0, s.t1)
                s.factor = probe.factor(s.t0, s.t1)
        group_of = {s.sid: s.group for s in spans}
        child_net: dict[int, float] = {}
        for s in spans:
            if s.parent >= 0:
                child_net[s.parent] = child_net.get(s.parent, 0.0) + s.net
        out: dict[str, float] = {}
        for metric, (_unit, how, groups) in LAYER_METRICS.items():
            if how == "counted":
                out[metric] = counts[metric]
            elif how == "children":
                parent, kids = groups[0], groups[1:]
                out[metric] = sum(1 for s in spans
                                  if s.group in kids and group_of.get(s.parent) == parent)
            else:
                mine = [s for s in spans if s.group in groups]
                if how == "calls":
                    out[metric] = len(mine)
                elif how == "busy":
                    out[metric] = sum(s.duration() for s in mine if s.outer)
                else:
                    out[metric] = sum((s.net - child_net.get(s.sid, 0.0)) * s.factor for s in mine)
        return out

    def missing_by_metric(self) -> dict[str, list[str]]:
        """Metric -> the traced names it reads that the program lacks."""
        lacking = set(self.missing)
        out = {}
        for metric, (_unit, _how, groups) in LAYER_METRICS.items():
            names = []
            for g in groups:
                if g in SPAN_GROUPS:
                    module, attrs = SPAN_GROUPS[g]
                    names += [f"wellspread.{module}.{a}" for a in attrs]
                else:
                    module, attr = COUNTED[g]
                    names.append(f"wellspread.{module}.{attr}")
            gone = sorted(n for n in names if n in lacking)
            if gone:
                out[metric] = gone
        return out

    def dump(self) -> list[list]:
        """Spans as [id, parent, request, group, name, start_s, raw_s, duration_s] rows."""
        base = self.spans[0].t0 if self.spans else 0.0
        return [[s.sid, s.parent, s.request, s.group, s.name, round(s.t0 - base, 7),
                 round(s.t1 - s.t0, 7), round(s.duration(), 7)] for s in self.spans]
