"""Span tracing of cliquemul's layers from outside the package.

``instrumented(tracer)`` replaces the public callables each layer exposes
with timing wrappers and puts the originals back on exit, so the package
source is untouched and untraced runs pay nothing.  Every wrapper records
a ``Span``: name, layer, start, end, parent span and workload call.  Spans
stay in memory; ``layer_metrics`` summarises them when the run ends.

Layers, and the spans that stand for them:

* ``bench``: the workload call itself, i.e. the glue between pipeline calls;
* ``engine``: ``CliqueEngine.run_phase`` minus the handlers it calls;
* ``smm``: ``smm()``;
* ``triangles``: ``list_triangles()``;
* ``graph_suite``: ``apsp``, ``count_4_cycles``, ``trace_product``, ``bfs_ecc``;
* ``graphs``: ``Graph.is_symmetric``, ``Graph.to_adjacency``;
* ``partition``: ``balanced_assignment`` and ``padded_balanced_groups``,
  wrapped where ``smm`` and ``triangles`` bind them;
* ``sparse``: ``SparseMatrix.from_entries``.

A phase handler span belongs to the layer of the span that ran the phase,
so the ``<layer>.self_s`` metrics partition the traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("bench", "engine", "smm", "triangles", "graph_suite", "graphs",
          "partition", "sparse")

# Fixed phase lists: a phase a later change deletes still reports 0, and a
# phase it adds shows under ".other".
SMM_PHASES = (
    "distribute", "stats", "balance", "balance.trows",
    "sbmm.coldist", "sbmm.stats", "sbmm.subseq", "sbmm.counts",
    "sbmm.request", "sbmm.respond", "sbmm.reduce", "unpermute",
)
TRI_GROUPS = (
    "degrees", "vcounts", "ncounts",
    "le.load", "le.alloc", "le.forward", "psums",
    "lp.coldist", "lp.stats", "lp.subseq", "lp.request", "lp.respond",
    "collect",
)


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    layer: str
    parent: int | None
    call: int | None
    start: float
    end: float = 0.0
    label: str = ""          # phase label of run_phase and handler spans
    info: dict | None = None  # counts captured from the call's result


class Tracer:
    """Spans of one run, in opening order; ``spans[i].sid == i``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._call: int | None = None

    def open(self, name: str, layer: str, label: str = "") -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self._call,
                    perf_counter(), 0.0, label)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def workload_call(self, call: int):
        """Root span of one workload call; the spans opened inside share ``call``."""
        self._call = call
        span = self.open("workload", "bench")
        try:
            yield span
        finally:
            self.close(span)
            self._call = None


# -- wrappers ----------------------------------------------------------------

def _wrap(tracer: Tracer, fn, name: str, layer: str, capture=None):
    def wrapper(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if capture is not None:
            span.info = capture(args, result)
        return result
    return wrapper


def _wrap_run_phase(tracer: Tracer, run_phase):
    def wrapper(engine, label, handler):
        span = tracer.open("run_phase", "engine", label)
        layer = tracer.spans[span.parent].layer if span.parent is not None else "bench"

        def timed(v, state, inbox):
            h = tracer.open("handler", layer, label)
            try:
                return handler(v, state, inbox)
            finally:
                tracer.close(h)

        try:
            return run_phase(engine, label, timed)
        finally:
            tracer.close(span)
    return wrapper


def _smm_info(args, res):
    S, T = args[0], args[1]
    return {"n": S.n, "nz": (S.nz(), T.nz()), "records": list(res.records)}


def _tri_info(args, res):
    return {"n": res.state.n, "m": res.state.m, "records": list(res.records)}


def _graph_info(args, res):
    info = {"n": args[0].n, "records": list(res.records)}
    if hasattr(res, "multiplications"):
        info["multiplications"] = res.multiplications
    return info


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the package's layer entry points through span wrappers."""
    mod = importlib.import_module
    smm_mod = mod("cliquemul.smm")
    tri = mod("cliquemul.triangles")
    gs = mod("cliquemul.graph_suite")
    Engine = mod("cliquemul.engine").CliqueEngine
    Graph = mod("cliquemul.graphs").Graph
    Sparse = mod("cliquemul.sparse").SparseMatrix

    # A binding a later change removes is left unwrapped; its metrics read 0.
    specs = [
        (smm_mod, "smm", "smm", _smm_info),
        (gs, "smm", "smm", _smm_info),
        (tri, "list_triangles", "triangles", _tri_info),
        (gs, "apsp", "graph_suite", _graph_info),
        (gs, "count_4_cycles", "graph_suite", _graph_info),
        (gs, "trace_product", "graph_suite", None),
        (gs, "bfs_ecc", "graph_suite", None),
        (smm_mod, "balanced_assignment", "partition", None),
        (tri, "balanced_assignment", "partition", None),
        (tri, "padded_balanced_groups", "partition", None),
        (Graph, "is_symmetric", "graphs", None),
        (Graph, "to_adjacency", "graphs", None),
    ]
    patches = [(obj, attr, _wrap(tracer, vars(obj)[attr], attr, layer, capture))
               for obj, attr, layer, capture in specs if attr in vars(obj)]
    from_entries = vars(Sparse)["from_entries"].__func__
    patches.append((Sparse, "from_entries", classmethod(
        _wrap(tracer, from_entries, "from_entries", "sparse"))))
    patches.append((Engine, "run_phase", _wrap_run_phase(tracer, vars(Engine)["run_phase"])))
    saved = [(obj, attr, vars(obj)[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield tracer
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


# -- summaries ---------------------------------------------------------------

def write_jsonl(spans: list[Span], path) -> None:
    """One JSON object per span, in opening order."""
    with open(path, "w", encoding="ascii") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.sid, "name": s.name, "layer": s.layer,
                                 "label": s.label, "parent": s.parent, "call": s.call,
                                 "start": s.start, "end": s.end}) + "\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - union_length(children.get(s.sid, ()), s.start, s.end)
            for s in spans]


def tri_group(label: str) -> str:
    """``tri.<half>.<group>`` or ``tri.<group>`` -> ``<group>``."""
    rest = label.split(".", 1)[1]
    if rest and rest[0].isdigit():
        rest = rest.split(".", 1)[1]
    return rest


def _rounds(records) -> int:
    return sum(r.rounds for r in records)


def link_util(ledgers) -> float:
    """Messages over link capacity: sum msgs / sum rounds*n*(n-1) over (n, records)."""
    msgs = capacity = 0
    for n, records in ledgers:
        for r in records:
            msgs += r.total_msgs
            capacity += r.rounds * n * (n - 1)
    return msgs / capacity if capacity else 0.0


def _by_name(pairs, names) -> dict[str, float]:
    """Sum values per name in ``names``; any other name adds to "other"."""
    totals = dict.fromkeys(names, 0)
    totals["other"] = 0
    for name, value in pairs:
        totals[name if name in totals else "other"] += value
    return totals


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics, per workload call, from the spans of traced calls."""
    calls = sum(1 for s in spans if s.name == "workload")
    if calls == 0:
        raise ValueError("no traced workload call")
    layer_self: dict[str, float] = defaultdict(float)
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    handler: dict[tuple[str, str], float] = defaultdict(float)
    phase: dict[tuple[str, str], float] = defaultdict(float)
    for s, self_s in zip(spans, self_times(spans)):
        dur = s.end - s.start
        layer_self[s.layer] += self_s
        incl[s.name] += dur
        own[s.name] += self_s
        count[s.name] += 1
        if s.name == "handler":
            handler[(s.layer, s.label)] += self_s
        elif s.name == "run_phase":
            phase[(spans[s.parent].layer if s.parent is not None else "bench", s.label)] += dur

    m: dict[str, float] = {"trace.wall_s": incl["workload"]}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]

    def handler_s(layer, keep=lambda label: True):
        return sum(t for (lay, label), t in handler.items() if lay == layer and keep(label))

    m["smm.handler_s"] = handler_s("smm")
    m["smm.driver_s"] = own["smm"]
    for p in ("reduce", "respond", "counts"):
        m[f"smm.{p}.handler_s"] = handler[("smm", f"sbmm.{p}")]
    smm_phase_s = ((label, t) for (lay, label), t in phase.items() if lay == "smm")
    for p, t in _by_name(smm_phase_s, SMM_PHASES).items():
        m[f"smm.phase_s.{p}"] = t
    m["triangles.handler_s"] = handler_s("triangles")
    m["triangles.driver_s"] = own["list_triangles"]
    m["triangles.collect.handler_s"] = handler_s(
        "triangles", lambda label: tri_group(label) == "collect")
    for name in ("apsp", "count_4_cycles", "trace_product", "bfs_ecc"):
        m[f"graph_suite.{name}.s"] = incl[name]
    m["graph_suite.apsp.self_s"] = own["apsp"]
    m["graphs.is_symmetric.calls"] = count["is_symmetric"]
    m["graphs.is_symmetric.s"] = incl["is_symmetric"]
    m["graphs.to_adjacency.s"] = incl["to_adjacency"]
    m["partition.calls"] = count["balanced_assignment"] + count["padded_balanced_groups"]
    m["partition.s"] = incl["balanced_assignment"] + incl["padded_balanced_groups"]

    # Counts from the ledgers that the wrapped calls returned.
    infos = defaultdict(list)
    for s in spans:
        if s.info is not None:
            infos[s.name].append(s.info)
    top = [s.info for s in spans
           if s.info is not None and s.parent is not None and spans[s.parent].name == "workload"]
    top_records = [r for info in top for r in info["records"]]
    m["engine.phases"] = len(top_records)
    m["engine.messages"] = sum(r.total_msgs for r in top_records)
    m["engine.link_util"] = link_util((info["n"], info["records"]) for info in top)

    smm_records = [r for info in infos["smm"] for r in info["records"]]
    m["smm.calls"] = count["smm"]
    m["smm.rounds"] = _rounds(smm_records)
    for p, r in _by_name(((r.label, r.rounds) for r in smm_records), SMM_PHASES).items():
        m[f"smm.rounds.{p}"] = r
    respond = [r for r in smm_records if r.label == "sbmm.respond"]
    m["smm.respond.max_send"] = max((r.max_send for r in respond), default=0)
    m["smm.respond.max_recv"] = max((r.max_recv for r in respond), default=0)
    m["smm.round_ratio"] = max(
        (_rounds(i["records"]) / ((i["nz"][0] * i["nz"][1]) ** (1 / 3) / i["n"] + 1)
         for i in infos["smm"]), default=0.0)

    tri_records = [r for info in infos["list_triangles"] for r in info["records"]]
    m["triangles.rounds"] = _rounds(tri_records)
    tri_groups = ((tri_group(r.label), r.rounds) for r in tri_records)
    for g, r in _by_name(tri_groups, TRI_GROUPS).items():
        m[f"triangles.rounds.{g}"] = r
    m["triangles.round_ratio"] = max(
        (_rounds(i["records"]) / (i["m"] / i["n"] ** (5 / 3) + 1)
         for i in infos["list_triangles"]), default=0.0)

    apsp_records = [r for info in infos["apsp"] for r in info["records"]]
    m["graph_suite.apsp.rounds"] = _rounds(apsp_records)
    m["graph_suite.apsp.multiplications"] = sum(i["multiplications"] for i in infos["apsp"])
    m["graph_suite.count_4_cycles.rounds"] = _rounds(
        r for info in infos["count_4_cycles"] for r in info["records"])
    m["graph_suite.bfs_ecc.rounds"] = _rounds(
        r for r in apsp_records if r.label.startswith("bfs."))

    # Maxima and ratios hold per call already; everything else is a total.
    per_call = {k: v / calls for k, v in m.items()}
    for k in ("smm.respond.max_send", "smm.respond.max_recv", "smm.round_ratio",
              "triangles.round_ratio", "engine.link_util"):
        per_call[k] = m[k]
    return per_call

