"""Tests of the benchmark's own arithmetic and of its reports.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

import pytest

import workloads  # first: puts the package under test on sys.path
import run
import spans
from cliquemul import CliqueEngine, Graph, RoundLedger, oracle

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(sid, parent, start, end, name="x", layer="bench"):
    return spans.Span(sid, name, layer, parent, 0, start, end)


def test_self_time_subtracts_union_of_overlapping_and_nested_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),     # overlaps span 2 on [3, 4]
        _span(2, 0, 3.0, 6.0),
        _span(3, 1, 1.5, 2.5),     # nested in span 1: does not reduce span 0 again
        _span(4, 0, 9.0, 12.0),    # runs past its parent: only [9, 10] counts
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    assert spans.union_length([(0, 1), (1, 2), (5, 7), (6, 6.5)], 0, 6) == pytest.approx(3)
    assert spans.union_length([], 0, 1) == 0


def test_link_util_on_hand_built_ledger():
    ledger = RoundLedger()
    ledger.charge_for_loads("a", 4, 5, 4, 12)    # ceil(5/3) = 2 rounds
    ledger.charge_for_loads("b", 4, 1, 1, 3)     # 1 round
    ledger.charge_for_loads("c", 4, 0, 0, 0)     # silent: 0 rounds
    small = RoundLedger()
    small.charge_for_loads("d", 2, 1, 1, 2)      # 1 round on 2 nodes
    # (12 + 3 + 2) messages over (2 + 1) * 4 * 3 + 1 * 2 * 1 link slots
    assert spans.link_util([(4, ledger.records), (2, small.records)]) == pytest.approx(17 / 38)
    assert spans.link_util([(4, ledger.records[2:])]) == 0.0


def _random_graph(rng, n):
    pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    return Graph.undirected(n, pairs)


def test_codegree_4_cycles_matches_enumeration():
    rng = random.Random(7)
    graphs = [_random_graph(rng, n) for n in (1, 4, 5, 8, 10, 12) for _ in range(3)]
    graphs.append(Graph.undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))           # C4
    graphs.append(Graph.undirected(4, list(itertools.combinations(range(4), 2))))  # K4
    for G in graphs:
        assert workloads.codegree_4_cycles(G) == oracle.enumerate_4_cycles(G)
    assert workloads.codegree_4_cycles(graphs[-1]) == 3


def test_fingerprint_is_stable_across_two_runs_and_tracks_the_ledger():
    wl = workloads.smm_uniform(((8, 20), (8, 64)))
    pairs = wl.make_inputs(3)
    runs = [[workloads.fingerprint(call.run().records) for call in wl.calls(pairs)]
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert len(set(runs[0])) == 2
    engine = CliqueEngine(8)
    res = workloads.smm_mod.smm(*pairs[0], engine)
    engine.ledger.charge_for_loads("extra", 8, 1, 1, 1)
    assert workloads.fingerprint(engine.ledger.records) != runs[0][0]
    assert workloads.fingerprint(res.records) == runs[0][0]


TINY = {
    "smm-uniform": workloads.smm_uniform(((8, 20), (8, 64))),
    "triangles": workloads.triangles(27, 90),
    "graph-suite": workloads.graph_suite_workload(16, 32, ecc=3),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    metrics, attempted, failed, note = run.benchmark(TINY[name], 1, 0, traced=True)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert (attempted, failed) == (2 * len(note["fingerprints"]), 0)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.overhead_ratio"] > 0
    smm_rounds = sum(metrics[f"smm.rounds.{p}"] for p in spans.SMM_PHASES + ("other",))
    assert smm_rounds == metrics["smm.rounds"]
    tri_rounds = sum(metrics[f"triangles.rounds.{g}"] for g in spans.TRI_GROUPS + ("other",))
    assert tri_rounds == metrics["triangles.rounds"]
    assert math.isfinite(metrics["engine.link_util"]) and 0 < metrics["engine.link_util"] <= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_end_to_end_metrics(name):
    metrics, attempted, failed, note = run.benchmark(TINY[name], 2, 0, traced=False)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert failed == 0 and note["fail_ratio"] == 0
    assert attempted == 2 * len(note["fingerprints"])
    assert all(metrics[k] > 0 for k in metrics)


def test_instrumentation_is_removed_afterwards():
    before = dict(vars(CliqueEngine))
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert vars(CliqueEngine)["run_phase"] is not before["run_phase"]
    assert vars(CliqueEngine)["run_phase"] is before["run_phase"]



def test_wrong_or_raising_calls_count_as_failed():
    base = TINY["graph-suite"]
    wrong = workloads.Workload(base.make_inputs, base.calls,
                               lambda G: [-1, oracle.apsp_bfs(G)])
    _, attempted, failed, note = run.benchmark(wrong, 1, 0, traced=False)
    assert (attempted, failed, note["fail_ratio"]) == (4, 2, 0.5)

    def raising_calls(G):
        count, paths = base.calls(G)
        return [count, workloads.Call(lambda: 1 / 0, paths.view)]

    raising = workloads.Workload(base.make_inputs, raising_calls, base.references)
    _, attempted, failed, note = run.benchmark(raising, 1, 0, traced=False)
    assert (attempted, failed) == (4, 2)
    assert note["fingerprints"][1] is None
