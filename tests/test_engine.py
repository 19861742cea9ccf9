import re
from pathlib import Path

import pytest

import cliquemul
from cliquemul import apsp, count_4_cycles, list_triangles, smm
from cliquemul.engine import CliqueEngine, SimulationError
from cliquemul.graphs import Graph
from cliquemul.semiring import counting_semiring
from cliquemul.sparse import DimensionError


def test_all_to_all_single_word_is_one_round():
    eng = CliqueEngine(8)
    rounds = eng.run_phase(
        "x", lambda v, st, box: [(u, 0, v, 0, 0) for u in range(8) if u != v])
    assert rounds == 1
    rec = eng.ledger.records[-1]
    assert rec.max_send == 7 and rec.max_recv == 7 and rec.total_msgs == 56


def test_hot_sender_charges_ceiling():
    n = 8
    eng = CliqueEngine(n)
    # node 0 sends 3(n-1) words, spread so receive load stays at 3
    msgs = [(u, 0, i, 0, 0) for i in range(3) for u in range(1, n)]
    rounds = eng.run_phase("x", lambda v, st, box: msgs if v == 0 else [])
    assert rounds == 3
    # the receive side alone: every other node sends node 0 three words
    rounds = eng.run_phase("y", lambda v, st, box: [(0, 0, v, 0, 0)] * 3 if v else [])
    assert rounds == 3
    assert (eng.ledger.records[-1].max_send, eng.ledger.records[-1].max_recv) == (3, 21)


def test_empty_phase_is_free():
    eng = CliqueEngine(4)
    assert eng.run_phase("quiet", lambda v, st, box: []) == 0
    assert eng.ledger.records[-1].rounds == 0


def test_self_messages_are_free_and_delivered():
    eng = CliqueEngine(4)
    rounds = eng.run_phase("self", lambda v, st, box: [(v, 9, v, 0, 42)])
    assert rounds == 0
    assert all(box == [(v, 9, v, 0, 42)] for v, box in enumerate(eng.inboxes))


def test_broadcast_waves():
    eng = CliqueEngine(5)
    eng.run_broadcast("w1", lambda v, st: (0, v, 0, 0))
    assert eng.ledger.records[-1].rounds == 1
    assert all(len(box) == 4 for box in eng.inboxes)
    eng.run_broadcast("w2", lambda v, st: (0, v, 0, 0))
    assert eng.ledger.records[-1].rounds == 1
    assert sum(r.rounds for r in eng.ledger.records) == 2


def test_mailbox_order_is_sender_then_emission():
    eng = CliqueEngine(4)
    eng.run_phase("seed", lambda v, st, box:
                  [(3, 0, v, k, 0) for k in range(2)] if v in (2, 1) else [])
    assert [(w[0], w[3]) for w in eng.inboxes[3]] == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_bad_destination_raises():
    eng = CliqueEngine(3)
    with pytest.raises(SimulationError):
        eng.run_phase("bad", lambda v, st, box: [(7, 0, 0, 0, 0)])
    # -1 would index the last mailbox if the engine did not check it.
    with pytest.raises(SimulationError, match="node 0 addressed nonexistent node -1"):
        eng.run_phase("negative", lambda v, st, box: [(-1, 0, 0, 0, 0)])
    # A bad message after good ones from the same node, on a later node.
    good = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0)]
    with pytest.raises(SimulationError, match="node 2 addressed nonexistent node -2"):
        eng.run_phase("late", lambda v, st, box:
                      good + [(-2, 0, 0, 0, 0)] if v == 2 else good)
    with pytest.raises(SimulationError, match="node 1 addressed nonexistent node 3"):
        eng.run_phase("over", lambda v, st, box:
                      good + [(3, 0, 0, 0, 0)] if v == 1 else [])
    assert eng.ledger.records == []


def test_ledger_csv_and_prefixes():
    eng = CliqueEngine(4)
    eng.run_phase("a.one", lambda v, st, box: [((v + 1) % 4, 0, 0, 0, 0)])
    eng.run_phase("a.two", lambda v, st, box: [])
    eng.run_phase("b.one", lambda v, st, box: [((v + 1) % 4, 0, 0, 0, 0)])
    csv = eng.ledger.to_csv()
    assert csv.splitlines()[0] == "phase,rounds,max_send,max_recv,total_msgs"
    assert len(csv.splitlines()) == 4
    assert [(r.label, r.rounds) for r in eng.ledger.records] == [
        ("a.one", 1), ("a.two", 0), ("b.one", 1)]


def test_determinism_of_ledger():
    def run():
        eng = CliqueEngine(6)
        for k in range(3):
            eng.run_phase(f"p{k}", lambda v, st, box:
                          [((v + k + 1) % 6, k, v, 0, 0)])
        return eng.ledger.to_csv()

    assert run() == run() == run()


def test_single_node_clique():
    eng = CliqueEngine(1)
    assert eng.run_phase("solo", lambda v, st, box: [(0, 0, 0, 0, 0)]) == 0
    assert eng.inboxes[0] == [(0, 0, 0, 0, 0)]


def test_only_the_engine_reads_mailboxes():
    # A driver that peeks at the mailboxes learns what no phase charged;
    # protocol code reads its mailbox only inside a handler.
    package = Path(cliquemul.__file__).parent
    peeking = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "engine.py"
               and re.search(r"\.inboxes\b", path.read_text(encoding="utf-8"))]
    assert peeking == []


def test_only_the_engine_builds_engines():
    # Entry points size their engines through engine.engine_for; any
    # other construction would be a second copy of the size rule.
    package = Path(cliquemul.__file__).parent
    building = [path.name for path in sorted(package.glob("*.py"))
                if path.name != "engine.py"
                and re.search(r"\bCliqueEngine\(", path.read_text(encoding="utf-8"))]
    assert building == []


K5 = Graph.undirected(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
A5 = K5.to_adjacency(counting_semiring())


@pytest.mark.parametrize("run", [
    lambda eng: smm(A5, A5, eng),
    lambda eng: list_triangles(K5, eng),        # runs padded to 8 nodes
    lambda eng: count_4_cycles(K5, eng),
    lambda eng: apsp(K5, eng),
], ids=["smm", "list_triangles", "count_4_cycles", "apsp"])
@pytest.mark.parametrize("size", [4, 6, 9])
def test_wrong_engine_size_raises_before_any_phase(run, size):
    eng = CliqueEngine(size)
    with pytest.raises(DimensionError, match=f"engine has {size} nodes"):
        run(eng)
    assert eng.ledger.records == []
