import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cliquemul
from cliquemul import apsp, count_4_cycles, list_triangles, smm
from cliquemul.engine import CliqueEngine, SimulationError
from cliquemul.graphs import Graph
from cliquemul.semiring import counting_semiring
from cliquemul.sparse import DimensionError, concat_values, value_column


def messages(inbox):
    """An inbox as ``(src, tag, i1, i2, val)`` tuples of Python values."""
    return list(zip(*(col.tolist() for col in (inbox.src, inbox.tag, inbox.i1, inbox.i2,
                                               inbox.val))))


def batch(msgs):
    """``(dst, tag, i1, i2, val)`` tuples as a handler's batch of columns."""
    return tuple(map(list, zip(*msgs))) if msgs else None


def test_all_to_all_single_word_is_one_round():
    eng = CliqueEngine(8)
    rounds = eng.run_phase(
        "x", lambda v, st, box: batch([(u, 0, v, 0, 0) for u in range(8) if u != v]))
    assert rounds == 1
    rec = eng.ledger.records[-1]
    assert rec.max_send == 7 and rec.max_recv == 7 and rec.total_msgs == 56


def test_hot_sender_charges_ceiling():
    n = 8
    eng = CliqueEngine(n)
    # node 0 sends 3(n-1) words, spread so receive load stays at 3
    msgs = [(u, 0, i, 0, 0) for i in range(3) for u in range(1, n)]
    rounds = eng.run_phase("x", lambda v, st, box: batch(msgs) if v == 0 else None)
    assert rounds == 3
    # the receive side alone: every other node sends node 0 three words
    rounds = eng.run_phase("y", lambda v, st, box: batch([(0, 0, v, 0, 0)] * 3) if v else None)
    assert rounds == 3
    assert (eng.ledger.records[-1].max_send, eng.ledger.records[-1].max_recv) == (3, 21)


def test_empty_phase_is_free():
    eng = CliqueEngine(4)
    assert eng.run_phase("quiet", lambda v, st, box: None) == 0
    assert eng.ledger.records[-1].rounds == 0


def test_self_messages_are_free_and_delivered():
    eng = CliqueEngine(4)
    rounds = eng.run_phase("self", lambda v, st, box: batch([(v, 9, v, 0, 42)]))
    assert rounds == 0
    assert all(messages(eng.inboxes[v]) == [(v, 9, v, 0, 42)] for v in range(4))


def test_broadcast_waves():
    eng = CliqueEngine(5)
    eng.run_broadcast("w1", lambda v, st, box: (0, v, 0, 0))
    assert eng.ledger.records[-1].rounds == 1
    assert all(len(eng.inboxes[v]) == 0 for v in range(5))
    eng.run_broadcast("w2", lambda v, st, box: (0, v, 0, 0))
    assert eng.ledger.records[-1].rounds == 1
    assert sum(r.rounds for r in eng.ledger.records) == 2


def test_broadcast_handler_reads_the_last_phase_mailbox():
    eng = CliqueEngine(4)
    # Node v sends v + 1 words to node v + 1 (mod 4).
    eng.run_phase("load", lambda v, st, box: batch([((v + 1) % 4, 0, v, k, 0)
                                                    for k in range(v + 1)]))
    words = eng.run_broadcast("count", lambda v, st, box: (1, len(box), int(box.src[0]), 0))
    assert words == [(1, 4, 3, 0), (1, 1, 0, 0), (1, 2, 1, 0), (1, 3, 2, 0)]
    assert all(len(eng.inboxes[v]) == 0 for v in range(4))


@st.composite
def broadcasts(draw):
    """n nodes, each broadcasting one word."""
    n = draw(st.integers(1, 7))
    kinds = draw(st.sets(st.sampled_from(["int", "bool", "any"]), min_size=1))
    values = st.one_of(*(
        {"int": st.integers(-2**63, 2**63 - 1), "bool": st.booleans(), "any": VALUES}[k]
        for k in sorted(kinds)))
    word = st.tuples(st.integers(0, 9), st.integers(-2**63, 2**63 - 1),
                     st.integers(-5, 5), values)
    return n, draw(st.lists(word, min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(broadcasts())
@example((1, [(3, 1, 2, 4)]))                            # n = 1: nothing crosses a link
@example((4, [(0, 0, 0, 2**70), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 0, True)]))
def test_broadcast_delivery_matches_reference_model(case):
    n, words = case
    eng = CliqueEngine(n)
    assert eng.run_broadcast("b", lambda v, st, box: words[v]) == words
    # The word vector is the delivery: no mailbox is laid out.
    assert all(len(eng.inboxes[d]) == 0 for d in range(n))
    # Every node sends and hears n - 1 words.
    rec = eng.ledger.records[-1]
    assert (rec.max_send, rec.max_recv, rec.total_msgs) == (n - 1, n - 1, n * (n - 1))
    assert (rec.rounds, rec.peak_send_node, rec.peak_recv_node) == (1 if n > 1 else 0, 0, 0)

    # Reference: each word sent as n - 1 ordinary messages, charged the
    # same, peak nodes included.
    batches = CliqueEngine(n)
    batches.run_phase("b", lambda v, st, box: (np.delete(np.arange(n), v), *words[v]))
    assert batches.ledger.records == eng.ledger.records


def test_broadcast_header_outside_int64_raises():
    eng = CliqueEngine(3)
    with pytest.raises(SimulationError,
                       match="phase 'b': node 1 sent a i1 field outside int64"):
        eng.run_broadcast("b", lambda v, st, box: (0, 2**63 if v == 1 else v, 0, 0))
    assert eng.ledger.records == []


def test_broadcast_without_a_word_raises_naming_the_node():
    eng = CliqueEngine(4)
    with pytest.raises(SimulationError, match="phase 'b': node 2 sent no broadcast word"):
        eng.run_broadcast("b", lambda v, st, box: None if v in (2, 3) else (0, v, 0, 0))
    assert eng.ledger.records == []


def test_mailbox_order_is_sender_then_emission():
    eng = CliqueEngine(4)
    eng.run_phase("seed", lambda v, st, box:
                  batch([(3, 0, v, k, 0) for k in range(2)]) if v in (2, 1) else None)
    assert [(w[0], w[3]) for w in messages(eng.inboxes[3])] == [
        (1, 0), (1, 1), (2, 0), (2, 1)]


def test_bad_destination_raises():
    eng = CliqueEngine(3)
    with pytest.raises(SimulationError):
        eng.run_phase("bad", lambda v, st, box: batch([(7, 0, 0, 0, 0)]))
    # -1 would index the last mailbox if the engine did not check it.
    with pytest.raises(SimulationError, match="node 0 addressed nonexistent node -1"):
        eng.run_phase("negative", lambda v, st, box: batch([(-1, 0, 0, 0, 0)]))
    # A bad message after good ones from the same node, on a later node.
    good = [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (2, 0, 0, 0, 0)]
    with pytest.raises(SimulationError, match="node 2 addressed nonexistent node -2"):
        eng.run_phase("late", lambda v, st, box:
                      batch(good + [(-2, 0, 0, 0, 0)] if v == 2 else good))
    with pytest.raises(SimulationError, match="node 1 addressed nonexistent node 3"):
        eng.run_phase("over", lambda v, st, box:
                      batch(good + [(3, 0, 0, 0, 0)]) if v == 1 else None)
    assert eng.ledger.records == []


def test_ledger_csv_and_prefixes():
    eng = CliqueEngine(4)
    eng.run_phase("a.one", lambda v, st, box: batch([((v + 1) % 4, 0, 0, 0, 0)]))
    eng.run_phase("a.two", lambda v, st, box: None)
    eng.run_phase("b.one", lambda v, st, box: batch([((v + 1) % 4, 0, 0, 0, 0)]))
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
                          batch([((v + k + 1) % 6, k, v, 0, 0)]))
        return eng.ledger.to_csv()

    assert run() == run() == run()


def test_single_node_clique():
    eng = CliqueEngine(1)
    assert eng.run_phase("solo", lambda v, st, box: batch([(0, 0, 0, 0, 0)])) == 0
    assert messages(eng.inboxes[0]) == [(0, 0, 0, 0, 0)]


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("bad", [2**63, -2**63 - 1, 2**64, 2**70])
def test_header_field_outside_int64_raises(field, bad):
    # A word is O(log n) bits: a header past int64 is a protocol error
    # naming the phase and the node, not a numpy overflow.
    name = ("dst", "tag", "i1", "i2")[field]
    good = [0, 0, 0, 0, 0]
    wrong = list(good)
    wrong[field] = bad
    eng = CliqueEngine(3)
    with pytest.raises(SimulationError,
                       match=f"phase 'hdr': node 1 sent a {name} field outside int64"):
        eng.run_phase("hdr", lambda v, st, box: batch([tuple(good), tuple(wrong)])
                      if v == 1 else batch([tuple(good)]))
    # The same value as a single value for the whole batch.
    if field:
        columns = [[0], 0, 0, 0, 0]
        columns[field] = bad
        with pytest.raises(SimulationError, match=f"node 0 sent a {name} field"):
            eng.run_phase("one", lambda v, st, box: tuple(columns))
    assert eng.ledger.records == []


def test_value_column_dtype_rule():
    assert value_column([1, -2, 2**63 - 1]).dtype == np.int64
    assert value_column([True, False]).dtype == np.bool_
    for mixed in ([1, True], [2**63], [1, 2.5], [-2**63 - 1, 0], [1.0]):
        col = value_column(mixed)
        assert col.dtype == object
        assert [type(x) for x in col.tolist()] == [type(x) for x in mixed]
    # numpy would promote int64 with bool to int64 and lose the bools.
    joined = concat_values([value_column([1, 2]), value_column([True])])
    assert joined.dtype == object and joined.tolist() == [1, 2, True]
    assert [type(x) for x in joined.tolist()] == [int, int, bool]


# Values of every kind the rule separates: ints inside and past int64,
# bools and floats (no NaN, which equals nothing).
VALUES = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(2**63, 2**66),
                   st.integers(-2**66, -2**63 - 1), st.booleans(),
                   st.floats(allow_nan=False))


# How a handler may hand over one column of its batch: a list, an array
# of one of these dtypes, or (any column but dst) one value for the batch.
FORMS = ["list", "scalar", np.int8, np.int16, np.int32, np.int64, np.bool_]


def as_column(values: list, form):
    """``values`` in ``form``, or as a list when the form cannot hold them."""
    if form == "scalar":
        if len({(type(x), x) for x in values}) == 1:
            return values[0]
    elif form == np.bool_:
        if set(values) <= {0, 1}:
            return np.array(values, dtype=np.bool_)
    elif form != "list":
        info = np.iinfo(form)
        if all(info.min <= x <= info.max for x in values):
            return np.array(values, dtype=form)
    return values


@st.composite
def phases(draw):
    n = draw(st.integers(1, 6))
    kinds = draw(st.sets(st.sampled_from(["int", "bool", "any"]), min_size=1))
    values = st.one_of(*(
        {"int": st.integers(-2**63, 2**63 - 1), "bool": st.booleans(), "any": VALUES}[k]
        for k in sorted(kinds)))
    # Small header values fit every form; tag 2**40 needs an int64 tag column.
    word = st.tuples(st.integers(0, n - 1), st.integers(0, 9) | st.just(2**40),
                     st.integers(-2**63, 2**63 - 1) | st.integers(-1, 1),
                     st.integers(-5, 5), values)
    sent = draw(st.lists(st.lists(word, max_size=8), min_size=n, max_size=n))
    forms = draw(st.lists(st.tuples(st.sampled_from(FORMS[:1] + FORMS[2:]),
                                    *[st.sampled_from(FORMS)] * 3,
                                    st.sampled_from(["list", "scalar"])),
                          min_size=n, max_size=n))
    return n, sent, forms


@settings(max_examples=200, deadline=None)
@given(phases())
@example((3, [[(1, 2**40, 0, 0, 5)], [(1, 3, 1, 1, 6), (0, 3, 1, 1, 6)], []],
          [("list",) * 5, (np.int8, "scalar", np.bool_, np.int16, "scalar"), ("list",) * 5]))
def test_delivery_matches_reference_model(case):
    n, sent, forms = case

    def handler(v, st, box):
        if not sent[v]:
            return None
        return tuple(as_column(list(col), form) for col, form in zip(zip(*sent[v]), forms[v]))

    eng = CliqueEngine(n)
    rounds = eng.run_phase("p", handler)

    # Reference delivery: sender id ascending, then emission order; self
    # messages delivered and left out of the loads.
    boxes = [[] for _ in range(n)]
    sends, recvs = [0] * n, [0] * n
    for v, msgs in enumerate(sent):
        for dst, tag, i1, i2, val in msgs:
            boxes[dst].append((v, tag, i1, i2, val))
            if dst != v:
                sends[v] += 1
                recvs[dst] += 1
    for v in range(n):
        got = messages(eng.inboxes[v])
        assert got == boxes[v]
        assert [type(m[4]) for m in got] == [type(m[4]) for m in boxes[v]]
    values = [m[4] for box in boxes for m in box]
    kinds = set(map(type, values))
    if values and kinds == {bool}:
        dtype = np.bool_
    elif values and kinds == {int} and all(-2**63 <= x < 2**63 for x in values):
        dtype = np.int64
    else:
        dtype = object
    tags = [m[1] for box in boxes for m in box]
    tag_dtype = np.int16 if all(t < 2**15 for t in tags) else np.int64
    for v in range(n):
        if boxes[v]:
            box = eng.inboxes[v]
            assert (box.src.dtype, box.tag.dtype, box.i1.dtype, box.i2.dtype, box.val.dtype) == (
                np.int16, tag_dtype, np.int64, np.int64, dtype)
    total = sum(sends)
    want = 0 if total == 0 else max(1, math.ceil(max(max(sends), max(recvs)) / (n - 1)))
    rec = eng.ledger.records[-1]
    assert (rec.max_send, rec.max_recv, rec.total_msgs, rec.rounds, rounds) == (
        max(sends), max(recvs), total, want, want)
    assert (rec.peak_send_node, rec.peak_recv_node) == (
        sends.index(max(sends)), recvs.index(max(recvs)))


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("dtype", [np.uint64, np.uint8, object])
def test_unsigned_and_object_headers_raise_naming_the_node(field, dtype):
    # Node 0 sends int64 columns, so a join alone would turn node 1's small
    # unsigned column into a valid int64 one.
    name = ("dst", "tag", "i1", "i2")[field]

    def handler(v, st, box):
        columns = [np.zeros(2, dtype=np.int64) for _ in range(4)] + [0]
        if v == 1:
            columns[field] = np.zeros(2, dtype=dtype)
        return tuple(columns)

    eng = CliqueEngine(3)
    with pytest.raises(SimulationError,
                       match=f"phase 'u': node 1 sent a {name} field outside int64"):
        eng.run_phase("u", handler)
    assert eng.ledger.records == []


def test_value_column_of_another_length_raises_naming_the_node():
    eng = CliqueEngine(3)
    with pytest.raises(SimulationError, match="phase 'v': node 1 sent columns of unequal length"):
        eng.run_phase("v", lambda v, st, box: ([0, 2], 0, 0, 0, [1, 2, 3] if v == 1 else [1, 2]))
    assert eng.ledger.records == []


def test_engine_needs_a_node():
    with pytest.raises(ValueError, match="at least one node"):
        CliqueEngine(0)


@pytest.mark.parametrize("n, src_dtype", [(2**15, np.int16), (2**15 + 1, np.int32)])
def test_source_column_widens_past_int16_node_ids(n, src_dtype):
    last = n - 1
    eng = CliqueEngine(n)
    eng.run_phase("far", lambda v, st, box:
                  ([0, last], 1, v, -v, v) if v in (0, last) else None)
    assert messages(eng.inboxes[0]) == [(0, 1, 0, 0, 0), (last, 1, last, -last, last)]
    assert messages(eng.inboxes[last]) == [(0, 1, 0, 0, 0), (last, 1, last, -last, last)]
    assert eng.inboxes[0].src.dtype == src_dtype
    rec = eng.ledger.records[-1]
    assert (rec.max_send, rec.peak_send_node, rec.peak_recv_node) == (1, 0, 0)


def test_delivery_footprint_is_at_most_28_bytes_per_message():
    # src int16, tag int16, i1 and i2 int64, val int64: no destination column.
    n = 512
    eng = CliqueEngine(n)
    eng.run_phase("all", lambda v, st, box: (np.arange(n), 3, v, np.arange(n), v))
    mail = eng.inboxes
    k = n * n
    assert len(mail) == k
    assert sum(getattr(mail, f).nbytes for f in ("src", "tag", "i1", "i2", "val")) <= 28 * k
    assert not hasattr(mail, "dst")
    assert messages(mail[5])[:2] == [(0, 3, 0, 5, 0), (1, 3, 1, 5, 1)]


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
    lambda eng: list_triangles(K5, eng),
    lambda eng: count_4_cycles(K5, eng),
    lambda eng: apsp(K5, eng),
], ids=["smm", "list_triangles", "count_4_cycles", "apsp"])
@pytest.mark.parametrize("size", [4, 6, 9])
def test_wrong_engine_size_raises_before_any_phase(run, size):
    eng = CliqueEngine(size)
    with pytest.raises(DimensionError, match=f"engine has {size} nodes"):
        run(eng)
    assert eng.ledger.records == []
