import csv
import random

import pytest

from cliquemul import cli, oracle
from cliquemul.cli import (
    BenchConfig,
    generate_graph,
    generate_matrix,
    run_bench,
    run_partition_suite,
)
from cliquemul.graphs import Graph
from cliquemul.semiring import semiring_by_name
from cliquemul.sparse import save_matrix_market

COUNT = semiring_by_name("count")


# -- generators -------------------------------------------------------------

def test_generate_matrix_exact_and_deterministic():
    A = generate_matrix(6, 14, seed=3, semiring=COUNT)
    B = generate_matrix(6, 14, seed=3, semiring=COUNT)
    C = generate_matrix(6, 14, seed=4, semiring=COUNT)
    assert A.nz() == 14
    assert A == B
    assert A != C
    assert generate_matrix(4, 0, 0, COUNT).nz() == 0
    with pytest.raises(ValueError):
        generate_matrix(4, 17, 0, COUNT)


def test_generate_matrix_value_domains():
    for name, check in (("bool", lambda v: v is True),
                        ("count", lambda v: 1 <= v <= 9),
                        ("minplus", lambda v: isinstance(v, float))):
        M = generate_matrix(5, 10, 1, semiring_by_name(name))
        assert all(check(v) for _, _, v in M.entries())


def test_generate_graph():
    G = generate_graph(8, 10, seed=0)
    assert G.m == 20 and G.is_symmetric()
    D = generate_graph(8, 10, seed=0, directed=True)
    assert D.m == 10
    assert generate_graph(8, 10, seed=0) == generate_graph(8, 10, seed=0)
    with pytest.raises(ValueError):
        generate_graph(4, 7, 0)          # > C(4,2)
    with pytest.raises(ValueError):
        generate_graph(4, 13, 0, directed=True)


def listed_draw(n, m, seed, directed):
    """The draw from the full list of pairs, which ``generate_graph`` unranks."""
    rng = random.Random(seed)
    if directed:
        return Graph(n, rng.sample([(u, v) for u in range(n) for v in range(n) if u != v], m))
    return Graph.undirected(n, rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m))


# ``random.sample`` draws k of N by a set of picks when N is large against
# k and by shuffling a pool otherwise; both read the population only by
# ``len`` and index.  The first rows take the set branch, the "near all"
# rows the pool branch; then the graphs of the golden ledgers, criterion 7
# and the benchmark's triangle and graph-suite instances.
DRAWS = [(64, 10, 3), (200, 40, 11), (1, 0, 0), (2, 1, 5),
         (16, 110, 2), (16, 120, 9), (27, 340, 4), (23, 250, 8),
         (27, 120, 5), (64, 400, 6), (65, 400, 7), (16, 30, 0), (16, 30, 1),
         (512, 16000, 100), (128, 1536, 1000)]


@pytest.mark.parametrize("n, m, seed", DRAWS)
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_generate_graph_unranks_the_listed_draw(n, m, seed, directed):
    assert generate_graph(n, m, seed, directed) == listed_draw(n, m, seed, directed)


# -- bench ------------------------------------------------------------------

def test_bench_config_validation(tmp_path):
    ok = BenchConfig("smm", [4], densities=[0.5], out=tmp_path / "b.csv")
    ok.validate()
    with pytest.raises(ValueError):
        BenchConfig("smm", [4]).validate()
    with pytest.raises(ValueError):
        BenchConfig("smm", [4], densities=[0.5], edges=[2]).validate()
    with pytest.raises(ValueError):
        BenchConfig("smm", [4], densities=[1.5]).validate()
    with pytest.raises(ValueError):
        BenchConfig("nope", [4], densities=[0.5]).validate()
    with pytest.raises(ValueError):
        BenchConfig("triangles", [0], edges=[5]).validate()
    # A non-cube size is valid: the run is on its own n nodes.
    BenchConfig("triangles", [10], edges=[5]).validate()


def test_bench_targets_rounding():
    cfg = BenchConfig("smm", [4], densities=[0.5, 1.0])
    assert cfg.targets_for(4) == [8, 16]
    tri = BenchConfig("triangles", [8], densities=[0.25])
    assert tri.targets_for(8) == [7]
    assert BenchConfig("smm", [4], edges=[3]).targets_for(4) == [3]


def test_run_bench_smm(tmp_path):
    out = tmp_path / "b.csv"
    rows = run_bench(BenchConfig("smm", [4, 8], densities=[0.5], seed=9, out=out))
    assert len(rows) == 2
    with open(out) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames[:7] == [
            "n", "m", "nz_lhs", "nz_rhs", "a", "b", "rounds_total"]
        assert reader.fieldnames[-2:] == ["bound_value", "ratio"]
        got = list(reader)
    assert [r["n"] for r in got] == ["4", "8"]
    assert all(float(r["ratio"]) > 0 for r in got)
    # per-phase columns account for the whole run
    for r in got:
        parts = sum(int(v) for k, v in r.items() if k.startswith("rounds_")
                    and k != "rounds_total")
        assert parts == int(r["rounds_total"])


def test_run_bench_triangles(tmp_path):
    out = tmp_path / "t.csv"
    rows = run_bench(BenchConfig("triangles", [8], edges=[9], seed=1, out=out))
    assert len(rows) == 1
    assert rows[0]["n"] == 8 and rows[0]["m"] == 18
    parts = sum(v for k, v in rows[0].items()
                if k.startswith("rounds_") and k != "rounds_total")
    assert parts == rows[0]["rounds_total"]


def test_run_bench_triangles_non_cube_runs_on_its_own_nodes(tmp_path):
    rows = run_bench(BenchConfig("triangles", [10], edges=[12], seed=1,
                                 out=tmp_path / "t.csv"))
    # n is the graph's size and the clique the run was charged on
    assert [(r["n"], r["m"]) for r in rows] == [(10, 24)]
    assert "nodes" not in rows[0]


def test_run_bench_empty_sizes_writes_header(tmp_path):
    out = tmp_path / "e.csv"
    assert run_bench(BenchConfig("smm", [], densities=[0.5], out=out)) == []
    assert out.read_text().startswith("n,m,nz_lhs")


def test_run_partition_suite_clean():
    checked, failures = run_partition_suite(seed=5)
    assert failures == []
    assert checked > 1000


# -- subcommands ------------------------------------------------------------

def write_matrix(path, n, nz, seed):
    M = generate_matrix(n, nz, seed, COUNT)
    save_matrix_market(M, path)
    return M


def test_multiply_command(tmp_path, capsys):
    lhs, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(lhs, 6, 12, 0)
    write_matrix(rhs, 6, 12, 1)
    out = tmp_path / "p.mtx"
    rc = cli.main(["multiply", "--lhs", str(lhs), "--rhs", str(rhs),
                   "--semiring", "count",
                   "--out", str(out), "--verify"])
    assert rc == 0
    assert out.exists()
    assert "verify: ok" in capsys.readouterr().out


def test_multiply_prime_size_verifies(tmp_path, capsys):
    # 13 nodes: a split (a, b) with ab not dividing n has uneven bands
    # and groups.
    lhs, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(lhs, 13, 60, 0)
    write_matrix(rhs, 13, 60, 1)
    rc = cli.main(["multiply", "--lhs", str(lhs), "--rhs", str(rhs),
                   "--semiring", "count", "--out", str(tmp_path / "p.mtx"), "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verify: ok" in out
    assert "split=(3,4)" in out      # ab = 12 does not divide 13


def test_multiply_has_no_pad_option(tmp_path, capsys):
    lhs, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(lhs, 5, 6, 0)
    write_matrix(rhs, 5, 6, 1)
    with pytest.raises(SystemExit) as exc:
        cli.main(["multiply", "--lhs", str(lhs), "--rhs", str(rhs),
                  "--semiring", "count", "--pad", "pow2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --pad" in capsys.readouterr().err


def test_multiply_minplus_inf_is_an_omitted_entry(tmp_path, capsys):
    header = "%%MatrixMarket matrix coordinate real general\n"
    lhs, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    lhs.write_text(header + "2 2 3\n1 1 inf\n1 2 1\n2 1 2\n")
    rhs.write_text(header + "2 2 2\n1 1 0\n2 2 inf\n")
    out = tmp_path / "p.mtx"
    rc = cli.main(["multiply", "--lhs", str(lhs), "--rhs", str(rhs),
                   "--semiring", "minplus", "--out", str(out), "--verify"])
    assert rc == 0
    assert "nz_lhs=2 nz_rhs=1" in capsys.readouterr().out
    assert out.read_text().splitlines()[1:] == ["2 2 1", "2 1 2"]


def test_multiply_verify_mismatch(tmp_path, monkeypatch, capsys):
    lhs, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(lhs, 4, 6, 0)
    write_matrix(rhs, 4, 6, 1)
    wrong = generate_matrix(4, 3, 9, COUNT)
    monkeypatch.setattr(cli.oracle, "dense_multiply", lambda S, T: wrong)
    rc = cli.main(["multiply", "--lhs", str(lhs), "--rhs", str(rhs),
                   "--semiring", "count", "--out", str(tmp_path / "p.mtx"),
                   "--verify"])
    assert rc == 1
    assert "MISMATCH" in capsys.readouterr().err


def test_multiply_size_mismatch(tmp_path):
    lhs, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(lhs, 4, 6, 0)
    write_matrix(rhs, 5, 6, 1)
    rc = cli.main(["multiply", "--lhs", str(lhs), "--rhs", str(rhs),
                   "--semiring", "count", "--out", str(tmp_path / "p.mtx")])
    assert rc == 2


def test_triangles_command(edge_list, tmp_path, capsys):
    g = edge_list(generate_graph(8, 14, 2))
    out = tmp_path / "tris.txt"
    rc = cli.main(["triangles", "--graph", str(g), "--out", str(out), "--verify"])
    assert rc == 0
    assert "verify: ok" in capsys.readouterr().out
    for line in out.read_text().splitlines():
        u, v, w = map(int, line.split())
        assert u < v < w                  # undirected canonical ordering


def test_triangles_non_cube(edge_list, capsys):
    # A non-cube graph runs on its own n nodes; there is no flag.
    g = edge_list(generate_graph(10, 12, 0))
    rc = cli.main(["triangles", "--graph", str(g), "--verify"])
    assert rc == 0
    assert "verify: ok" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["triangles", "--graph", str(g), "--pad-cube"])
    assert exc.value.code == 2


def test_triangles_directed_command(edge_list, tmp_path, capsys):
    # A directed 3-cycle and a transitive triple; an arc's reverse is absent.
    D = Graph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)])
    g = edge_list(D, directed=True)
    out = tmp_path / "tris.txt"
    rc = cli.main(["triangles", "--graph", str(g), "--directed", "--out", str(out),
                   "--verify"])
    assert rc == 0
    assert "verify: ok" in capsys.readouterr().out
    listed = [tuple(map(int, line.split())) for line in out.read_text().splitlines()]
    assert listed == sorted(oracle.enumerate_triangles(D)) != []


@pytest.mark.parametrize("command, oracle_name, wrong", [
    ("triangles", "enumerate_triangles", lambda G: [(0, 1, 2)]),
    ("four-cycles", "enumerate_4_cycles", lambda G: 7),
    ("apsp", "apsp_bfs", lambda G: [[0] * G.n for _ in range(G.n)]),
])
def test_graph_command_verify_mismatch(edge_list, tmp_path, monkeypatch, capsys,
                                       command, oracle_name, wrong):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))      # apsp writes its distances
    g = edge_list(Graph.undirected(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    monkeypatch.setattr(cli.oracle, oracle_name, wrong)
    assert cli.main([command, "--graph", str(g), "--verify"]) == 1
    assert "verify: MISMATCH" in capsys.readouterr().err


def test_four_cycles_command(edge_list, capsys):
    g = edge_list(Graph.undirected(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    rc = cli.main(["four-cycles", "--graph", str(g), "--verify"])
    assert rc == 0
    assert "count=1" in capsys.readouterr().out


def test_apsp_command(edge_list, tmp_path, capsys):
    g = edge_list(Graph.undirected(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    out = tmp_path / "d.mtx"
    rc = cli.main(["apsp", "--graph", str(g), "--out", str(out), "--verify"])
    assert rc == 0
    assert out.exists()
    assert "diameter=4" in capsys.readouterr().out


def test_apsp_disconnected(edge_list, capsys):
    g = edge_list(Graph.undirected(4, [(0, 1), (2, 3)]))
    rc = cli.main(["apsp", "--graph", str(g)])
    assert rc == 2
    assert "disconnected" in capsys.readouterr().err


@pytest.mark.parametrize("command, content, flag", [
    ("triangles", "0 1\n1 1\n", "--graph"),       # self-loop
    ("apsp", "0 1\n1 1\n", "--graph"),
    ("four-cycles", "0 1\n0 1 2\n", "--graph"),   # three tokens
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 "2 2 1\n3 1 5\n", "--lhs"),      # row out of range
    ("multiply", None, "--lhs"),                  # missing file
    ("triangles", "0 1\nx y\n", "--graph"),       # non-numeric endpoints
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 "2 2 1\n1 1 abc\n", "--lhs"),    # non-numeric value
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 "2 two 1\n", "--lhs"),           # non-numeric size
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 "0 0 0\n", "--lhs"),             # empty matrix
    ("apsp", "0 1\n1 \u00e9\n", "--graph"),       # not ASCII
    ("triangles", f"0 1\n1 {2**31 - 1}\n", "--graph"),   # 2**31 vertices
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 f"{2**31} {2**31} 1\n1 1 5\n", "--lhs"),  # size 2**31
    ("multiply", "%%MatrixMarket matrix coordinate complex general\n"
                 "2 2 1\n1 1 5 0\n", "--lhs"),  # complex field
    ("multiply", "%%MatrixMarket matrix coordinate integer skew-symmetric\n"
                 "2 2 1\n2 1 5\n", "--lhs"),    # skew-symmetric
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 "% a comment, then nothing\n", "--lhs"),  # no size line
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 "2 2\n1 1 5\n", "--lhs"),      # two-token size line
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 "2 2 2\n1 1 5\n", "--lhs"),    # fewer entries than promised
    ("multiply", "%%MatrixMarket matrix coordinate integer general\n"
                 "2 2 1\n1 1\n", "--lhs"),      # two-token entry
], ids=["self-loop-triangles", "self-loop-apsp", "three-tokens-four-cycles",
        "mtx-out-of-range", "missing-file", "edge-list-non-numeric",
        "mtx-value-non-numeric", "mtx-size-non-numeric", "mtx-size-zero",
        "edge-list-non-ascii", "edge-list-oversize", "mtx-size-oversize",
        "mtx-field-complex", "mtx-symmetry-skew", "mtx-no-size-line",
        "mtx-size-two-tokens", "mtx-too-few-entries", "mtx-entry-two-tokens"])
def test_bad_input_exits_2_without_traceback(tmp_path, capsys, command, content,
                                             flag):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    argv = [command, flag, str(path)]
    if command == "multiply":
        write_matrix(tmp_path / "b.mtx", 2, 2, 0)
        argv += ["--rhs", str(tmp_path / "b.mtx"), "--semiring", "count",
                 "--out", str(tmp_path / "p.mtx")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("no room for 8 GiB")],
                         ids=["bare", "with-message"])
def test_out_of_memory_exits_2_with_one_line(edge_list, monkeypatch, capsys, error):
    g = edge_list(Graph.undirected(3, [(0, 1), (1, 2)]))

    def list_triangles(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "list_triangles", list_triangles)
    assert cli.main(["triangles", "--graph", str(g)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert str(error) in err


@pytest.mark.parametrize("argv", [
    ["multiply", "--lhs", "a.mtx", "--rhs", "b.mtx", "--semiring", "count"],
    ["triangles", "--graph", "g.txt"],
    ["four-cycles", "--graph", "g.txt"],
    ["apsp", "--graph", "g.txt"],
], ids=["multiply", "triangles", "four-cycles", "apsp"])
def test_seed_rejected_where_nothing_is_random(argv, capsys):
    # These commands run no randomized step, so a seed would be ignored.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_bench_command_bad_sizes(tmp_path, capsys):
    rc = cli.main(["bench", "--suite", "triangles", "--sizes", "0",
                   "--edges", "5", "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "sizes must be positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--suite", "triangles", "--sizes", "10",
                  "--edges", "5", "--pad", "cube"])
    assert exc.value.code == 2


def test_bench_command(tmp_path, capsys):
    out = tmp_path / "b.csv"
    rc = cli.main(["bench", "--suite", "smm", "--sizes", "4", "--densities", "0.5",
                   "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"bench: suite=smm rows=1 -> {out}\n"
    assert out.read_text().startswith("n,m,nz_lhs")


def test_verify_partitions_command(monkeypatch, capsys):
    assert cli.main(["verify-partitions", "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("verify-partitions: ok (")
    monkeypatch.setattr(cli, "run_partition_suite",
                        lambda seed: (5, ["size [1] k=1: bad", "sum [2] k=1: bad"]))
    assert cli.main(["verify-partitions"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["FAIL size [1] k=1: bad", "FAIL sum [2] k=1: bad",
                   "verify-partitions: 2 failures / 5 checks"]


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    lhs, rhs = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix(lhs, 4, 6, 0)
    write_matrix(rhs, 4, 6, 1)
    rc = cli.main(["multiply", "--lhs", str(lhs), "--rhs", str(rhs),
                   "--semiring", "count"])
    assert rc == 0
    assert (tmp_path / "a.product.mtx").exists()


def test_ledger_option(edge_list, tmp_path):
    # the loader infers n = 8 (a cube) from the highest endpoint, 7
    g = edge_list(Graph.undirected(8, [(i, (i + 1) % 8) for i in range(8)]))
    ledger = tmp_path / "rounds.csv"
    rc = cli.main(["triangles", "--graph", str(g), "--ledger", str(ledger),
                   "--out", str(tmp_path / "t.txt")])
    assert rc == 0
    header = ledger.read_text().splitlines()[0]
    assert header == "phase,rounds,max_send,max_recv,total_msgs"
