"""Relabelling the nodes relabels the outputs the same way.

The ledger is not invariant under relabelling (``balanced_assignment``
breaks ties by index), but the product and the triangle set are
equivariant, and the relabelled smm run still meets criterion 3's load
lemmas.
"""

from hypothesis import given, settings, strategies as st

from cliquemul.cli import generate_graph, generate_matrix
from cliquemul.graphs import Graph
from cliquemul.oracle import canonical_triangle
from cliquemul.semiring import semiring_by_name
from cliquemul.smm import smm
from cliquemul.sparse import SparseMatrix
from cliquemul.triangles import list_triangles
from test_acceptance import SEMIRINGS, load_failures


def relabelled(M: SparseMatrix, perm: list[int]) -> SparseMatrix:
    return SparseMatrix.from_entries(
        M.n, M.semiring, [(perm[i], perm[j], val) for i, j, val in M.entries()])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_smm_product_relabels_with_its_operands(data):
    n = data.draw(st.sampled_from([4, 8, 12, 16]), "n")
    sr = semiring_by_name(data.draw(st.sampled_from(SEMIRINGS), "semiring"))
    nz = round(data.draw(st.sampled_from([0.05, 0.3, 1.0]), "density") * n * n)
    seed = data.draw(st.integers(0, 10 ** 6), "seed")
    perm = data.draw(st.permutations(range(n)), "perm")
    S, T = generate_matrix(n, nz, seed, sr), generate_matrix(n, nz, seed + 1, sr)
    res = smm(relabelled(S, perm), relabelled(T, perm))
    assert res.product == relabelled(smm(S, T).product, perm)
    failures, _ = load_failures("relabelled", res.records, n, res.split.a, res.split.b,
                                S.nz(), T.nz())
    assert failures == []


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_triangle_set_relabels_with_the_graph(data):
    n = data.draw(st.sampled_from([8, 27]), "n")
    m = data.draw(st.integers(0, 4 * n), "m")
    G = generate_graph(n, m, data.draw(st.integers(0, 10 ** 6), "seed"), directed=True)
    perm = data.draw(st.permutations(range(n)), "perm")
    H = Graph(n, [(perm[u], perm[v]) for u, v in G.edges])
    want = {canonical_triangle(*(perm[x] for x in t)) for t in list_triangles(G).triangles}
    assert list_triangles(H).triangles == want
