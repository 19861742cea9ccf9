"""Soundness of ``CliqueEngine.derive_per_group``.

The protocols derive a per-group value once, from the first member's
mailbox, on the premise that every member would derive the same value
from its own.  Here the helper derives from every member instead and the
test checks that all of them agree, on the four places that use it:
smm's page assignment, and triangle listing's N-sets, N-id table and path
partitions.
"""

import pytest

from cliquemul.cli import generate_graph, generate_matrix
from cliquemul.engine import CliqueEngine
from cliquemul.semiring import semiring_by_name
from cliquemul.smm import smm
from cliquemul.triangles import list_triangles


@pytest.fixture
def groups_checked(monkeypatch):
    """Derive from every group member; count the groups whose members agree."""
    checked = []

    def derive_from_all(self, groups, derive):
        values = {}
        for key, members in groups.items():
            derived = [derive(key, self.inboxes[v]) for v in members]
            assert all(d == derived[0] for d in derived), (key, members)
            values[key] = derived[0]
            checked.append(len(members))
        return values

    monkeypatch.setattr(CliqueEngine, "derive_per_group", derive_from_all)
    return checked


# Dense enough that the split leaves more than one node per group.
@pytest.mark.parametrize("n, nz, seed",
                         [(8, 40, 1), (12, 100, 2), (16, 256, 3), (32, 600, 4)])
def test_smm_groups_agree(groups_checked, n, nz, seed):
    sr = semiring_by_name("count")
    smm(generate_matrix(n, nz, seed, sr), generate_matrix(n, nz, seed + 1, sr))
    assert groups_checked and max(groups_checked) > 1


@pytest.mark.parametrize("n, m, seed, directed", [
    (27, 150, 1, True), (27, 60, 2, False), (64, 500, 3, True), (64, 300, 4, False)])
def test_triangle_groups_agree(groups_checked, n, m, seed, directed):
    list_triangles(generate_graph(n, m, seed, directed=directed))
    assert groups_checked and max(groups_checked) > 1
    # The N-id table is derived once, by and for all n nodes.
    assert groups_checked.count(n) == 1
