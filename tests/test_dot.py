import hashlib
import pathlib

import pytest

from thorntrees.bijection import aux_graph, psi
from thorntrees.dot import to_dot
from thorntrees.partition import partitions_of
from thorntrees.structures import all_star_maps, deserialize

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name):
    return deserialize((FIXTURES / name).read_text())


def test_dot_outputs_are_deterministic():
    for name in ("ex1.json", "selfloop4.json", "example21.json"):
        obj = fixture(name)
        assert to_dot(obj) == to_dot(obj)


def test_dot_mentions_every_vertex():
    t = fixture("ex1.json")
    text = to_dot(t)
    for b in range(t.tree.p):
        assert ("b%d" % b) in text


def test_aux_graph_dot():
    t = psi(fixture("example21.json"))
    text = to_dot(aux_graph(t))
    assert text.startswith("digraph")
    g = aux_graph(t)
    assert text.count("->") == len(g.out)


# sha256 over the sorted DOT texts of every star map of size n, as drawn
# when map_to_dot still filtered beta's cycles once per block.
MAP_DOT_SHA256 = {
    1: "64013c41129285434e883373b22d69cdb2ebc5842ce5a04cf6c8752fc4dd9bc1",
    2: "a1ad2bbcdc987d1e39951d8c71951ec6c271f220f5bfe965a4c695502df5344f",
    3: "4dee7c1c24c10f0ead3289545bf433b68f78b0e26e7e2e435c15e8c68a2846c8",
    4: "f589284f80f5c49809080b97f2694c4a57106d9dd38e05c5785c6978620a0f7d",
    5: "6196f01fdbd08431782b5dd325bbbf13a3f878679304beed64de6990d9c481fd",
}


@pytest.mark.parametrize("n", sorted(MAP_DOT_SHA256))
def test_map_dot_pinned(n):
    texts = sorted(to_dot(m) for lam in partitions_of(n)
                   for m in all_star_maps(lam))
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == MAP_DOT_SHA256[n]
