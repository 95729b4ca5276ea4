"""The package surface: lazily resolved public names, the modules each
command loads, and the shared immutable value base."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import thorntrees
from thorntrees.bijection import (
    AuxGraph,
    Classification,
    InverseOutcome,
    aux_graph,
    classify,
    psi,
    psi_inverse,
    psi_label,
)
from thorntrees.counting import CountTable, solve_B
from thorntrees.partition import SetPartition
from thorntrees.perm import Permutation
from thorntrees.structures import (
    BlackPartitionedStarMap,
    LabeledThornTree,
    PermutedThornTree,
    StarThornTree,
    deserialize,
)
from thorntrees.symfun import SymPoly, elementary_in_p

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Prints, as the last stderr line, the modules that appeared in sys.modules
# after a snapshot taken before anything is imported, so the modules that
# the interpreter's start-up (site, .pth files) loads do not count.  With
# arguments it runs the CLI on them, without it it only builds the parser.
LOADED = """
import sys
before = set(sys.modules)
from thorntrees.cli import build_parser, main
if sys.argv[1:]:
    main(sys.argv[1:])
else:
    build_parser()
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
"""

HEAVY = {"dataclasses", "inspect", "fractions"}


def loaded_by(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    return set(done.stderr.splitlines()[-1].split())


def package_modules(loaded):
    return {m for m in loaded if m.split(".")[0] == "thorntrees"}


def test_building_the_parser_loads_three_modules():
    loaded = loaded_by()
    assert package_modules(loaded) == {
        "thorntrees", "thorntrees.cli", "thorntrees.oracle",
        "thorntrees.partition"}
    assert not loaded & HEAVY


@pytest.mark.parametrize("argv", [
    ("transform", "classify", "fixtures/example21.json"),  # refused: a map
    ("transform", "classify", "fixtures/ex1.json"),
    ("transform", "psi", "fixtures/example21.json"),
    ("export-dot", "--aux", "fixtures/ex1.json"),
])
def test_transform_and_export_dot_load_no_counting_layer(argv):
    loaded = loaded_by(*argv)
    assert "thorntrees.structures" in loaded
    assert not loaded & (HEAVY | {"thorntrees.counting", "thorntrees.symfun"})


def test_verify_identities_loads_no_tree_layer():
    loaded = loaded_by("verify", "identities", "3")
    assert {"thorntrees.symfun", "thorntrees.counting"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "thorntrees.structures",
                         "thorntrees.bijection", "thorntrees.perm",
                         "thorntrees.dot"}


def test_every_public_name_resolves():
    names = thorntrees.__all__
    assert len(names) == len(set(names)) == 56  # the eager exports
    for name in names:
        value = getattr(thorntrees, name)
        module = sys.modules[value.__module__]
        assert getattr(module, name) is value
    star = {}
    exec("from thorntrees import *", star)
    assert set(names) <= set(star)
    assert set(names) <= set(dir(thorntrees))
    assert thorntrees.counting is sys.modules["thorntrees.counting"]
    with pytest.raises(AttributeError):
        thorntrees.no_such_name


def _values():
    """One instance of each value class, built through its constructor."""
    m = deserialize((ROOT / "fixtures" / "example21.json").read_text())
    t = psi(m)
    return [m.beta, m.pi, m, t, t.tree, psi_label(m), psi_inverse(t),
            aux_graph(t), classify(t), solve_B(3), elementary_in_p(2)]


def test_value_classes_equality_hash_and_immutability():
    for v in _values():
        twin = copy.deepcopy(v)
        assert twin is not v and twin == v and not twin != v
        assert pickle.loads(pickle.dumps(v)) == v
        if type(v) not in (CountTable, AuxGraph, SymPoly):  # they hold dicts
            assert hash(twin) == hash(v)
        for name in v._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, v._fields[0])


def test_value_equality_needs_the_same_class():
    assert Classification("image") == Classification("image")
    assert Classification("cycle", (1,)) != Classification("cycle", (2,))
    assert InverseOutcome(False, step=1) != Classification(False)
    assert CountTable(1, "A", {}) != CountTable(1, "A", {}, "oracle")
    assert AuxGraph(2, 0, {1: 0}) != AuxGraph(2, 0, {1: 1})
    assert SetPartition(2, [[2], [1]]) == SetPartition(2, [[1], [2]])
    assert Permutation([2, 1]) != SetPartition(2, [[1, 2]])


def test_value_reprs():
    tree = StarThornTree((0, None), (1,))
    t = PermutedThornTree(tree, ((1, (0, 0)),))
    assert repr(tree) == "StarThornTree(white=(0, None), blacks=(1,))"
    assert repr(t) == ("PermutedThornTree(tree=StarThornTree(white=(0, None),"
                       " blacks=(1,)), sigma=((1, (0, 0)),))")
    assert repr(Classification("image")) == \
        "Classification(kind='image', cycle=None)"
    assert repr(CountTable(1, "A", {})) == \
        "CountTable(n=1, family='A', entries={}, provenance='formula')"
    assert repr(SymPoly(1, "p", {})) == \
        "SymPoly(degree=1, basis='p', coeffs={})"
    assert repr(Permutation([2, 1, 3])) == "Permutation[(3)(1 2)]"
    assert repr(SetPartition(2, [[2], [1]])) == "SetPartition(2, [[1], [2]])"
    m = BlackPartitionedStarMap(Permutation([1]), SetPartition(1, [[1]]))
    assert str(m) == ("BlackPartitionedStarMap(beta=Permutation[(1)], "
                      "pi=SetPartition(1, [[1]]))")
    lt = LabeledThornTree(StarThornTree((0,), (0,)), (1,), ((),))
    assert repr(lt) == ("LabeledThornTree(tree=StarThornTree(white=(0,), "
                        "blacks=(0,)), white_labels=(1,), black_labels=((),))")
