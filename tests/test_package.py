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
from thorntrees.partition import SetPartition, Value
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
    assert not loaded & (HEAVY | {"json"})


def test_csv_tables_load_no_json():
    assert "json" not in loaded_by("table", "A", "5", "--oracle")
    assert "json" in loaded_by("table", "A", "5", "--oracle",
                               "--format", "json")


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


@pytest.mark.parametrize("argv", [
    ("table", "B", "5"),
    ("table", "Bprime", "5"),
    ("verify", "zagier", "5"),
])
def test_solver_commands_load_no_fractions(argv):
    loaded = loaded_by(*argv)
    assert "thorntrees.counting" in loaded
    assert not loaded & HEAVY


def test_verify_identities_loads_no_fractions():
    # every verifier input has an integral p-expansion, so no coefficient
    # of a passing run becomes a Fraction
    loaded = loaded_by("verify", "identities", "8")
    assert "thorntrees.symfun" in loaded
    assert not loaded & HEAVY


def test_verify_identities_loads_no_tree_layer():
    loaded = loaded_by("verify", "identities", "3")
    assert {"thorntrees.symfun", "thorntrees.counting"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "thorntrees.structures",
                         "thorntrees.bijection", "thorntrees.perm",
                         "thorntrees.dot"}


def test_every_public_name_resolves():
    names = thorntrees.__all__
    assert len(names) == len(set(names)) == 57  # the eager exports
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
        assert not hasattr(v, "__dict__"), type(v).__name__
        for name in v._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(v, name, None)
        with pytest.raises(AttributeError):
            delattr(v, v._fields[0])


MODULES = sorted(path.stem for path in (ROOT / "src" / "thorntrees").glob("*.py")
                 if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first(module):
    # a fresh process per module, so a module-level import cycle that only
    # one import order trips shows up here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import thorntrees." + module],
                   cwd=ROOT, env=env, check=True)


def test_value_equality_needs_the_same_class():
    assert Classification("image") == Classification("image")
    assert Classification("cycle", (1,)) != Classification("cycle", (2,))
    assert InverseOutcome(False, step=1) != Classification(False)
    assert CountTable(1, "A", {}) != CountTable(1, "A", {}, "oracle")
    assert AuxGraph(2, 0, {1: 0}) != AuxGraph(2, 0, {1: 1})
    assert SetPartition(2, [[2], [1]]) == SetPartition(2, [[1], [2]])
    assert Permutation([2, 1]) != SetPartition(2, [[1, 2]])


def test_trusted_takes_exactly_the_fields():
    from thorntrees.partition import _trusted

    assert _trusted(Classification, kind="image", cycle=None) == \
        Classification("image")
    with pytest.raises(TypeError, match="takes the fields kind, cycle"):
        _trusted(Classification, kind="image")
    with pytest.raises(TypeError, match="takes the fields kind, cycle"):
        _trusted(Classification, kind="image", cycle=None, extra=1)


def test_value_init_stores_one_value_per_field():
    from thorntrees.partition import Value

    class Pair(Value):
        __slots__ = _fields = ("a", "b")

    pair = Pair(1, 2)
    assert (pair.a, pair.b) == (1, 2) and pair == Pair(1, 2)
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):  # zip(strict=True)
            Pair(*values)


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


class _One(Value):  # module-level, so pickle finds it
    __slots__ = _fields = ("a",)


def test_one_field_value_copies_and_pickles():
    for value in (5, (1, 2), None):
        one = _One(value)
        assert one._key == (value,)
        for twin in (copy.copy(one), copy.deepcopy(one),
                     pickle.loads(pickle.dumps(one))):
            assert type(twin) is _One and twin.a == value
            assert twin == one and hash(twin) == hash(one)
    assert _One(5) != _One(6) and _One((1, 2)) != _One(1)
