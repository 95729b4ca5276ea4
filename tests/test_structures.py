import re
from collections import Counter
from itertools import repeat

import pytest

from thorntrees.counting import count_D, count_ST
from thorntrees.oracle import BudgetExceeded
from thorntrees.partition import (
    Partition,
    SetPartition,
    partitions_of,
    permutations_in,
    set_partitions_of_type,
)
from thorntrees.perm import Permutation, canonical_long_cycle, compose
from thorntrees.structures import (
    BlackPartitionedStarMap,
    LabeledThornTree,
    ParseError,
    PermutedThornTree,
    StarThornTree,
    _star_maps,
    all_permuted_trees,
    all_star_maps,
    all_star_thorn_trees,
    deserialize,
    drop,
    lift,
    serialize,
)


def sample_tree():
    # two blacks: degrees 3 and 2, n = 5
    return StarThornTree((None, 0, None, 1, None), (2, 1))


def sample_permuted():
    return PermutedThornTree(
        sample_tree(), ((0, (0, 1)), (2, (1, 0)), (4, (0, 0))))


def test_tree_basic_properties():
    t = sample_tree()
    assert (t.n, t.p) == (5, 2)
    assert t.type_of() == Partition([3, 2])
    assert t.edge_slot(0) == 1 and t.edge_slot(1) == 3
    assert t.white_thorn_slots() == (0, 2, 4)
    assert t.black_thorn_coords() == ((0, 0), (0, 1), (1, 0))


def test_tree_validation():
    with pytest.raises(ValueError):
        StarThornTree((None, 1, None, 0, None), (2, 1))  # wrong root order
    with pytest.raises(ValueError):
        StarThornTree((None, 0), (2,))  # degree sum mismatch


def test_permuted_validation():
    t = sample_tree()
    with pytest.raises(ValueError):
        PermutedThornTree(t, ((0, (0, 0)), (2, (1, 0)), (3, (0, 1))))
    with pytest.raises(ValueError):
        PermutedThornTree(t, ((0, (0, 0)), (2, (0, 0)), (4, (1, 0))))


def test_map_coarseness_check():
    with pytest.raises(ValueError, match="coarser"):
        BlackPartitionedStarMap(Permutation((2, 1, 3)),  # (1 2)
                                SetPartition(3, [[1, 3], [2]]))
    m = BlackPartitionedStarMap(Permutation((1, 2, 3)),
                                SetPartition(3, [[1, 2], [3]]))
    assert m.is_star  # alpha = (1 2 3)
    assert m.type_of() == Partition([2, 1])


def test_map_split_cycle_message():
    with pytest.raises(ValueError) as exc:
        BlackPartitionedStarMap(Permutation((3, 4, 1, 2)),  # (1 3)(2 4)
                                SetPartition(4, [[1, 2], [3, 4]]))
    assert str(exc.value) == (
        "pi is not coarser than the orbits of beta: cycle [2, 4] is split "
        "across blocks (element 4 outside block [1, 2])")


def test_map_alpha_example():
    beta = Permutation((1, 5, 7, 4, 2, 6, 3))  # (2 5)(3 7)
    pi = SetPartition(7, [[1], [2, 5], [3, 7], [4], [6]])
    m = BlackPartitionedStarMap(beta, pi)
    alpha = compose(canonical_long_cycle(7), m.beta.inverse())
    assert alpha == Permutation((2, 6, 1, 5, 3, 7, 4))  # (1 2 6 7 4 5 3)
    assert m.is_star


def test_labeled_tree_readings():
    tree = StarThornTree((None, None, None, 0), (3,))
    lt = LabeledThornTree(tree, (3, 4, 2, 1), ((4, 3, 2),))
    edge = lt.white_labels[tree.edge_slot(0)]
    assert edge == 1
    # clockwise around the black vertex, its edge last
    assert lt.black_labels[0][::-1] + (edge,) == (2, 3, 4, 1)
    pt = lt.to_permuted()
    assert dict(pt.sigma) == {0: (0, 1), 1: (0, 0), 2: (0, 2)}


def test_labeled_tree_two_blacks():
    tree = StarThornTree((None, 0, None, 1), (1, 1))
    lt = LabeledThornTree(tree, (3, 4, 2, 1), ((2,), (3,)))
    for b, reading in enumerate([(2, 4), (3, 1)]):
        edge = lt.white_labels[tree.edge_slot(b)]
        assert lt.black_labels[b][::-1] + (edge,) == reading


def test_to_permuted_is_valid_by_construction():
    # sigma comes out in white-slot order, so the unvalidated result equals
    # the one the validating constructor builds from the same fields
    tree = StarThornTree((None, 0, None, None, 1), (2, 1))
    lt = LabeledThornTree(tree, (4, 2, 5, 3, 1), ((3, 5), (4,)))
    pt = lt.to_permuted()
    rebuilt = PermutedThornTree(StarThornTree(tree.white, tree.blacks),
                                pt.sigma)
    assert pt == rebuilt and hash(pt) == hash(rebuilt)
    assert pt.sigma == ((0, (1, 0)), (2, (0, 1)), (3, (0, 0)))


def test_labeled_tree_validation():
    tree = StarThornTree((None, 0), (1,))
    with pytest.raises(ValueError, match="label 1"):
        LabeledThornTree(tree, (1, 2), ((1,),))
    with pytest.raises(ValueError, match="black-side"):
        LabeledThornTree(tree, (2, 1), ((1,),))
    LabeledThornTree(tree, (2, 1), ((2,),))
    with pytest.raises(ValueError, match="label 1"):  # no rightmost slot
        LabeledThornTree(StarThornTree((), ()), (), ())


@pytest.mark.parametrize("n", range(1, 8))
def test_all_star_thorn_trees_count(n):
    for mu in partitions_of(n):
        trees = list(all_star_thorn_trees(mu))
        assert len(trees) == len(set(trees)) == count_ST(mu)
        assert all(t.type_of() == mu for t in trees)
        # the enumerator skips validation; every tree must still pass it
        for t in trees:
            rebuilt = StarThornTree(t.white, t.blacks)
            assert rebuilt == t and hash(rebuilt) == hash(t)


@pytest.mark.parametrize("n", range(1, 6))
def test_all_permuted_trees_count(n):
    from math import factorial
    for lam in partitions_of(n):
        trees = list(all_permuted_trees(lam))
        p = len(lam)
        expected = count_ST(lam) * factorial(n - p)
        assert len(trees) == len(set(trees)) == expected
        # the enumerator skips validation; every tree must still pass it
        for t in trees:
            rebuilt = PermutedThornTree(
                StarThornTree(t.tree.white, t.tree.blacks), t.sigma)
            assert rebuilt == t and hash(rebuilt) == hash(t)


@pytest.mark.parametrize("n", range(1, 8))
def test_all_star_maps_are_stars(n):
    # Reference: every couple (pi, beta in S_pi) of type lam, walked from
    # the beta side and kept when its complement is long
    for lam in partitions_of(n):
        maps = list(all_star_maps(lam))
        assert len(maps) == len(set(maps)) == count_D(lam)
        ref = [m for pi in set_partitions_of_type(lam)
               for m in map(BlackPartitionedStarMap, permutations_in(pi),
                            repeat(pi))
               if m.is_star]
        assert Counter(maps) == Counter(ref)
        assert all(m.type_of() == lam for m in maps)
        # the enumerator skips validation; every map must still pass it
        for m in maps:
            rebuilt = BlackPartitionedStarMap(Permutation(m.beta.images),
                                              SetPartition(n, m.pi.blocks))
            assert rebuilt == m and hash(rebuilt) == hash(m)


@pytest.mark.parametrize("n", range(1, 7))
def test_star_maps_group_cycles_as_cycles_by_block(n):
    # the tuple enumerator's blocks of cycles, read off the cycle walk's
    # order, and the white labels its index keeps per beta, against the
    # validated map object's own grouping and Psi's labeled tree
    from thorntrees.bijection import psi_label

    for lam in partitions_of(n):
        for images, blocks, grouped, label_at in _star_maps(lam):
            m = BlackPartitionedStarMap(Permutation(images),
                                        SetPartition(n, blocks))
            assert sorted(grouped) == sorted(m.cycles_by_block())
            assert tuple(label_at) == psi_label(m).white_labels


def test_generation_budget():
    # the default budget is 8, as for every oracle sweep
    with pytest.raises(BudgetExceeded, match="n=9 exceeds budget 8"):
        list(all_permuted_trees(Partition([9])))
    with pytest.raises(BudgetExceeded, match="n=9 exceeds budget 8"):
        list(all_star_maps(Partition([5, 4])))


@pytest.mark.parametrize("n,count", [(1, 2), (2, 18), (3, 156), (4, 1460),
                                     (5, 15030)])
def test_lift_is_a_bijection_onto_marked_trees(n, count):
    # every (tree of size n, white position, black vertex, black position)
    # lifts to a distinct tree of size n + 1 with its new black thorn
    # marked, drop undoes it, and every marked tree is reached
    lifts = []
    for lam in partitions_of(n):
        for t in all_permuted_trees(lam):
            for wp in range(n + 1):
                for b in range(t.tree.p):
                    for bp in range(t.tree.blacks[b] + 1):
                        lifted = lift(t, wp, b, bp)
                        assert drop(lifted, b, bp) == t
                        lifts.append((lifted, b, bp))
    marked = {(t, b, bp) for lam in partitions_of(n + 1)
              for t in all_permuted_trees(lam)
              for b, bp in t.tree.black_thorn_coords()}
    assert len(lifts) == len(marked) == count
    assert set(lifts) == marked


def test_lift_drop_roundtrip():
    t = sample_permuted()
    for wp in range(t.n + 1):
        for b in range(t.tree.p):
            for bp in range(t.tree.blacks[b] + 1):
                lifted = lift(t, wp, b, bp)
                assert lifted.type_of() == t.type_of().up(t.tree.degree(b))
                assert drop(lifted, b, bp) == t


def test_degree_refuses_an_index_outside_0_to_p_minus_1():
    tree = StarThornTree((0, None, 1), (1, 0))
    assert [tree.degree(b) for b in (0, 1)] == [2, 1]
    for b in (-1, 2, 0.0, False, None):
        with pytest.raises(ValueError, match="no black vertex"):
            tree.degree(b)


def test_drop_degree_guard():
    tree = StarThornTree((0, None, 1), (0, 1))
    t = PermutedThornTree(tree, ((1, (1, 0)),))
    with pytest.raises(ValueError, match=re.escape("no black thorn (0, 0)")):
        drop(t, 0, 0)


def test_serialize_roundtrip_and_stability():
    for obj in (sample_tree(), sample_permuted()):
        text = serialize(obj)
        assert deserialize(text) == obj
        assert serialize(deserialize(text)) == text
    beta = Permutation((3, 1, 2, 4, 5))  # (1 3 2)
    m = BlackPartitionedStarMap(beta, SetPartition(5, [[1, 2, 3], [4, 5]]))
    assert deserialize(serialize(m)) == m
    assert " " not in serialize(m)


def test_fixture_files_deserialize():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    for name in ("example21.json", "ex1.json", "selfloop4.json"):
        obj = deserialize((root / name).read_text())
        assert serialize(obj)


def test_parse_errors():
    with pytest.raises(ParseError):
        deserialize("{not json")
    with pytest.raises(ParseError):
        deserialize("[1,2]")
    with pytest.raises(ParseError):
        deserialize('{"foo":1}')
    with pytest.raises(ParseError):
        deserialize('{"n":3,"white":[{"edge":0},{"bogus":1}],'
                    '"blacks":[{"thorns":2}]}')


# each integer field of the public tree constructors, as a function of the
# value to put there, with the value that makes the object valid
def _star_edge(x):
    return StarThornTree((x, None), (1,))


def _star_thorns(x):
    return StarThornTree((0, None), (x,))


def _sigma(i):
    def build(x):
        entry = [1, 0, 0]
        entry[i] = x
        w, b, t = entry
        return PermutedThornTree(StarThornTree((0, None), (1,)),
                                 ((w, (b, t)),))
    return build


def _white_label(x):
    return LabeledThornTree(StarThornTree((0, None), (1,)), (x, 1), ((1,),))


def _black_label(x):
    return LabeledThornTree(StarThornTree((0, None), (1,)), (2, 1), ((x,),))


def _partition_part(x):
    return Partition([2, x])


@pytest.mark.parametrize("build,valid", [
    (_star_edge, 0), (_star_thorns, 1), (_sigma(0), 1), (_sigma(1), 0),
    (_sigma(2), 0), (_white_label, 2), (_black_label, 1),
    (_partition_part, 1)])
def test_constructors_refuse_non_integers(build, valid):
    build(valid)
    for bad in (float(valid), valid + 0.9, True, False, 2.5, str(valid)):
        with pytest.raises(ValueError, match="must be integers"):
            build(bad)


def test_old_coercion_reproducers_are_refused():
    with pytest.raises(ValueError, match="sigma entries"):
        PermutedThornTree(StarThornTree((None, 0), (1,)), ((0.9, (0, 0)),))
    with pytest.raises(ValueError, match="edge slots"):
        StarThornTree((0.0, None), (1.0,))
    with pytest.raises(ValueError, match="images"):
        BlackPartitionedStarMap(Permutation([2.0, True]),
                                SetPartition(2, [[1, 2]]))
    with pytest.raises(ValueError, match="block elements"):
        BlackPartitionedStarMap(Permutation([2, 1]),
                                SetPartition(2, [[1.0, 2]]))
    for parts in ([2.5, 1], [True], [2, 1.0], ["a"]):
        with pytest.raises(ValueError, match="parts must be integers"):
            Partition(parts)


def test_trusted_objects_are_not_validated():
    from thorntrees.partition import _trusted

    tree = _trusted(StarThornTree, white=(0.0, None), blacks=(1.0,))
    assert tree.blacks == (1.0,)


@pytest.mark.parametrize("ranks", [("x", 1, 2), (1, 0, 2), (0, 1, 1),
                                   (0, 2, 1), (0, 1, 3), (-1, 1, 2)])
def test_thorn_ranks_are_read(ranks):
    import json
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    obj = json.loads((root / "ex1.json").read_text())
    thorns = [slot for slot in obj["white"] if "thorn" in slot]
    assert [slot["thorn"] for slot in thorns] == [0, 1, 2]
    for slot, rank in zip(thorns, ranks):
        slot["thorn"] = rank
    with pytest.raises(ParseError):
        deserialize(json.dumps(obj))
