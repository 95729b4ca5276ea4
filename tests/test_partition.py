from math import factorial, prod

import pytest

from thorntrees.partition import (
    Partition,
    SetPartition,
    partitions_of,
    permutations_in,
    set_partitions_of_type,
)
from thorntrees.perm import all_permutations
from thorntrees.structures import all_star_thorn_trees


def test_partitions_of_4_order():
    assert [p.parts for p in partitions_of(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_of_zero():
    assert list(partitions_of(0)) == [Partition([])]


def recursive_partitions(n):
    """Reference: each partition of n as a tuple, largest first part first,
    then the partitions of the rest with parts no larger, recursively."""
    def gen(remaining, cap, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - first, first, prefix + [first])

    return gen(n, n, [])


def euler_partition_counts(n):
    """p(0..n) from Euler's pentagonal-number recurrence: p(k) is the sum
    over j >= 1 of (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2))."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        j = 1
        while j * (3 * j - 1) // 2 <= k:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= k:
                    p[k] += sign * p[k - g]
            j += 1
    return p


def test_partitions_of_matches_the_recursive_reference():
    for n in range(31):
        assert [tuple(p) for p in partitions_of(n)] \
            == list(recursive_partitions(n)), n


def assert_valid_partition(p):
    """``p`` is a Partition of int parts, equal to and hashing like the one
    the validating constructor makes from its parts."""
    assert type(p) is Partition
    assert all(type(x) is int for x in p), p
    rebuilt = Partition(list(p))
    assert p == rebuilt and hash(p) == hash(rebuilt)


@pytest.mark.parametrize("n", range(13))
def test_partitions_of_are_valid_by_construction(n):
    # built without validation
    for p in partitions_of(n):
        assert_valid_partition(p)


def test_partitions_of_yields_independent_tuples():
    # the generator reuses one working list: a list of what it yielded
    # must still hold every partition, each its own object
    ps = list(partitions_of(12))
    assert [tuple(p) for p in ps] == list(recursive_partitions(12))
    assert len({id(p) for p in ps}) == len(ps) == len(set(ps))


def test_partitions_of_counts_match_euler():
    counts = euler_partition_counts(50)
    assert counts[40] == 37338 and counts[50] == 204226
    for n in (*range(21), 40, 50):
        assert sum(1 for _ in partitions_of(n)) == counts[n], n


@pytest.mark.parametrize("bad", [-1, 2.0, True, "3"])
def test_partitions_of_refuses_bad_n(bad):
    with pytest.raises(ValueError):
        next(partitions_of(bad))


def test_up_down_worked_examples():
    assert Partition([4, 4, 3, 1, 1]).down(4) == Partition([4, 3, 3, 1, 1])
    assert Partition([4, 3, 3, 2, 2]).up(2) == Partition([4, 3, 3, 3, 2])


def test_up_down_inverse_pair():
    for n in range(1, 9):
        for mu in partitions_of(n):
            for j in set(mu.parts):
                if j >= 2:
                    assert mu.down(j).up(j - 1) == mu


def test_up_down_move_one_part_and_re_sort():
    for n in range(1, 11):
        for lam in partitions_of(n):
            for i in set(lam):
                parts = list(lam)
                parts.remove(i)
                assert lam.up(i) == tuple(sorted(parts + [i + 1],
                                                 reverse=True))
                if i >= 2:
                    assert lam.down(i) == tuple(sorted(parts + [i - 1],
                                                       reverse=True))


def test_up_down_preserve_length():
    lam = Partition([3, 2, 2])
    assert len(lam.up(2)) == len(lam)
    assert len(lam.down(3)) == len(lam)
    assert lam.up(2).size == lam.size + 1
    assert lam.down(3).size == lam.size - 1


def test_up_down_missing_part_rejected():
    with pytest.raises(ValueError):
        Partition([3, 1]).up(2)
    with pytest.raises(ValueError):
        Partition([3, 1]).down(2)


@pytest.mark.parametrize("n", range(13))
def test_up_down_are_valid_by_construction(n):
    for lam in partitions_of(n):
        for i in set(lam):
            assert_valid_partition(lam.up(i))
            if i >= 2:
                assert_valid_partition(lam.down(i))


@pytest.mark.parametrize("call, message", [
    (lambda lam: lam.down(2.0), "parts must be integers, found 1.0"),
    (lambda lam: lam.up(1.0), "parts must be integers, found 2.0"),
    (lambda lam: lam.down(1), "down requires a part >= 2"),
    (lambda lam: lam.up(3), "no part 3 in Partition(2, 1)"),
    (lambda lam: lam.down(3), "no part 3 in Partition(2, 1)"),
])
def test_up_down_refusals(call, message):
    # a float equal to a part never reaches a partition built without
    # validation: it is refused as the validating constructor refuses it
    with pytest.raises(ValueError) as exc:
        call(Partition((2, 1)))
    assert str(exc.value) == message


@pytest.mark.parametrize("n", range(7))
def test_types_of_permutations_and_set_partitions_are_valid(n):
    for f in all_permutations(n):
        assert_valid_partition(f.cycle_type())
    for lam in partitions_of(n):
        for sp in set_partitions_of_type(lam):
            assert_valid_partition(sp.type_of())
            assert sp.type_of() == lam


@pytest.mark.parametrize("n", range(1, 7))
def test_types_of_star_thorn_trees_are_valid(n):
    for mu in partitions_of(n):
        for t in all_star_thorn_trees(mu):
            assert_valid_partition(t.type_of())
            assert t.type_of() == mu


def test_z_and_aut():
    for n in range(1, 8):
        assert Partition([n]).z() == n
    assert Partition([2, 1, 1]).z() == 4
    assert Partition([4, 4, 3, 1, 1]).aut() == 4  # 2! * 1! * 2!


def test_class_size_identity():
    for n in range(11):
        assert sum(factorial(n) // lam.z() for lam in partitions_of(n)) \
            == factorial(n)


def test_set_partitions_of_type():
    parts = list(set_partitions_of_type(Partition([2, 1])))
    assert {p.blocks for p in parts} == {
        ((1, 2), (3,)), ((1, 3), (2,)), ((1,), (2, 3))}
    for p in parts:
        assert p.type_of() == Partition([2, 1])


@pytest.mark.parametrize("n", range(1, 7))
def test_set_partition_counts_and_block_permutations(n):
    for lam in partitions_of(n):
        sps = list(set_partitions_of_type(lam))
        assert len(sps) == len(set(sps))  # duplicate-free
        expected = prod(factorial(s) for s in lam.parts)
        counts = {len(list(permutations_in(pi))) for pi in sps}
        # |S_pi| depends only on the type of pi
        assert counts == {expected}


def test_permutations_in_single_block():
    pi = SetPartition(4, [[1, 2, 3, 4]])
    assert len(set(permutations_in(pi))) == 24


def test_permutations_in_small():
    pi = SetPartition(3, [[1, 2], [3]])
    perms = set(permutations_in(pi))
    assert {p.images for p in perms} == {(1, 2, 3), (2, 1, 3)}


def test_set_partition_validation():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError, match="nonempty"):
        SetPartition(2, [[1, 2], []])


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_set_partition_refuses_non_integers(bad):
    SetPartition(2, [[1], [2]])
    with pytest.raises(ValueError, match="block elements must be integers"):
        SetPartition(2, [[bad], [2]])
    with pytest.raises(ValueError, match="block elements must be integers"):
        SetPartition(2, [[2, bad]])
    with pytest.raises(ValueError, match="n must be an integer"):
        SetPartition(bad, [[1]])


@pytest.mark.parametrize("n", range(0, 7))
def test_set_partitions_of_type_are_valid_by_construction(n):
    # built without validation: each equals, and hashes like, the set
    # partition the validating constructor makes from the same blocks
    for lam in partitions_of(n):
        for sp in set_partitions_of_type(lam):
            rebuilt = SetPartition(sp.n, [list(b) for b in reversed(sp.blocks)])
            assert sp == rebuilt and hash(sp) == hash(rebuilt)
            assert type(sp.blocks) is tuple
            assert all(type(b) is tuple for b in sp.blocks)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_partition_validation_messages():
    with pytest.raises(ValueError) as exc:
        Partition(iter([3, 0]))
    assert str(exc.value) == "parts must be positive: (3, 0)"
    with pytest.raises(ValueError) as exc:
        Partition([1, 2, 2])
    assert str(exc.value) == "parts must be weakly decreasing: (1, 2, 2)"
    # an input that fails two checks names the first: integers, then
    # positive, then weakly decreasing
    for parts in ((0, 1), (1, 0, 2)):
        with pytest.raises(ValueError) as exc:
            Partition(parts)
        assert str(exc.value) == "parts must be positive: %r" % (parts,)
    for parts in ((2.0, 1), (True,), ("2",)):
        with pytest.raises(ValueError) as exc:
            Partition(parts)
        assert str(exc.value) == \
            "parts must be integers, found %r" % (parts[0],)
    assert Partition(()) == () and Partition(()).size == 0


def test_partition_is_its_tuple_of_parts():
    lam = Partition([3, 1, 1])
    assert isinstance(lam, tuple)
    assert lam == (3, 1, 1) and (3, 1, 1) == lam
    assert hash(lam) == hash((3, 1, 1))
    assert {(3, 1, 1): "x"}[lam] == "x" and {lam: "y"}[(3, 1, 1)] == "y"
    assert lam.parts == (3, 1, 1) and type(lam.parts) is tuple
    # one spelling per operation: len(lam) and lam.count(i), no aliases
    assert not hasattr(lam, "length") and not hasattr(lam, "multiplicity")
    assert repr(lam) == "Partition(3, 1, 1)"
    assert Partition([]) == () and repr(Partition([])) == "Partition()"


def test_partition_is_immutable():
    lam = Partition([2, 1])
    for name in ("parts", "size", "extra"):
        with pytest.raises(AttributeError):
            setattr(lam, name, (5,))
    with pytest.raises(TypeError):
        lam[0] = 5
    assert lam == (2, 1)


def test_exponential_notation():
    assert Partition([4, 4, 3, 1, 1]).exponential() == "1^2 3^1 4^2"
    assert Partition([]).exponential() == "()"


def test_exponential_reads_back_for_every_partition_up_to_12():
    for n in range(1, 13):
        for lam in partitions_of(n):
            terms = [tuple(map(int, term.split("^")))
                     for term in lam.exponential().split(" ")]
            parts = [i for i, _ in terms]
            assert parts == sorted(set(parts)), lam  # increasing, distinct
            assert sorted((i for i, m in terms for _ in range(m)),
                          reverse=True) == list(lam)
