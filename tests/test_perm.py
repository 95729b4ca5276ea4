import random

import pytest
from hypothesis import given, strategies as st

from thorntrees.partition import Partition
from thorntrees.perm import (
    Permutation,
    all_permutations,
    canonical_long_cycle,
    compose,
)


def test_compose_worked_example():
    # alpha * beta = (1 2 ... 7) with beta an involution
    alpha = Permutation((2, 6, 1, 5, 3, 7, 4))  # (1 2 6 7 4 5 3)
    beta = Permutation((1, 5, 7, 4, 2, 6, 3))  # (2 5)(3 7)
    assert compose(alpha, beta) == canonical_long_cycle(7)


def test_compose_identity():
    g = Permutation([3, 1, 5, 4, 2])
    assert compose(Permutation((1, 2, 3, 4, 5)), g) == g
    assert compose(g, Permutation((1, 2, 3, 4, 5))) == g


def test_compose_section4_example():
    alpha = Permutation((3, 4, 2, 5, 1))  # (1 3 2 4 5)
    beta = Permutation((3, 1, 2, 4, 5))  # (1 3 2)
    assert compose(alpha, beta) == canonical_long_cycle(5)


def test_compose_rejects_size_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation((1, 2, 3)), Permutation((1, 2, 3, 4)))


def test_convention_right_factor_acts_first():
    alpha = Permutation((3, 4, 2, 5, 1))  # (1 3 2 4 5)
    beta = Permutation((3, 1, 2, 4, 5))  # (1 3 2)
    assert alpha(beta(1)) == 2  # (alpha*beta)(1) = 2


def test_call_refuses_an_index_outside_1_to_n():
    f = Permutation((2, 3, 1))
    assert [f(k) for k in (1, 2, 3)] == [2, 3, 1]
    for k in (0, -1, 4, 1.0, True, "1"):
        with pytest.raises(ValueError, match=r"k must be an integer in 1\.\.3"):
            f(k)


def test_inverse():
    assert Permutation((1, 2, 3, 4)).inverse() == Permutation((1, 2, 3, 4))
    # (1 2 3)^-1 = (1 3 2)
    assert Permutation((2, 3, 1)).inverse() == Permutation((3, 1, 2))
    rng = random.Random(7)
    for _ in range(20):
        imgs = list(range(1, 7))
        rng.shuffle(imgs)
        f = Permutation(imgs)
        assert compose(f, f.inverse()) == Permutation((1, 2, 3, 4, 5, 6))


def test_long_cycle():
    assert canonical_long_cycle(1) == Permutation((1,))
    assert canonical_long_cycle(3).images == (2, 3, 1)
    assert canonical_long_cycle(7) == Permutation((2, 3, 4, 5, 6, 7, 1))
    with pytest.raises(ValueError):
        canonical_long_cycle(0)


def test_cycle_decomposition_canonical_form():
    beta = Permutation((1, 5, 7, 4, 2, 6, 3))  # (2 5)(3 7)
    cycles = beta.cycles()
    # each cycle ends with its maximum; cycles ordered by decreasing maximum
    assert all(c[-1] == max(c) for c in cycles)
    assert [c[-1] for c in cycles] == sorted((c[-1] for c in cycles),
                                             reverse=True)
    assert beta.cycle_type() == Partition([2, 2, 1, 1, 1])


def test_cycle_type_examples():
    assert Permutation((1, 2, 3, 4)).cycle_type() == Partition([1] * 4)
    assert (Permutation((3, 1, 2, 4, 5)).cycle_type()  # (1 3 2)
            == Partition([3, 1, 1]))


def test_is_long_cycle():
    assert Permutation((2, 3, 1)).is_long_cycle()  # (1 2 3)
    assert not Permutation((1, 2, 3)).is_long_cycle()
    assert Permutation((2, 6, 1, 5, 3, 7, 4)).is_long_cycle()
    assert Permutation((1,)).is_long_cycle()


def test_invalid_images_rejected():
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


@pytest.mark.parametrize("images", [[True, 2.0], [2.0, True], [1, 2.0],
                                    [True], [1, "2"], [2, 1.5]])
def test_non_integer_images_rejected(images):
    with pytest.raises(ValueError, match="images must be integers"):
        Permutation(images)


@given(st.integers(1, 6), st.randoms(use_true_random=False))
def test_associativity_and_inverse_laws(n, rnd):
    def rand_perm():
        imgs = list(range(1, n + 1))
        rnd.shuffle(imgs)
        return Permutation(imgs)

    f, g, h = rand_perm(), rand_perm(), rand_perm()
    assert compose(compose(f, g), h) == compose(f, compose(g, h))
    assert compose(f, g).inverse() == compose(g.inverse(), f.inverse())


@pytest.mark.parametrize("n", range(1, 7))
def test_cycle_type_sums_to_n(n):
    for f in all_permutations(n):
        assert f.cycle_type().size == n


@pytest.mark.parametrize("n", range(1, 7))
def test_cycles_follow_f_in_canonical_form(n):
    for f in all_permutations(n):
        cycles = f.cycles()
        assert sorted(x for c in cycles for x in c) == list(range(1, n + 1))
        for c in cycles:
            assert c[-1] == max(c)
            assert [f(x) for x in c] == list(c[1:] + c[:1])
        assert [c[-1] for c in cycles] == sorted((c[-1] for c in cycles),
                                                 reverse=True)
