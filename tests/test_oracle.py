from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, seed, settings, strategies as st

from thorntrees.counting import count_C, count_D, solve_B, stirling1_unsigned
from thorntrees.oracle import (
    BudgetExceeded,
    _alpha_betas,
    _alpha_sweep,
    _complement_orbit,
    _cycle_groupings,
    _cycle_type,
    enumerate_A,
    enumerate_B,
    enumerate_Bprime,
    enumerate_CD,
    enumerate_ST,
    reformulation_probability,
)
from thorntrees.partition import (
    Partition,
    partitions_of,
    permutations_in,
    set_partitions_of_type,
)
from thorntrees.perm import (
    Permutation,
    all_permutations,
    canonical_long_cycle,
    compose,
)
from thorntrees.structures import all_star_maps


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_A_matches_formula(n):
    for lam in partitions_of(n):
        assert enumerate_A(lam) == factorial(n) // lam.z()


def test_enumerate_B_examples():
    assert enumerate_B(Partition([3])) == 1
    assert enumerate_B(Partition([2, 1])) == 0  # parity obstruction
    assert enumerate_A(Partition([2, 1, 1])) == 6


def test_enumerate_CD_examples():
    assert enumerate_CD(Partition([2, 1])) == (6, 3)
    for n in range(1, 6):
        assert enumerate_CD(Partition([n])) == (factorial(n),
                                                factorial(n - 1))
        assert enumerate_CD(Partition([1] * n)) == (1, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_CD_matches_formulas(n):
    for lam in partitions_of(n):
        C, D = enumerate_CD(lam)
        assert C == count_C(lam)
        assert D == count_D(lam)


def test_enumerate_ST_examples():
    assert enumerate_ST(Partition([1])) == 1
    assert enumerate_ST(Partition([2])) == 2
    assert enumerate_ST(Partition([2, 1])) == 6


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_ST_visits_every_tree(n):
    # p edge positions and a composition of n into p degrees, summed over
    # p (Vandermonde): binomial(2n-1, n-1) trees in all.
    assert sum(enumerate_ST(mu) for mu in partitions_of(n)) == comb(
        2 * n - 1, n - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_sn_sweep_matches_permutation_objects(n):
    # Reference: validated Permutation objects, complement by compose/inverse.
    c = canonical_long_cycle(n)
    A, B, Bp = {}, {}, {}
    for beta in all_permutations(n):
        lam = beta.cycle_type()
        A[lam] = A.get(lam, 0) + 1
        if compose(c, beta.inverse()).is_long_cycle():
            B[lam] = B.get(lam, 0) + 1
            Bp[len(lam)] = Bp.get(len(lam), 0) + 1
    for lam in partitions_of(n):
        assert enumerate_A(lam) == A.get(lam, 0)
        assert enumerate_B(lam) == B.get(lam, 0)
    for m in range(1, n + 1):
        assert enumerate_Bprime(n, m) == Bp.get(m, 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_alpha_walk_matches_the_beta_side(n):
    # Reference: every beta in S_n, kept when its complement orbit is long
    B, Bp = Counter(), Counter()
    for beta in permutations(range(1, n + 1)):
        if len(_complement_orbit(beta)) == n:
            lam = _cycle_type(beta)
            B[lam] += 1
            Bp[len(lam)] += 1
    assert _alpha_sweep(n) == (B, Bp)
    if n <= 7:
        betas = list(_alpha_betas(n))
        assert len(set(betas)) == len(betas) == factorial(n - 1)
        assert all(len(_complement_orbit(beta)) == n for beta in betas)


BELL = [1, 1, 2, 5, 15, 52, 203, 877]


@pytest.mark.parametrize("n", range(8))
def test_block_sums_match_set_partitions(n):
    # Reference: mu's cycles merged over every SetPartition of them, its
    # blocks read as 0-based cycle positions
    for mu in partitions_of(n):
        ref = {}
        for rho in partitions_of(len(mu)):
            for sigma in set_partitions_of_type(rho):
                lam = tuple(sorted((sum(mu[i - 1] for i in block)
                                    for block in sigma.blocks), reverse=True))
                ref.setdefault(lam, []).append(
                    tuple(tuple(i - 1 for i in block)
                          for block in sigma.blocks))
        groupings = _cycle_groupings(tuple(mu))
        assert sum(map(len, groupings.values())) == BELL[len(mu)]
        assert {lam: sorted(g) for lam, g in groupings.items()} \
            == {lam: sorted(g) for lam, g in ref.items()}
        for g in groupings.values():
            assert len(set(g)) == len(g)


def test_enumerate_B_matches_solver_at_8():
    table = solve_B(8)
    for lam in partitions_of(8):
        assert enumerate_B(lam) == table[lam]


def test_zagier_by_brute_force_at_8():
    for m in range(1, 9):
        b = enumerate_Bprime(8, m)
        if m % 2 == 0:
            assert 36 * b == stirling1_unsigned(9, m)
        else:
            assert b == 0


def test_enumerate_CD_matches_formulas_at_7():
    for lam in partitions_of(7):
        assert enumerate_CD(lam, budget=7) == (count_C(lam), count_D(lam))


def test_enumerate_CD_matches_formulas_at_8():
    lams = list(partitions_of(8))
    assert len(lams) == 22
    for lam in lams:
        assert enumerate_CD(lam, budget=8) == (count_C(lam), count_D(lam))


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_CD_matches_couple_walk(n):
    # Reference: every couple (pi, beta in S_pi) walked one by one, and
    # every star map built; the pair sweep reads both off the S_n sweep
    # and the alpha walk
    for lam in partitions_of(n):
        C = sum(1 for pi in set_partitions_of_type(lam)
                for _ in permutations_in(pi))
        D = sum(1 for _ in all_star_maps(lam))
        assert enumerate_CD(lam) == (C, D)


@pytest.mark.parametrize("n", range(1, 7))
def test_reformulation_probability(n):
    for lam in partitions_of(n):
        p = len(lam)
        got = reformulation_probability(lam)
        assert got == Fraction(1, n - p + 1)
        assert got.denominator == n - p + 1  # reduced form


def test_reformulation_degenerate_cases():
    assert reformulation_probability(Partition([5])) == Fraction(1, 5)
    assert reformulation_probability(Partition([1, 1, 1, 1])) == 1


def test_enumerate_Bprime():
    assert enumerate_Bprime(3, 1) == 1
    assert enumerate_Bprime(4, 2) == 5
    assert enumerate_Bprime(5, 1) == 8


def test_budget_refusal():
    with pytest.raises(BudgetExceeded):
        enumerate_B(Partition([9]))
    with pytest.raises(BudgetExceeded):
        enumerate_CD(Partition([9]))
    with pytest.raises(BudgetExceeded):
        reformulation_probability(Partition([5, 4]))
    # C and D are read off the S_n sweep and the alpha walk, so they share
    # their default budget
    assert enumerate_CD(Partition([8]))[0] == factorial(8)
    with pytest.raises(BudgetExceeded):  # overridable
        enumerate_CD(Partition([8]), budget=7)


def test_budget_checked_before_cache():
    assert enumerate_CD(Partition([4, 3]), budget=7) == (5040, 840)
    assert enumerate_B(Partition([7]), budget=7) == 180
    with pytest.raises(BudgetExceeded):
        enumerate_CD(Partition([4, 3]), budget=6)
    with pytest.raises(BudgetExceeded):
        enumerate_B(Partition([7]), budget=6)
    with pytest.raises(BudgetExceeded):
        enumerate_Bprime(7, 1, budget=6)


def test_each_sweep_cache_keeps_one_n():
    # every CLI command sweeps one n; a library caller that sweeps n = 7
    # and then n = 6 keeps only the n = 6 sweeps
    from thorntrees import oracle, structures

    caches = (oracle._sn_sweep, oracle._alpha_sweep, oracle._pair_sweep,
              structures._star_index)
    for n in (7, 6):
        for lam in partitions_of(n):
            enumerate_CD(lam)
            next(all_star_maps(lam), None)
    for sweep in caches:
        assert sweep.cache_info().currsize == 1, sweep.__name__
    # and the one kept is n = 6: sweeping it again rebuilds nothing
    misses = [sweep.cache_info().misses for sweep in caches]
    enumerate_CD(Partition([6]))
    next(all_star_maps(Partition([6])))
    assert [sweep.cache_info().misses for sweep in caches] == misses


def test_long_cycle_needs_n_at_least_1():
    assert enumerate_A(Partition([])) == 1
    assert enumerate_ST(Partition([])) == 1
    with pytest.raises(ValueError):
        enumerate_B(Partition([]))
    with pytest.raises(ValueError):
        enumerate_Bprime(0, 1)


@st.composite
def _betas(draw):
    """beta in S_n, n <= 60: uniform, or built from a long alpha as
    beta = alpha^{-1} (1 2 .. n), so that both verdicts come up."""
    n = draw(st.integers(1, 60))
    images = draw(st.permutations(range(1, n + 1)))
    if not draw(st.booleans()):
        return Permutation(images)
    # alpha: the long cycle that runs through images in order
    alpha = [0] * n
    for a, b in zip(images, images[1:] + images[:1]):
        alpha[a - 1] = b
    return compose(Permutation(alpha).inverse(), canonical_long_cycle(n))


@seed(1006)
@settings(max_examples=300, deadline=None)
@given(_betas())
def test_complement_orbit_matches_alpha_built_by_composition(beta):
    n = beta.n
    alpha = compose(canonical_long_cycle(n), beta.inverse())
    alpha_inv = alpha.inverse()
    orbit = [alpha_inv(1)]
    while orbit[-1] != 1:
        orbit.append(alpha_inv(orbit[-1]))
    assert _complement_orbit(beta.images) == orbit
    assert (len(orbit) == n) == alpha.is_long_cycle()
    assert _cycle_type(beta.images) == beta.cycle_type()
