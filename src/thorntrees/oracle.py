"""Brute-force enumerators: ground truth for every counted family.

Everything here iterates over complete search spaces and counts exactly;
no formulas, no sampling.  Budgets guard against accidental huge sweeps
and are enforced by refusal, never by truncation, before any sweep runs.

Each search space is swept once per n, over plain 0-based image tuples,
and only the per-type counters of a sweep are kept (memoised per n):

  S_n sweep    every beta in S_n          -> A and B by type, B' by cycles
  pair sweep   every (pi, beta in S_pi)   -> C and D by the type of pi
  tree sweep   every star thorn tree      -> ST by type
"""

from collections import Counter
from functools import cache
from itertools import combinations, permutations

from .partition import partitions_of, set_partitions_of_type

DEFAULT_SN_BUDGET = 8     # full S_n sweeps (8! = 40320)
DEFAULT_PAIR_BUDGET = 6   # (set partition, permutation) pair sweeps


class BudgetExceeded(ValueError):
    """Requested enumeration is beyond the configured budget."""


def _check(n, budget, kind, long_cycle=True):
    if n > budget:
        raise BudgetExceeded(
            "%s enumeration refused: n=%d exceeds budget %d" % (kind, n, budget))
    if long_cycle and n < 1:
        raise ValueError("the long cycle (1 2 .. n) needs n >= 1")


def _cycle_type(images):
    """Sorted cycle lengths of a 0-based image tuple."""
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if not seen[start]:
            k, size = start, 0
            while not seen[k]:
                seen[k] = True
                k = images[k]
                size += 1
            lengths.append(size)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _long_complement(images):
    """True iff alpha = (0 1 .. n-1) beta^{-1} is one n-cycle (n >= 1).

    Walks alpha^{-1} = beta (0 1 .. n-1)^{-1}, i.e. x -> images[x - 1],
    from 0, so no inverse is built.
    """
    x, steps = images[-1], 1
    while x:
        x = images[x - 1]
        steps += 1
    return steps == len(images)


@cache
def _sn_sweep(n):
    """(A by type, B by type, B' by number of cycles) from one pass over S_n."""
    A, B, Bp = Counter(), Counter(), Counter()
    for beta in permutations(range(n)):
        lam = _cycle_type(beta)
        A[lam] += 1
        if n and _long_complement(beta):
            B[lam] += 1
            Bp[len(lam)] += 1
    return A, B, Bp


def _in_place(images, blocks, i=0):
    """Run through S_pi, writing each beta into ``images`` block by block;
    yields once per beta, with ``images`` holding it."""
    if i == len(blocks):
        yield
        return
    block = blocks[i]
    for target in permutations(block):
        for src, dst in zip(block, target):
            images[src] = dst
        yield from _in_place(images, blocks, i + 1)


def _each_beta(pi):
    """Run through S_pi, yielding one 0-based image list rewritten in place."""
    images = list(range(pi.n))
    for _ in _in_place(images, [[x - 1 for x in b] for b in pi.blocks]):
        yield images


@cache
def _pair_sweep(n):
    """(C, D) by the type of pi, from one pass over every couple
    (pi, beta in S_pi); D counts the couples with a long complement."""
    C, D = Counter(), Counter()
    images = list(range(n))
    for lam in partitions_of(n):
        for pi in set_partitions_of_type(lam):
            blocks = [[x - 1 for x in b] for b in pi.blocks]
            for _ in _in_place(images, blocks):
                C[lam] += 1
                if _long_complement(images):
                    D[lam] += 1
    return C, D


def _compositions(n, p):
    """Every sequence of p positive integers summing to n."""
    if p == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - p + 2):
        for rest in _compositions(n - first, p - 1):
            yield (first,) + rest


@cache
def _tree_sweep(n):
    """ST by type, from one pass over every star thorn tree of size n.

    A tree is a set of p edge positions among the n root slots plus the
    degrees of its p black vertices in root order: a composition of n.
    """
    ST = Counter()
    for p in range(n + 1):
        types = [tuple(sorted(c, reverse=True)) for c in _compositions(n, p)]
        for _edges in combinations(range(n), p):
            ST.update(types)
    return ST


def enumerate_A(lam, budget=DEFAULT_SN_BUDGET):
    """Count permutations of type lam by sweeping S_n."""
    _check(lam.size, budget, "S_n", long_cycle=False)
    return _sn_sweep(lam.size)[0][lam]


def enumerate_B(lam, budget=DEFAULT_SN_BUDGET):
    """Count permutations beta of type lam with (1 2 .. n) beta^{-1} long."""
    _check(lam.size, budget, "S_n")
    return _sn_sweep(lam.size)[1][lam]


def enumerate_Bprime(n, m, budget=DEFAULT_SN_BUDGET):
    """Count permutations beta of [n] with m cycles and long complement."""
    _check(n, budget, "S_n")
    return _sn_sweep(n)[2][m]


def enumerate_CD(lam, budget=DEFAULT_PAIR_BUDGET):
    """Count couples (beta, pi) with pi of type lam and beta in S_pi.

    Returns (C, D): C counts all couples, D those whose complement
    (1 2 .. n) beta^{-1} is a long cycle.
    """
    _check(lam.size, budget, "pair")
    C, D = _pair_sweep(lam.size)
    return C[lam], D[lam]


def enumerate_ST(mu, budget=DEFAULT_SN_BUDGET):
    """Count star thorn trees of type mu by sweeping every tree of size n."""
    _check(mu.size, budget, "tree", long_cycle=False)
    return _tree_sweep(mu.size)[mu]


def reformulation_probability(lam, budget=DEFAULT_PAIR_BUDGET):
    """Exact probability that a uniform couple (pi, beta in S_pi) of type lam
    has a long-cycle complement.

    Counting couples uniformly equals the two-stage uniform choice because
    |S_pi| depends only on the type of pi.
    """
    from fractions import Fraction

    C, D = enumerate_CD(lam, budget)
    return Fraction(D, C)


def default_budget(family):
    """The budget a family's oracle uses when none is given."""
    return DEFAULT_PAIR_BUDGET if family in ("C", "D") else DEFAULT_SN_BUDGET

