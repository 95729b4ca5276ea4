"""Brute-force enumerators: ground truth for every counted family.

Everything here iterates over complete search spaces and counts exactly;
no formulas, no sampling.  Budgets guard against accidental huge sweeps
and are enforced by refusal, never by truncation, before any sweep runs.

Each search space is swept once per n, permutations as plain 1-based
image tuples (as ``Permutation.images`` holds them), and only the
per-type counters of a sweep are kept (memoised per n):

  S_n sweep    every beta in S_n          -> A and B by type, B' by cycles
  pair sweep   every set partition of the -> C and D by the type of pi
               cycles, per cycle type

ST has no sweep of its own: it counts the trees that
``structures.all_star_thorn_trees`` builds, each tree once, per type.

The pair sweep covers the couples (pi, beta in S_pi) without a second
walk over S_n: beta lies in S_pi exactly when every block of pi is a
union of beta's cycles, so the couples of one beta are the set
partitions of its cycles, and every beta of one cycle type mu has the
same ones.  Each set partition of mu's cycles is visited once and
counted A[mu] times in C and B[mu] times in D, the S_n sweep's counts.
"""

from collections import Counter
from functools import cache
from itertools import permutations

from .partition import partitions_of, set_partitions_of_type

DEFAULT_BUDGET = 8  # every sweep: S_n (8! = 40320), maps and permuted trees


class BudgetExceeded(ValueError):
    """Requested enumeration is beyond the configured budget."""


class InternalCheckError(AssertionError):
    """A check that holds by theory failed: the program is inconsistent.

    Raised explicitly, so ``python -O`` keeps it; the CLI reports it as
    one ``internal check failed`` line with exit 1.
    """


def _check(n, budget, kind, long_cycle=True):
    if n > budget:
        raise BudgetExceeded(
            "%s enumeration refused: n=%d exceeds budget %d" % (kind, n, budget))
    if long_cycle and n < 1:
        raise ValueError("the long cycle (1 2 .. n) needs n >= 1")


def _cycle_type(images):
    """Sorted cycle lengths of a 1-based image tuple."""
    seen = [False] * (len(images) + 1)
    lengths = []
    for start in range(1, len(images) + 1):
        if not seen[start]:
            k, size = start, 0
            while not seen[k]:
                seen[k] = True
                k = images[k - 1]
                size += 1
            lengths.append(size)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _complement_orbit(images):
    """The orbit of 1 under alpha^{-1}, alpha = (1 2 .. n) beta^{-1}, read
    off beta's 1-based images (n >= 1) as alpha^{-1}(k) = beta(k - 1), so
    no inverse is built: [beta(n), .., 1].  alpha is long exactly when it
    has n entries, and then they are Psi's white labels, left to right.
    """
    orbit, k = [], images[-1]
    while k != 1:
        orbit.append(k)
        k = images[k - 2]
    orbit.append(1)
    return orbit


@cache
def _sn_sweep(n):
    """(A by type, B by type, B' by number of cycles) from one pass over S_n."""
    A, B, Bp = Counter(), Counter(), Counter()
    for beta in permutations(range(1, n + 1)):
        lam = _cycle_type(beta)
        A[lam] += 1
        if n and len(_complement_orbit(beta)) == n:
            B[lam] += 1
            Bp[len(lam)] += 1
    return A, B, Bp


@cache
def _pair_sweep(n):
    """(C, D) by the type of pi, read off the S_n sweep: for each cycle
    type mu, every set partition of mu's cycles is one couple for each of
    the A[mu] permutations of type mu, of the type its merged cycle
    lengths give; B[mu] of those couples have a long complement."""
    A, B, _ = _sn_sweep(n)
    C, D = Counter(), Counter()
    for mu, a in A.items():
        b = B[mu]
        for rho in partitions_of(len(mu)):
            for sigma in set_partitions_of_type(rho):
                lam = tuple(sorted((sum(mu[i - 1] for i in block)
                                    for block in sigma.blocks), reverse=True))
                C[lam] += a
                D[lam] += b
    return C, D


def enumerate_A(lam, budget=DEFAULT_BUDGET):
    """Count permutations of type lam by sweeping S_n."""
    _check(lam.size, budget, "S_n", long_cycle=False)
    return _sn_sweep(lam.size)[0][lam]


def enumerate_B(lam, budget=DEFAULT_BUDGET):
    """Count permutations beta of type lam with (1 2 .. n) beta^{-1} long."""
    _check(lam.size, budget, "S_n")
    return _sn_sweep(lam.size)[1][lam]


def enumerate_Bprime(n, m, budget=DEFAULT_BUDGET):
    """Count permutations beta of [n] with m cycles and long complement."""
    _check(n, budget, "S_n")
    return _sn_sweep(n)[2][m]


def enumerate_CD(lam, budget=DEFAULT_BUDGET):
    """Count couples (beta, pi) with pi of type lam and beta in S_pi.

    Returns (C, D): C counts all couples, D those whose complement
    (1 2 .. n) beta^{-1} is a long cycle.
    """
    _check(lam.size, budget, "pair")
    C, D = _pair_sweep(lam.size)
    return C[lam], D[lam]


def enumerate_ST(mu, budget=DEFAULT_BUDGET):
    """Count star thorn trees of type mu by building every one of them."""
    _check(mu.size, budget, "tree", long_cycle=False)
    from .structures import all_star_thorn_trees

    return sum(1 for _ in all_star_thorn_trees(mu))


def reformulation_probability(lam, budget=DEFAULT_BUDGET):
    """Exact probability that a uniform couple (pi, beta in S_pi) of type lam
    has a long-cycle complement.

    Counting couples uniformly equals the two-stage uniform choice because
    |S_pi| depends only on the type of pi.
    """
    from fractions import Fraction

    C, D = enumerate_CD(lam, budget)
    return Fraction(D, C)

