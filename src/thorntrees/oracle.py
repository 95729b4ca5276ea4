"""Brute-force enumerators: ground truth for every counted family.

Everything here iterates over complete search spaces and counts exactly;
no formulas, no sampling.  Budgets guard against accidental huge sweeps
and are enforced by refusal, never by truncation, before any sweep runs.

Each search space is swept once per n, permutations as plain 1-based
image tuples (as ``Permutation.images`` holds them), and only what a
sweep gives per type is kept (memoised for the last n swept):

  S_n sweep    every beta in S_n          -> A by type
  alpha walk   every long cycle alpha     -> B by type, B' by cycles
  pair sweep   every set partition of the -> C and D by the type of pi
               cycles, per cycle type
  star maps    alpha walk, each beta's    -> the betas with their cycles
               cycles and white labels       and labels, grouped by cycle
               walked once                   lengths, under every type a
                                             set partition of the cycles
                                             reaches (``_star_index``
                                             in structures)

ST has no sweep of its own: it counts the trees that
``structures.all_star_thorn_trees`` builds, each tree once, per type.

The alpha walk visits only the beta that B and B' count: the complement
(1 2 .. n) beta^{-1} is a given long cycle alpha for exactly one beta,
alpha^{-1} (1 2 .. n), so the (n-1)! long cycles give each such beta
once, where the S_n sweep would test all n! of them.

The pair sweep covers the couples (pi, beta in S_pi) without a second
walk over S_n: beta lies in S_pi exactly when every block of pi is a
union of beta's cycles, so the couples of one beta are the set
partitions of its cycles, and every beta of one cycle type mu has the
same ones.  Each set partition of mu's cycles is visited once and
counted A[mu] times in C and B[mu] times in D.
"""

from collections import Counter
from functools import lru_cache
from itertools import permutations

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
    """Sorted cycle lengths of a 1-based image tuple; InternalCheckError if
    a cycle does not close at its start (the images are no permutation)."""
    seen = [False] * (len(images) + 1)
    lengths = []
    for start in range(1, len(images) + 1):
        if not seen[start]:
            k, size = start, 0
            while not seen[k]:
                seen[k] = True
                k = images[k - 1]
                size += 1
            if k != start:
                raise InternalCheckError(
                    "images are not a permutation of {1..%d}" % len(images))
            lengths.append(size)
    lengths.sort(reverse=True)
    return tuple(lengths)


def _complement_orbit(images):
    """The orbit of 1 under alpha^{-1}, alpha = (1 2 .. n) beta^{-1}, read
    off beta's 1-based images (n >= 1) as alpha^{-1}(k) = beta(k - 1), so
    no inverse is built: [beta(n), .., 1].  alpha is long exactly when it
    has n entries, and then they are Psi's white labels, left to right.
    InternalCheckError if 1 is not met within n steps (the images are no
    permutation).
    """
    orbit, k = [], images[-1]
    for _ in images:
        if k == 1:
            orbit.append(1)
            return orbit
        orbit.append(k)
        k = images[k - 2]
    raise InternalCheckError(
        "images are not a permutation of {1..%d}" % len(images))


@lru_cache(maxsize=1)
def _sn_sweep(n):
    """A by type, from one pass over S_n."""
    return Counter(map(_cycle_type, permutations(range(1, n + 1))))


def _alpha_betas(n):
    """Each beta in S_n whose complement (1 2 .. n) beta^{-1} is long, once,
    as a 1-based image tuple (n >= 1): for the long cycle
    alpha = (1 a_2 .. a_n), beta = alpha^{-1} (1 2 .. n), read off as
    beta(k) = alpha^{-1}(k + 1) with n + 1 standing for 1."""
    inv = [0] * (n + 2)  # inv[k] = alpha^{-1}(k) for 2 <= k <= n + 1
    for rest in permutations(range(2, n + 1)):
        prev = 1
        for a in rest:
            inv[a] = prev
            prev = a
        inv[n + 1] = prev
        yield tuple(inv[2:])


@lru_cache(maxsize=1)
def _alpha_sweep(n):
    """(B by type, B' by number of cycles) from the (n-1)! long cycles."""
    B = Counter(map(_cycle_type, _alpha_betas(n)))
    Bp = Counter()
    for lam, b in B.items():
        Bp[len(lam)] += b
    return B, Bp


def _cycle_groupings(mu):
    """The set partitions of the positions 0 .. len(mu) - 1 of a sequence
    mu of cycle lengths, in any order (Bell of len(mu) in all), by the
    type of their merged cycle lengths: each position joins a block opened
    before it or opens a new one, so each block is increasing and the
    blocks come by their first position.  The pair sweep passes sorted
    types, the star-map index the lengths in ``perm._cycles`` order; both
    are cached for the last n, so this is not."""
    groupings, blocks, sums = {}, [], []

    def place(i):
        if i == len(mu):
            lam = tuple(sorted(sums, reverse=True))
            groupings.setdefault(lam, []).append(tuple(map(tuple, blocks)))
            return
        for j, block in enumerate(blocks):
            block.append(i)
            sums[j] += mu[i]
            place(i + 1)
            sums[j] -= mu[i]
            block.pop()
        blocks.append([i])
        sums.append(mu[i])
        place(i + 1)
        sums.pop()
        blocks.pop()

    place(0)
    return groupings


@lru_cache(maxsize=1)
def _pair_sweep(n):
    """(C, D) by the type of pi, read off the S_n sweep and the alpha walk:
    for each cycle type mu, every set partition of mu's cycles is one
    couple for each of the A[mu] permutations of type mu, of the type its
    merged cycle lengths give; B[mu] of those couples have a long
    complement (at n = 0 no long cycle exists, and D counts nothing)."""
    B = _alpha_sweep(n)[0] if n else Counter()
    C, D = Counter(), Counter()
    for mu, a in _sn_sweep(n).items():
        b = B[mu]
        for lam, groupings in _cycle_groupings(mu).items():
            C[lam] += a * len(groupings)
            D[lam] += b * len(groupings)
    return C, D


def enumerate_A(lam, budget=DEFAULT_BUDGET):
    """Count permutations of type lam by sweeping S_n."""
    _check(lam.size, budget, "S_n", long_cycle=False)
    return _sn_sweep(lam.size)[lam]


def enumerate_B(lam, budget=DEFAULT_BUDGET):
    """Count permutations beta of type lam with (1 2 .. n) beta^{-1} long,
    by walking the long cycles."""
    _check(lam.size, budget, "S_n")
    return _alpha_sweep(lam.size)[0][lam]


def enumerate_Bprime(n, m, budget=DEFAULT_BUDGET):
    """Count permutations beta of [n] with m cycles and long complement, by
    walking the long cycles."""
    _check(n, budget, "S_n")
    return _alpha_sweep(n)[1][m]


def enumerate_C(lam, budget=DEFAULT_BUDGET):
    """Count couples (beta, pi) with pi of type lam and beta in S_pi.  C
    asks for no long cycle, so n = 0 counts its one empty couple."""
    _check(lam.size, budget, "pair", long_cycle=False)
    return _pair_sweep(lam.size)[0][lam]


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

