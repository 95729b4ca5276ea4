"""Exact counting formulas and the triangular solver for the B family.

Families over partitions of n:
  A(mu)  permutations of type mu                       -> n!/z_mu
  B(lam) ... whose complement against (1 2 .. n) is a long cycle
  C(mu)  black-partitioned maps of type mu             -> (n-p)! * ST(mu)
  D(lam) black-partitioned star maps of type lam       -> C(lam)/(n-p+1)
  ST(mu) star thorn trees of type mu
All arithmetic is exact; any non-integral intermediate raises.  A
CountTable holds a family's values; the CLI prints them.
"""

from functools import lru_cache
from math import comb, factorial

from . import oracle
from .partition import Value, partitions_of


class InexactDivisionError(oracle.InternalCheckError, ArithmeticError):
    """A division that must be exact by theory was not: internal inconsistency."""


def _exact_div(num, den):
    if num % den != 0:
        raise InexactDivisionError("%d is not divisible by %d" % (num, den))
    return num // den


def stirling1_unsigned(n, k):
    """Number of permutations of [n] with k cycles.

    Recurrence s(n,k) = s(n-1,k-1) + (n-1)*s(n-1,k), s(0,0)=1.
    """
    if n < 0 or k < 0:
        raise ValueError("negative arguments")
    if k > n:
        return 0
    return stirling1_row(n)[k]


def stirling1_row(n):
    """The full row [s(n,0), s(n,1), ..., s(n,n)]."""
    if n < 0:
        raise ValueError("negative n")
    row = [1]
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for k in range(1, m + 1):
            new[k] = row[k - 1] + (m - 1) * (row[k] if k <= m - 1 else 0)
        row = new
    return row


def count_A(mu):
    """n!/z_mu: permutations of {1..n} with cycle type mu."""
    return _exact_div(factorial(mu.size), mu.z())


def count_ST(mu):
    """Closed form for the number of star thorn trees of type mu.

    binomial(N,p) * p! / prod_i m_i(mu)! -- validated against the
    brute-force enumerator for every mu of size <= 8 (see tests).
    """
    n, p = mu.size, len(mu)
    return _exact_div(comb(n, p) * factorial(p), mu.aut())


def count_C(mu):
    """(N-p)! * ST(mu): black-partitioned maps of type mu."""
    return factorial(mu.size - len(mu)) * count_ST(mu)


def count_D(lam):
    """C(lam)/(N-p+1): black-partitioned star maps of type lam.  A star
    map needs the long cycle (1 2 .. N), so N = 0 is refused, as the
    oracle refuses it."""
    if not lam:
        raise ValueError("the long cycle (1 2 .. n) needs n >= 1")
    return _exact_div(count_C(lam), lam.size - len(lam) + 1)


class CountTable(Value):
    """Values of one counting family (A | B | C | D | ST) over all
    partitions of n, with their provenance (formula | solver | oracle).
    It holds the values only; the CLI prints them."""

    __slots__ = _fields = ("n", "family", "entries", "provenance")

    def __init__(self, n, family, entries, provenance="formula"):
        super().__init__(n, family, entries, provenance)

    def __getitem__(self, lam):
        return self.entries[lam]

    def rows(self):
        """(partition, value) pairs in decreasing lexicographic order."""
        return sorted(self.entries.items(), reverse=True)


def table_for(family, n, budget=None):
    """CountTable of family A | C | D | ST from the closed forms or, given
    an oracle ``budget``, of A | B | C | D | ST from brute-force sweeps
    (refused when n exceeds the budget)."""
    if budget is None:
        provenance = "formula"
        count = {"A": count_A, "C": count_C, "D": count_D,
                 "ST": count_ST}.get(family)
    else:
        provenance = "oracle"
        count = {"A": lambda lam: oracle.enumerate_A(lam, budget),
                 "B": lambda lam: oracle.enumerate_B(lam, budget),
                 "C": lambda lam: oracle.enumerate_C(lam, budget),
                 "D": lambda lam: oracle.enumerate_CD(lam, budget)[1],
                 "ST": lambda lam: oracle.enumerate_ST(lam, budget)}.get(family)
    if count is None:
        raise ValueError("unknown family %r" % family)
    return CountTable(n, family, {lam: count(lam) for lam in partitions_of(n)},
                      provenance)


def solve_B(n):
    """All B(lam) for lam of n, by the sparse triangular system.

    Partitions are processed in decreasing lexicographic order.  For lam of
    the right parity, the defining equation is instantiated at
    mu = lam^{up(lam_1)}:

        (n+1)/2 * sum_{lam' = mu^{down(j)}, j>=2} (j-1) m_{j-1}(lam') B(lam')
            = A(mu),

    where the only unknown is lam' = lam (coefficient lam_1 * m_{lam_1}(lam));
    every other lam' is lexicographically larger, hence already solved.
    Off-parity entries are 0.  Multiplied through by n+1, each equation
    is in integers, and B(lam) is one exact division.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    B = {}
    for lam in partitions_of(n):
        if len(lam) % 2 != n % 2:
            B[lam] = 0
            continue
        mu = lam.up(lam[0])
        known = 0
        coeff = None
        for j in sorted(set(mu)):
            if j < 2:
                continue
            lamp = mu.down(j)
            i = j - 1
            if lamp == lam:
                coeff = i * lam.count(i)
            else:
                known += i * lamp.count(i) * B[lamp]
        pivot = lam[0] * lam.count(lam[0])
        if coeff != pivot:
            raise InexactDivisionError(
                "pivot of B(%r) is %r, expected %d" % (lam, coeff, pivot))
        val = _exact_div(2 * count_A(mu) - (n + 1) * known, (n + 1) * pivot)
        if val < 0:
            raise InexactDivisionError("negative B(%r) = %d" % (lam, val))
        B[lam] = val
    return CountTable(n, "B", B, provenance="solver")


def count_Bprime(n, m):
    """B'(n,m) = sum of B(lam) over lam of n with m parts."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    return _bprime_row(n)[m]


@lru_cache(maxsize=1)
def _bprime_row(n):
    """(0, B'(n,1), ..., B'(n,n)) from one solve of B(n); the last n is
    kept, as every command reads one n."""
    row = [0] * (n + 1)
    for lam, v in solve_B(n).entries.items():
        row[len(lam)] += v
    return tuple(row)


def verify_zagier(n):
    """Check n(n+1)/2 * B'(n,m) = s(n+1,m) for every m (Zagier's identity).

    Off-parity m must give B'(n,m) = 0.  Returns one dict per m: its
    ``check`` name, the ``expected`` and ``actual`` sides compared, and
    ``ok``.
    """
    row = _bprime_row(n)
    srow = stirling1_row(n + 1)
    out = []
    for m in range(1, n + 1):
        bp = row[m]
        if m % 2 == n % 2:
            check, expected, actual = "zagier", srow[m], n * (n + 1) // 2 * bp
        else:
            check, expected, actual = "offparity", 0, bp
        out.append({"m": m, "Bprime": bp, "stirling": srow[m],
                    "check": "%s m=%d" % (check, m), "expected": expected,
                    "actual": actual, "ok": expected == actual})
    return out


def check_lift_recurrence(lam, i):
    """Thorn-lift recurrence relating ST(lam) and ST(lam^{up(i)}).

    ST(mu)*(N+1-p)!*i*m_{i+1}(mu) = (N+1)*i*m_i(lam)*ST(lam)*(N-p)!
    with mu = lam^{up(i)}.
    """
    if i not in lam:
        raise ValueError("no part %d in %r" % (i, lam))
    mu = lam.up(i)
    n, p = lam.size, len(lam)
    lhs = count_ST(mu) * factorial(n + 1 - p) * i * mu.count(i + 1)
    rhs = (n + 1) * i * lam.count(i) * count_ST(lam) * factorial(n - p)
    return lhs == rhs
