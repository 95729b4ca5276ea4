"""Exact symmetric-function layer over the monomial and power-sum bases.

A degree-n symmetric polynomial is a sparse map from the partitions of n
to exact coefficients: ``int``, or ``Fraction`` only where a coefficient
is really non-integral, so ``fractions`` is imported only then.  The m_lam
coefficient of p_nu counts the ways to drop the parts of nu into the parts
of lam, filling each exactly (Macdonald, Symmetric Functions, I.6);
``_row`` lists these counts for one nu, keyed by ``Partition`` as every
polynomial is, and ``p_to_m`` and ``m_to_p`` are the two directions over
those rows.  ``evaluate`` checks both.  All rows share one key object
per partition (``_partition``).  The layer keeps no list of partitions of
its own: it walks ``partitions_of`` where it needs every partition of a
degree.  It caches no solve either: ``verify_D2B`` and ``verify_reduction``
each call ``counting.solve_B``.
"""

from functools import cache
from itertools import permutations as iperm
from math import factorial

from .counting import count_A, count_C, count_D, solve_B
from .partition import (Partition, Value, _require_ints, _trusted_partition,
                        partitions_of)


def _exact(c):
    """An int or a Fraction as an int when it is whole, else as it is."""
    if type(c) is int:
        return c
    from fractions import Fraction

    if not isinstance(c, Fraction):
        raise ValueError("coefficients must be int or Fraction, found %r"
                         % (c,))
    return c.numerator if c.denominator == 1 else c


class SymPoly(Value):
    """Homogeneous symmetric polynomial tagged with its basis: ``basis`` is
    "m" (monomial) or "p" (power sum), and ``coeffs`` maps a Partition of
    ``degree`` to its coefficient, an int or a non-integral Fraction (zero
    entries are dropped)."""

    __slots__ = _fields = ("degree", "basis", "coeffs")

    def __init__(self, degree, basis, coeffs):
        if basis not in ("m", "p"):
            raise ValueError("basis must be 'm' or 'p'")
        _require_ints([degree], "degree")
        clean = {}
        for lam, c in coeffs.items():
            if not isinstance(lam, Partition) or lam.size != degree:
                raise ValueError("index %r is not a Partition of %d"
                                 % (lam, degree))
            c = _exact(c)
            if c:
                clean[lam] = c
        super().__init__(degree, basis, clean)

    def __getitem__(self, lam):
        return self.coeffs.get(lam, 0)

    def __add__(self, other):
        if (self.degree, self.basis) != (other.degree, other.basis):
            raise ValueError("degree/basis mismatch")
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, 0) + c
        return SymPoly(self.degree, self.basis, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = _exact(c)
        return SymPoly(self.degree, self.basis,
                       {lam: c * v for lam, v in self.coeffs.items()})


# the one Partition of each tuple of parts that _row sorts: no validation
_partition = cache(_trusted_partition)


@cache
def _row(nu):
    """The m-expansion of p_nu as a dict {lam: [m_lam] p_nu}.  Each lam is
    ``_partition`` of its parts: one shared object across all rows.

    p_nu = p_k * p_rest with k = nu[0].  Multiplying m_mu by p_k adds k to
    one part of a monomial: to a part of value v of mu, or as a new part
    (v = 0).  The m_lam it gives, lam holding v + k in place of v, has
    coefficient m_{v+k}(lam), the number of parts of lam that can have
    received k.  Diagonal: [m_nu] p_nu = Aut(nu)."""
    if not nu:
        return {_partition(()): 1}
    k = nu[0]
    out = {}
    for mu, c in _row(nu[1:]).items():
        for i, v in enumerate(mu + (0,)):
            if i and mu[i - 1] == v:  # an equal part gives the same lam
                continue
            lam = _partition(tuple(sorted(mu[:i] + (v + k,) + mu[i + 1:],
                                          reverse=True)))
            out[lam] = out.get(lam, 0) + c * lam.count(v + k)
    return out


def p_to_m(f):
    """Rewrite a power-sum-basis polynomial in the monomial basis."""
    if f.basis != "p":
        raise ValueError("expected power-sum basis input")
    out = {}
    for nu, c in f.coeffs.items():
        for lam, k in _row(nu).items():
            out[lam] = out.get(lam, 0) + c * k
    return SymPoly(f.degree, "m", out)


def m_to_p(f):
    """Rewrite a monomial-basis polynomial in the power-sum basis.

    p_lam has m-terms only at lam and at partitions coarser than lam,
    which come later in increasing lexicographic order.  So in that
    order the m_lam coefficient left over is Aut(lam) times the p_lam
    coefficient, and subtracting that multiple of p_lam clears it.  The
    division is in integers whenever Aut(lam) divides the value."""
    if f.basis != "m":
        raise ValueError("expected monomial basis input")
    rest = dict(f.coeffs)
    out = {}
    for lam in sorted(partitions_of(f.degree)):
        c = rest.get(lam)
        if not c:
            continue
        row = _row(lam)
        aut = row[lam]
        if type(c) is int and c % aut == 0:
            b = c // aut
        else:
            from fractions import Fraction

            b = Fraction(c, aut)
        out[lam] = b
        for mu, k in row.items():
            rest[mu] = rest.get(mu, 0) - b * k
    return SymPoly(f.degree, "p", out)


def delta(f):
    """The derivation sum_i x_i^2 d/dx_i on the power-sum basis.

    delta(p_pi) = sum_i i * m_i(pi) * p_{pi^{up(i)}}; raises degree by 1.
    """
    if f.basis != "p":
        raise ValueError("delta needs power-sum basis input; convert first")
    out = {}
    for pi, c in f.coeffs.items():
        for i, m in pi.multiplicities().items():
            tgt = pi.up(i)
            out[tgt] = out.get(tgt, 0) + c * i * m
    return SymPoly(f.degree + 1, "p", out)


def elementary_in_p(n):
    """e_n = sum_{nu of n} (-1)^{n - len(nu)} p_nu / z_nu."""
    from fractions import Fraction

    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = {nu: Fraction((-1) ** (n - len(nu)), nu.z())
              for nu in partitions_of(n)}
    return SymPoly(n, "p", coeffs)


def evaluate(f, xs):
    """Evaluate at a rational point (remaining variables are zero)."""
    from fractions import Fraction

    xs = [Fraction(x) for x in xs]
    total = Fraction(0)
    for lam, c in f.coeffs.items():
        if f.basis == "p":
            v = Fraction(1)
            for k in lam:
                v *= sum(x ** k for x in xs)
        else:
            if len(lam) > len(xs):
                continue
            padded = lam + (0,) * (len(xs) - len(lam))
            v = sum(_prodpow(xs, expo) for expo in set(iperm(padded)))
        total += c * v
    return total


def _prodpow(xs, expo):
    v = 1
    for x, e in zip(xs, expo):
        v *= x ** e
    return v


# ---------------------------------------------------------------------------
# Identity verifiers


def _diffs(pairs, prefix=""):
    """The (lam, lhs, rhs) triples with lhs != rhs, as report entries
    indexed by lam in exponential notation; exact comparison."""
    return [{"index": prefix + lam.exponential(), "lhs": str(l),
             "rhs": str(r)} for lam, l, r in pairs if l != r]


def _compare(n, lhs, rhs):
    """Entries of lhs and rhs that differ, for lam of n in decreasing
    lexicographic order."""
    return _diffs((lam, lhs[lam], rhs[lam]) for lam in partitions_of(n))


def _report(name, n, diffs):
    return {"check": name, "n": n, "ok": not diffs, "diffs": diffs}


def _aut_weighted(n, count):
    """sum_lam count(lam) * Aut(lam) * m_lam as a SymPoly."""
    return SymPoly(n, "m", {lam: count(lam) * lam.aut()
                            for lam in partitions_of(n)})


def verify_C2A(n):
    """sum_mu C(mu) Aut(mu) m_mu = sum_nu A(nu) p_nu, coefficient-exact."""
    lhs = _aut_weighted(n, count_C)
    rhs = p_to_m(SymPoly(n, "p", {nu: count_A(nu)
                                  for nu in partitions_of(n)}))
    return _report("C2A", n, _compare(n, lhs, rhs))


def verify_D2B(n):
    """sum_lam D(lam) Aut(lam) m_lam = sum_pi B(pi) p_pi, coefficient-exact."""
    B = solve_B(n)
    lhs = _aut_weighted(n, count_D)
    rhs = p_to_m(SymPoly(n, "p", B.entries))
    return _report("D2B", n, _compare(n, lhs, rhs))


def verify_reduction(n):
    """The degree-(n+1) reduction identity and its coefficient extraction.

    sum_{mu of n+1} C(mu) Aut(mu) m_mu - (n+1)! m_{1^{n+1}}
        = (n+1) * delta( sum_{lam of n} Aut(lam) D(lam) m_lam ),
    and extracting p_mu coefficients reproduces the triangular-system
    equation for every mu of n+1.
    """
    d = n + 1
    ones = Partition([1] * d)
    lhs_m = _aut_weighted(d, count_C) - SymPoly(d, "m", {ones: factorial(d)})
    lhs = m_to_p(lhs_m)
    rhs = delta(m_to_p(_aut_weighted(n, count_D))).scale(d)

    # coefficient extraction against the main counting equation:
    # A(mu)(1 + (-1)^(n - len(mu))) = (n+1) sum_{lam: mu = lam^(up i)}
    #                                 i * m_i(lam) * B(lam)
    B = solve_B(n)
    pairs = []
    for mu in partitions_of(d):
        lhs_c = count_A(mu) * (1 + (-1) ** ((n - len(mu)) % 2))
        rhs_c = 0
        for j in sorted(set(mu)):
            if j >= 2:
                lam = mu.down(j)
                rhs_c += (j - 1) * lam.count(j - 1) * B[lam]
        rhs_c *= d
        pairs.append((mu, lhs_c, rhs_c))
    return _report("reduction", n,
                   _compare(d, lhs, rhs) + _diffs(pairs, "extract "))
