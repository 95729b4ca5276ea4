"""Exact symmetric-function layer over the monomial and power-sum bases.

A degree-n symmetric polynomial is a dense rational coefficient vector
indexed by the partitions of n.  The m_lam coefficient of p_nu counts the
ways to drop the parts of nu into the parts of lam, filling each exactly
(Macdonald, Symmetric Functions, I.6); m_to_p solves the triangular
system these counts form.  ``evaluate`` checks both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as iperm
from math import factorial

from .counting import count_A, count_C, count_D, solve_B
from .partition import Partition, partitions_of


@dataclass(frozen=True)
class SymPoly:
    """Homogeneous symmetric polynomial tagged with its basis."""

    degree: int
    basis: str  # "m" (monomial) | "p" (power sum)
    coeffs: dict  # Partition -> Fraction; zero entries may be omitted

    def __post_init__(self):
        if self.basis not in ("m", "p"):
            raise ValueError("basis must be 'm' or 'p'")
        clean = {lam: Fraction(c) for lam, c in self.coeffs.items()
                 if Fraction(c) != 0}
        for lam in clean:
            if lam.size != self.degree:
                raise ValueError("index %r has wrong degree" % (lam,))
        object.__setattr__(self, "coeffs", clean)

    def __getitem__(self, lam):
        return self.coeffs.get(lam, Fraction(0))

    def __add__(self, other):
        if (self.degree, self.basis) != (other.degree, other.basis):
            raise ValueError("degree/basis mismatch")
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymPoly(self.degree, self.basis, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return SymPoly(self.degree, self.basis,
                       {lam: c * v for lam, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, SymPoly)
                and (self.degree, self.basis) == (other.degree, other.basis)
                and self.coeffs == other.coeffs)


@lru_cache(maxsize=None)
def _fill(parts, room):
    """Ways to drop each of ``parts`` into a slot of ``room`` (same total)
    so that every slot is filled exactly: the m_room coefficient of p_parts.
    The count is symmetric in the slots, so ``room`` is kept sorted."""
    if not parts:
        return 1
    first, rest = parts[0], parts[1:]
    total = 0
    for i, r in enumerate(room):
        if r == first:  # the slot is full: drop it
            total += _fill(rest, room[:i] + room[i + 1:])
        elif r > first:
            left = sorted(room[:i] + (r - first,) + room[i + 1:], reverse=True)
            total += _fill(rest, tuple(left))
    return total


def p_to_m(f):
    """Rewrite a power-sum-basis polynomial in the monomial basis."""
    if f.basis != "p":
        raise ValueError("expected power-sum basis input")
    return SymPoly(f.degree, "m", {
        lam: sum(c * _fill(nu, lam) for nu, c in f.coeffs.items())
        for lam in partitions_of(f.degree)})


def m_to_p(f):
    """Rewrite a monomial-basis polynomial in the power-sum basis.

    p_nu has m_lam terms only for lam coarser than nu, so in increasing
    lexicographic order each m_lam equation meets one new unknown, p_lam,
    with coefficient _fill(lam, lam) = Aut(lam)."""
    if f.basis != "m":
        raise ValueError("expected monomial basis input")
    out = {}
    for lam in reversed(list(partitions_of(f.degree))):
        out[lam] = (f[lam] - sum(b * _fill(nu, lam)
                                 for nu, b in out.items())) / lam.aut()
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
            out[tgt] = out.get(tgt, Fraction(0)) + c * i * m
    return SymPoly(f.degree + 1, "p", out)


def elementary_in_p(n):
    """e_n = sum_{nu of n} (-1)^{n - len(nu)} p_nu / z_nu."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = {nu: Fraction((-1) ** (n - nu.length), nu.z())
              for nu in partitions_of(n)}
    return SymPoly(n, "p", coeffs)


def evaluate(f, xs):
    """Evaluate at a rational point (remaining variables are zero)."""
    xs = [Fraction(x) for x in xs]
    total = Fraction(0)
    for lam, c in f.coeffs.items():
        if f.basis == "p":
            v = Fraction(1)
            for k in lam:
                v *= sum(x ** k for x in xs)
        else:
            if lam.length > len(xs):
                continue
            padded = lam + (0,) * (len(xs) - lam.length)
            v = sum(_prodpow(xs, expo) for expo in set(iperm(padded)))
        total += c * v
    return total


def _prodpow(xs, expo):
    v = Fraction(1)
    for x, e in zip(xs, expo):
        v *= x ** e
    return v


# ---------------------------------------------------------------------------
# Identity verifiers


def _report(name, n, pairs):
    """pairs: list of (label, lhs, rhs); exact comparison."""
    diffs = [{"index": label, "lhs": str(l), "rhs": str(r)}
             for label, l, r in pairs if l != r]
    return {"check": name, "n": n, "ok": not diffs, "diffs": diffs}


def _count_sum_m(n, values):
    """sum_lam values(lam) * Aut(lam) * m_lam as a SymPoly."""
    return SymPoly(n, "m", {lam: Fraction(values(lam) * lam.aut())
                            for lam in partitions_of(n)})


def verify_C2A(n):
    """sum_mu C(mu) Aut(mu) m_mu = sum_nu A(nu) p_nu, coefficient-exact."""
    lhs = _count_sum_m(n, count_C)
    rhs = p_to_m(SymPoly(n, "p", {nu: Fraction(count_A(nu))
                                  for nu in partitions_of(n)}))
    return _report("C2A", n,
                   [(lam.exponential(), lhs[lam], rhs[lam])
                    for lam in partitions_of(n)])


def verify_D2B(n):
    """sum_lam D(lam) Aut(lam) m_lam = sum_pi B(pi) p_pi, coefficient-exact."""
    B = solve_B(n)
    lhs = _count_sum_m(n, count_D)
    rhs = p_to_m(SymPoly(n, "p", {pi: Fraction(B[pi])
                                  for pi in partitions_of(n)}))
    return _report("D2B", n,
                   [(lam.exponential(), lhs[lam], rhs[lam])
                    for lam in partitions_of(n)])


def verify_reduction(n):
    """The degree-(n+1) reduction identity and its coefficient extraction.

    sum_{mu of n+1} C(mu) Aut(mu) m_mu - (n+1)! m_{1^{n+1}}
        = (n+1) * delta( sum_{lam of n} Aut(lam) D(lam) m_lam ),
    and extracting p_mu coefficients reproduces the triangular-system
    equation for every mu of n+1.
    """
    d = n + 1
    ones = Partition([1] * d)
    lhs_m = _count_sum_m(d, count_C) - SymPoly(
        d, "m", {ones: Fraction(factorial(d))})
    lhs = m_to_p(lhs_m)
    rhs = delta(m_to_p(_count_sum_m(n, count_D))).scale(d)
    pairs = [(nu.exponential(), lhs[nu], rhs[nu]) for nu in partitions_of(d)]

    # coefficient extraction against the main counting equation:
    # A(mu)(1 + (-1)^(n - len(mu))) = (n+1) sum_{lam: mu = lam^(up i)}
    #                                 i * m_i(lam) * B(lam)
    B = solve_B(n)
    for mu in partitions_of(d):
        lhs_c = count_A(mu) * (1 + (-1) ** ((n - mu.length) % 2))
        rhs_c = 0
        for j in sorted(set(mu)):
            if j >= 2:
                lam = mu.down(j)
                rhs_c += (j - 1) * lam.multiplicity(j - 1) * B[lam]
        rhs_c *= d
        pairs.append(("extract " + mu.exponential(), lhs_c, rhs_c))
    return _report("reduction", n, pairs)
