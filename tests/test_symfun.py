import hashlib
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from thorntrees.partition import Partition, partitions_of
from thorntrees.symfun import (
    SymPoly,
    delta,
    elementary_in_p,
    evaluate,
    m_to_p,
    p_to_m,
    verify_C2A,
    verify_D2B,
    verify_reduction,
)


def P(*parts):
    return Partition(parts)


def test_p_to_m_small():
    # p_1^2 = m_2 + 2 m_{1,1}
    f = p_to_m(SymPoly(2, "p", {P(1, 1): 1}))
    assert f[P(2)] == 1 and f[P(1, 1)] == 2
    # p_2 = m_2
    g = p_to_m(SymPoly(2, "p", {P(2): 1}))
    assert g == SymPoly(2, "m", {P(2): 1})
    # p_2 p_1 = m_3 + m_{2,1}
    h = p_to_m(SymPoly(3, "p", {P(2, 1): 1}))
    assert h == SymPoly(3, "m", {P(3): 1, P(2, 1): 1})


@pytest.mark.parametrize("n", range(1, 13))
def test_p_to_m_closed_forms(n):
    # p_1^n = sum n!/prod(lam_i!) m_lam ; p_n = m_(n) ; [m_nu] p_nu = Aut(nu)
    ones = p_to_m(SymPoly(n, "p", {Partition([1] * n): 1}))
    assert p_to_m(SymPoly(n, "p", {P(n): 1})) == SymPoly(n, "m", {P(n): 1})
    for lam in partitions_of(n):
        assert ones[lam] == factorial(n) // prod(factorial(k) for k in lam)
        assert p_to_m(SymPoly(n, "p", {lam: 1}))[lam] == lam.aut()


@pytest.mark.parametrize("n", range(1, 7))
def test_p_to_m_agrees_with_evaluation(n):
    xs = [Fraction((-1) ** k * (k + 2), k + 1) for k in range(n)]
    for nu in partitions_of(n):
        f = SymPoly(n, "p", {nu: 1})
        assert evaluate(p_to_m(f), xs) == evaluate(f, xs)


def test_m_to_p_small():
    # m_{1,1} = (p_1^2 - p_2) / 2, with non-integral Fraction coefficients
    f = m_to_p(SymPoly(2, "m", {P(1, 1): 1}))
    assert f.coeffs == {P(1, 1): Fraction(1, 2), P(2): Fraction(-1, 2)}
    assert all(type(c) is Fraction for c in f.coeffs.values())


def test_integral_coefficients_come_back_as_int():
    # 2 m_{1,1} = p_1^2 - p_2, and p_to_m of a Fraction input that sums to
    # whole numbers: no coefficient stays a Fraction once it is whole
    f = m_to_p(SymPoly(2, "m", {P(1, 1): 2}))
    assert f.coeffs == {P(1, 1): 1, P(2): -1}
    g = p_to_m(SymPoly(2, "p", {P(1, 1): Fraction(1, 2),
                                P(2): Fraction(-1, 2)}))
    assert g.coeffs == {P(1, 1): 1}
    assert SymPoly(1, "p", {P(1): Fraction(4, 2)}).coeffs == {P(1): 2}
    for h in (f, g, p_to_m(SymPoly(5, "p", {P(3, 2): 7}))):
        assert all(type(c) is int for c in h.coeffs.values())


# sha256 of the sorted ((basis, input, key), coefficient) lines of
# p_to_m(p_nu) and m_to_p(m_lam) for every nu, lam of d <= 8, over plain
# tuples; captured while the rows were keyed by plain tuples and re-keyed
# to Partitions afterwards
TRANSITIONS_8_SHA256 = (
    "95fe6876bdd0c750f5d421c971b387dccc184cfa615868be641219fa2fa5f7c6")


def test_transition_coefficients_pinned():
    pairs = []
    for d in range(9):
        for lam in partitions_of(d):
            for basis, convert in (("p", p_to_m), ("m", m_to_p)):
                f = convert(SymPoly(d, basis, {lam: 1}))
                for mu, c in f.coeffs.items():
                    assert type(mu) is Partition and mu.size == d
                    pairs.append(((basis, tuple(lam), tuple(mu)), str(c)))
    text = "".join("%r %s\n" % pair for pair in sorted(pairs))
    assert len(pairs) == 794
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSITIONS_8_SHA256


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_roundtrip(n):
    for lam in partitions_of(n):
        f = SymPoly(n, "p", {lam: Fraction(3, 7)})
        assert m_to_p(p_to_m(f)) == f
        g = SymPoly(n, "m", {lam: 1})
        assert p_to_m(m_to_p(g)) == g


@pytest.mark.parametrize("n", range(1, 7))
def test_roundtrip_agrees_with_evaluation(n):
    xs = [Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(3)][: n]
    for lam in partitions_of(n):
        f = SymPoly(n, "m", {lam: 1})
        assert evaluate(f, xs) == evaluate(m_to_p(f), xs)


def _exact_coefficient():
    return st.one_of(st.integers(-50, 50),
                     st.fractions(min_value=-20, max_value=20,
                                  max_denominator=12))


@st.composite
def _sympolys(draw):
    n = draw(st.integers(1, 6))
    parts = list(partitions_of(n))
    keys = draw(st.lists(st.sampled_from(parts), unique=True, max_size=6))
    return n, {lam: draw(_exact_coefficient()) for lam in keys}


@settings(deadline=None, max_examples=60)
@given(_sympolys())
def test_random_exact_polynomials_roundtrip_and_evaluate(drawn):
    n, coeffs = drawn
    xs = [Fraction(1), Fraction(-2, 3), Fraction(3), Fraction(1, 2),
          Fraction(-1), Fraction(2, 5)][:n]
    f = SymPoly(n, "p", coeffs)
    g = SymPoly(n, "m", coeffs)
    assert m_to_p(p_to_m(f)) == f
    assert p_to_m(m_to_p(g)) == g
    assert evaluate(p_to_m(f), xs) == evaluate(f, xs)
    assert evaluate(m_to_p(g), xs) == evaluate(g, xs)


def test_delta_on_power_sums():
    # delta(p_1) = p_2, delta(p_2) = 2 p_3, delta(p_{1,1}) = 2 p_{2,1}
    assert delta(SymPoly(1, "p", {P(1): 1})) == SymPoly(2, "p", {P(2): 1})
    assert delta(SymPoly(2, "p", {P(2): 1})) == SymPoly(3, "p", {P(3): 2})
    assert delta(SymPoly(2, "p", {P(1, 1): 1})) == SymPoly(
        3, "p", {P(2, 1): 2})


def test_delta_requires_p_basis():
    with pytest.raises(ValueError):
        delta(SymPoly(1, "m", {P(1): 1}))


def test_delta_is_a_derivation_pointwise():
    # delta = sum_i x_i^2 d/dx_i: check against a symbolic derivative
    # at a point, via finite polynomial identity p_k -> k p_{k+1}.
    f = SymPoly(3, "p", {P(2, 1): Fraction(5), P(3): Fraction(-1, 2)})
    g = delta(f)
    assert g[P(2, 2)] == 5      # from the p_1 factor of p_{2,1}
    assert g[P(3, 1)] == 10     # from the p_2 factor
    assert g[P(4)] == Fraction(-3, 2)


def test_elementary_in_p():
    # e_2 = (p_1^2 - p_2)/2 ; e_n evaluates to 0 with fewer than n variables
    e2 = elementary_in_p(2)
    assert e2[P(1, 1)] == Fraction(1, 2) and e2[P(2)] == Fraction(-1, 2)
    for n in range(1, 6):
        en = elementary_in_p(n)
        if n > 1:
            assert evaluate(en, [Fraction(1)] * (n - 1)) == 0
        assert evaluate(en, [Fraction(1)] * n) == 1


def test_sympoly_arithmetic_and_validation():
    a = SymPoly(2, "m", {P(2): 1})
    b = SymPoly(2, "m", {P(2): -1, P(1, 1): 2})
    assert (a + b).coeffs == {P(1, 1): Fraction(2)}
    assert (a - a).coeffs == {}
    with pytest.raises(ValueError):
        SymPoly(2, "q", {})
    with pytest.raises(ValueError):
        SymPoly(2, "m", {P(3): 1})
    with pytest.raises(ValueError):
        a + SymPoly(3, "m", {P(3): 1})


def test_sympoly_refuses_a_plain_tuple_key():
    with pytest.raises(ValueError, match="not a Partition"):
        SymPoly(2, "m", {(1, 1): 1})


@pytest.mark.parametrize("c", [1.5, True, "1/2"])
def test_sympoly_refuses_a_coefficient_that_is_not_int_or_fraction(c):
    with pytest.raises(ValueError, match="int or Fraction"):
        SymPoly(2, "m", {P(1, 1): c})


@pytest.mark.parametrize("n", range(1, 13))
def test_identity_C2A(n):
    rep = verify_C2A(n)
    assert rep["ok"], rep["diffs"]


@pytest.mark.parametrize("n", range(1, 13))
def test_identity_D2B(n):
    rep = verify_D2B(n)
    assert rep["ok"], rep["diffs"]


@pytest.mark.parametrize("n", range(1, 13))
def test_identity_reduction(n):
    rep = verify_reduction(n)
    assert rep["ok"], rep["diffs"]


def test_B_cache_keeps_one_n():
    # verify_D2B and verify_reduction share one solve of n; a library
    # caller that verifies n = 5 and then n = 6 keeps only the n = 6 table
    from thorntrees import symfun

    for n in (5, 6):
        verify_D2B(n)
        misses = symfun._B.cache_info().misses
        verify_reduction(n)
        assert symfun._B.cache_info().misses == misses
    assert symfun._B.cache_info().currsize == 1


def test_report_shape():
    rep = verify_C2A(3)
    assert set(rep) == {"check", "n", "ok", "diffs"}
    assert rep["check"] == "C2A" and rep["n"] == 3


def test_power_sum_total_coefficient():
    # sum over nu of p_nu/z_nu expands to the complete homogeneous sum,
    # whose value at (1,...,1) with n ones is binom(2n-1, n)
    from math import comb
    for n in range(1, 6):
        h = SymPoly(n, "p", {nu: Fraction(1, nu.z())
                             for nu in partitions_of(n)})
        assert evaluate(h, [1] * n) == comb(2 * n - 1, n)
