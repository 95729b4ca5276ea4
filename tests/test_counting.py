import json
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from thorntrees import counting, oracle
from thorntrees.counting import (
    InexactDivisionError,
    check_lift_recurrence,
    count_A,
    count_Bprime,
    count_C,
    count_D,
    count_ST,
    solve_B,
    stirling1_row,
    stirling1_unsigned,
    verify_zagier,
)
from thorntrees.partition import Partition, partitions_of
from thorntrees.perm import all_permutations


def brute_stirling(n, k):
    return sum(1 for f in all_permutations(n) if len(f.cycles()) == k)


def test_stirling_small_values():
    assert stirling1_unsigned(4, 4) == 1
    assert stirling1_unsigned(4, 1) == 6
    assert stirling1_unsigned(4, 2) == 11  # == brute_stirling(4, 2)
    assert stirling1_unsigned(4, 2) == brute_stirling(4, 2)


@pytest.mark.parametrize("n", range(0, 7))
def test_stirling_row_matches_enumeration(n):
    row = stirling1_row(n)
    for k in range(n + 1):
        assert row[k] == brute_stirling(n, k)


def test_stirling_row_sums():
    for n in range(31):
        assert sum(stirling1_row(n)) == factorial(n)


def test_stirling_out_of_range():
    assert stirling1_unsigned(3, 5) == 0
    with pytest.raises(ValueError):
        stirling1_unsigned(-1, 0)


def test_count_A():
    for n in range(1, 8):
        assert count_A(Partition([n])) == factorial(n - 1)
    assert count_A(Partition([2, 1, 1])) == 6
    assert sum(count_A(mu) for mu in partitions_of(5)) == 120


def test_count_ST_examples():
    assert count_ST(Partition([1])) == 1
    assert count_ST(Partition([2])) == 2
    assert count_ST(Partition([2, 1])) == 6
    assert count_ST(Partition([2, 2])) == 6


@pytest.mark.parametrize("n", range(1, 10))
def test_count_ST_matches_oracle(n):
    for mu in partitions_of(n):
        assert count_ST(mu) == oracle.enumerate_ST(mu, budget=9)


def test_count_C_and_D():
    for n in range(1, 7):
        assert count_C(Partition([n])) == factorial(n)
        assert count_D(Partition([n])) == factorial(n - 1)
    assert count_C(Partition([2, 1])) == 6
    assert count_D(Partition([2, 1])) == 3


def test_C_is_D_times_gap():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert count_C(lam) == (n - len(lam) + 1) * count_D(lam)


def test_solve_B_base_cases():
    assert solve_B(3)[Partition([3])] == 1
    assert solve_B(3)[Partition([1, 1, 1])] == 1
    assert solve_B(3)[Partition([2, 1])] == 0
    assert solve_B(5)[Partition([5])] == solve_B(5)[(5,)] == 8


@pytest.mark.parametrize("n", range(1, 8))
def test_solve_B_matches_oracle(n):
    table = solve_B(n)
    for lam in partitions_of(n):
        assert table[lam] == oracle.enumerate_B(lam)
        if len(lam) % 2 != n % 2:
            assert table[lam] == 0


def test_count_Bprime():
    assert count_Bprime(3, 1) == 1
    assert count_Bprime(3, 3) == 1
    assert count_Bprime(4, 2) == 5
    with pytest.raises(ValueError):
        count_Bprime(3, 4)


def test_count_Bprime_solves_B_once_per_n(monkeypatch):
    solves = []
    monkeypatch.setattr(counting, "solve_B",
                        lambda n: solves.append(n) or solve_B(n))
    counting._bprime_row.cache_clear()
    row = [count_Bprime(9, m) for m in range(1, 10)]
    assert solves == [9]
    table = solve_B(9)
    assert row == [sum(v for lam, v in table.entries.items()
                       if len(lam) == m) for m in range(1, 10)]
    assert counting._bprime_row(9) == (0, *row)


def test_bprime_row_keeps_one_n():
    # every CLI command reads one n; a library caller that reads the rows
    # of n = 9 and then n = 8 keeps only the n = 8 row
    for n in (9, 8):
        counting._bprime_row(n)
    assert counting._bprime_row.cache_info().currsize == 1
    # and the one kept is n = 8: reading it again is a hit
    hits = counting._bprime_row.cache_info().hits
    assert count_Bprime(8, 2) == counting._bprime_row(8)[2]
    assert counting._bprime_row.cache_info().hits == hits + 2


def test_verify_zagier():
    for n in range(1, 9):
        assert all(row["ok"] for row in verify_zagier(n))
    rows = verify_zagier(5)
    assert [row["check"] for row in rows[:2]] == ["zagier m=1",
                                                  "offparity m=2"]
    # s(6, 1) = 5! and 5*6/2 * B'(5, 1) with B'(5, 1) = 8
    assert (rows[0]["expected"], rows[0]["actual"]) == (120, 15 * 8)
    assert (rows[1]["expected"], rows[1]["actual"]) == (0, 0)


def boccara_B(lam):
    """B(lam) by Boccara's closed form (Discrete Math. 1980; restated in
    Stanley, "Two enumerative results on cycles of permutations", 2011):

        (n!/z_lam) * integral_0^1 prod_i ((1-x)^{lam_i} - (-x)^{lam_i}) dx,

    with the polynomial in exact integer coefficients of 1, x, x^2, ..."""
    poly = [1]
    for k in lam:
        factor = [(-1) ** e * comb(k, e) for e in range(k)]  # x^k cancels
        product = [0] * (len(poly) + len(factor) - 1)
        for a, c in enumerate(poly):
            for b, d in enumerate(factor):
                product[a + b] += c * d
        poly = product
    integral = sum(Fraction(c, e + 1) for e, c in enumerate(poly))
    z = prod(i ** m * factorial(m) for i, m in Counter(lam).items())
    return Fraction(factorial(sum(lam)), z) * integral


def test_solver_matches_boccara_closed_form_entry_by_entry():
    checked = 0
    for n in range(1, 19):
        table = solve_B(n)
        for lam in partitions_of(n):
            assert table[lam] == boccara_B(tuple(lam)), lam
            checked += 1
    assert checked == 1596


def test_solver_inconsistency_raises(monkeypatch):
    # each patched count_A makes one equation impossible in integers
    monkeypatch.setattr(counting, "count_A", lambda mu: 1)
    with pytest.raises(InexactDivisionError, match="2 is not divisible by 6"):
        solve_B(2)
    monkeypatch.setattr(counting, "count_A",
                        lambda mu: 0 if mu == (3, 2, 1) else count_A(mu))
    with pytest.raises(InexactDivisionError,
                       match=r"negative B\(Partition\(2, 2, 1\)\) = -5"):
        solve_B(5)


def test_zagier_instances():
    assert 6 * count_Bprime(3, 1) == stirling1_unsigned(4, 1)
    assert 6 * count_Bprime(3, 3) == stirling1_unsigned(4, 3)
    assert count_Bprime(4, 2) == 2 * stirling1_unsigned(5, 2) // 20


def test_lift_recurrence():
    assert check_lift_recurrence(Partition([1]), 1)
    for n in range(1, 8):
        assert check_lift_recurrence(Partition([n]), n)
        for lam in partitions_of(n):
            for i in set(lam.parts):
                assert check_lift_recurrence(lam, i), (lam, i)


def test_lift_recurrence_missing_part():
    with pytest.raises(ValueError):
        check_lift_recurrence(Partition([3]), 2)


def test_count_D_refuses_n_0():
    # D counts star maps, which need the long cycle (1 2 .. n)
    with pytest.raises(ValueError, match=r"long cycle \(1 2 \.\. n\) needs"):
        count_D(Partition([]))


def test_table_export(capsys):
    # a CountTable holds values; the CLI prints them
    from thorntrees import cli

    assert cli.main(["table", "A", "4"]) == 0
    csv = capsys.readouterr().out.splitlines()
    assert csv[0] == "partition,value,provenance"
    assert "4^1,6,formula" in csv
    assert cli.main(["table", "A", "4", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rows"][0] == ["4^1", "6"]


@pytest.mark.parametrize("n", [0, 1, 5, 8])
def test_table_rows_decrease_lexicographically(n):
    lams = list(partitions_of(n))
    shuffled = lams[::2][::-1] + lams[1::2]  # every entry, out of order
    partial = lams[::-3]  # some entries, in increasing order
    for keys in (shuffled, partial):
        table = counting.CountTable(n, "A", {lam: count_A(lam) for lam in keys})
        rows = table.rows()
        assert [lam for lam, _ in rows] == [lam for lam in lams if lam in keys]
        assert all(v == count_A(lam) for lam, v in rows)
    # and a solved table prints in the generator's order
    if n:
        assert [lam for lam, _ in solve_B(n).rows()] == lams


def test_table_for_oracle_and_unknown_families():
    from thorntrees.counting import table_for

    t = table_for("D", 5, 6)
    assert t.provenance == "oracle"
    assert t.entries == table_for("D", 5).entries
    with pytest.raises(ValueError):
        table_for("B", 4)  # B has no closed form here: solve_B
    with pytest.raises(ValueError):
        table_for("X", 4, 8)


def test_inexact_division_guard():
    with pytest.raises(InexactDivisionError):
        from thorntrees.counting import _exact_div

        _exact_div(7, 2)


def test_table_equality_compares_entries():
    B = solve_B(5)
    assert B == counting.CountTable(5, "B", dict(B.entries), "solver")
    assert B != counting.CountTable(5, "B", {}, "solver")
    changed = dict(B.entries)
    changed[Partition([5])] += 1
    assert B != counting.CountTable(5, "B", changed, "solver")
