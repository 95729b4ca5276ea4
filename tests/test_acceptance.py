"""End-to-end acceptance checks.

Each numbered criterion is a single test that prints exactly one
``ACCEPTANCE k <name>: PASS|FAIL`` line (written through the capture so
it is always visible) and then asserts.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from thorntrees.bijection import (
    aux_graph,
    classify,
    contract,
    expand,
    proportion_stats,
    psi,
    psi_inverse,
    psi_label,
)
from thorntrees.counting import (
    check_lift_recurrence,
    count_Bprime,
    count_C,
    count_D,
    count_ST,
    solve_B,
    stirling1_unsigned,
)
from thorntrees.oracle import (
    enumerate_Bprime,
    enumerate_CD,
    enumerate_ST,
    reformulation_probability,
)
from thorntrees.partition import Partition, partitions_of
from thorntrees.perm import Permutation, canonical_long_cycle, compose
from thorntrees.structures import (
    all_permuted_trees,
    all_star_maps,
    deserialize,
    serialize,
)
from thorntrees.symfun import verify_C2A, verify_D2B, verify_reduction


def report(capsys, num, name, ok):
    with capsys.disabled():
        print("ACCEPTANCE %d %s: %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %d (%s) failed" % (num, name)


def fixture(name):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    return deserialize((root / name).read_text())


def test_criterion_1_zagier(capsys):
    ok = True
    for n in range(1, 8):
        for m in range(1, n + 1):
            b = enumerate_Bprime(n, m)
            if m % 2 == n % 2:
                ok = ok and n * (n + 1) // 2 * b == stirling1_unsigned(
                    n + 1, m)
            else:
                ok = ok and b == 0
    for n in range(1, 21):
        table = solve_B(n)
        for m in range(1, n + 1):
            b = sum(v for lam, v in table.entries.items() if len(lam) == m)
            ok = ok and count_Bprime(n, m) == b
            if m % 2 == n % 2:
                ok = ok and n * (n + 1) // 2 * b == stirling1_unsigned(
                    n + 1, m)
            else:
                ok = ok and b == 0
    report(capsys, 1, "zagier identity", ok)


def test_criterion_2_main_counts(capsys):
    ok = True
    for n in range(1, 8):
        table = solve_B(n)
        for lam in partitions_of(n):
            from thorntrees.oracle import enumerate_B
            ok = ok and table[lam] == enumerate_B(lam)
            if len(lam) % 2 != n % 2:
                ok = ok and table[lam] == 0
    report(capsys, 2, "solver matches brute-force B", ok)


def test_criterion_3_probability(capsys):
    ok = True
    for n in range(1, 7):
        for lam in partitions_of(n):
            got = reformulation_probability(lam)
            want = Fraction(1, n - len(lam) + 1)
            ok = ok and got == want and got.denominator == want.denominator
    report(capsys, 3, "reformulation probability", ok)


def test_criterion_4_bijection(capsys):
    ok = True
    for n in range(1, 7):
        for lam in partitions_of(n):
            p = len(lam)
            images = set()
            maps = 0
            for m in all_star_maps(lam):
                maps += 1
                t = psi(m)
                images.add(serialize(t))
                out = psi_inverse(t)
                ok = ok and out.success and out.map == m
            ok = ok and len(images) == maps  # injectivity
            image_count = sum(
                1 for t in all_permuted_trees(lam)
                if (classify(t).kind == "image") == psi_inverse(t).success
                and classify(t).kind == "image")
            agree = all(
                (classify(t).kind == "image") == psi_inverse(t).success
                for t in all_permuted_trees(lam))
            ok = ok and agree
            ok = ok and image_count == count_D(lam)
            ok = ok and count_D(lam) * (n - p + 1) == count_C(lam)
    report(capsys, 4, "bijection and image count", ok)


def test_criterion_5_proportions(capsys):
    ok = True
    for n in range(1, 7):
        for lam in partitions_of(n):
            p = len(lam)
            P, Pp, _ = proportion_stats(lam)
            ok = ok and P == Fraction(1, n - p + 1)
            ok = ok and Pp == Fraction(n, p * (n - p + 1))
            total = with_p1 = 0
            for t in all_permuted_trees(lam):
                total += 1
                with_p1 += t.tree.white[0] is not None
            ok = ok and Fraction(with_p1, total) == Fraction(p, n)
    report(capsys, 5, "image proportions", ok)


def test_criterion_6_contraction(capsys):
    ok = True
    for n in range(2, 6):
        for mu in partitions_of(n):
            if len(mu) < 2:
                continue
            left = {}
            for t in all_permuted_trees(mu):
                if classify(t).kind == "no_p1":
                    continue
                g = aux_graph(t)
                for v in range(t.tree.p):
                    if v == g.root or g.out[v] == v:
                        continue
                    j = t.tree.degree(g.out[v])
                    k = t.tree.degree(v)
                    left.setdefault((j, k), []).append((t, v))
            # every ordered degree pair realizable by two distinct vertices
            pairs = set()
            for j, k in combinations_with_replacement(set(mu.parts), 2):
                if j != k or mu.count(j) >= 2:
                    pairs.add((j, k))
                    pairs.add((k, j))
            for j, k in sorted(pairs):
                parts = list(mu.parts)
                parts.remove(j)
                parts.remove(k)
                parts.append(j + k - 1)
                mu_down = Partition(sorted(parts, reverse=True))
                right = sum(
                    j * mu_down.count(j + k - 1)
                    for t2 in all_permuted_trees(mu_down)
                    if t2.tree.white[0] is not None)
                insts = left.get((j, k), [])
                images = set()
                for t, v in insts:
                    smaller, elem = contract(t, v)
                    ok = ok and smaller.type_of() == mu_down
                    # P2 status preserved in both directions
                    ok = ok and classify(smaller).kind == classify(t).kind
                    images.add((serialize(smaller), elem))
                    back, r = expand(smaller, elem, k)
                    ok = ok and back == t and r == v
                ok = ok and len(images) == len(insts) == right
    report(capsys, 6, "contraction bijection", ok)


def test_criterion_7_counting_consistency(capsys):
    ok = True
    for n in range(1, 9):
        for mu in partitions_of(n):
            ok = ok and enumerate_ST(mu) == count_ST(mu)
    for n in range(1, 7):
        for lam in partitions_of(n):
            ok = ok and enumerate_CD(lam) == (count_C(lam), count_D(lam))
    for n in range(1, 8):
        for lam in partitions_of(n):
            for i in set(lam.parts):
                ok = ok and check_lift_recurrence(lam, i)
    report(capsys, 7, "counting consistency", ok)


def test_criterion_8_symmetric_functions(capsys):
    ok = True
    for n in range(1, 13):
        ok = (ok and verify_C2A(n)["ok"] and verify_D2B(n)["ok"]
              and verify_reduction(n)["ok"])
    report(capsys, 8, "symmetric-function identities", ok)


def test_criterion_9_fixtures(capsys):
    ok = True
    m = fixture("example21.json")
    alpha = compose(canonical_long_cycle(m.n), m.beta.inverse())
    ok = ok and alpha == Permutation((2, 6, 1, 5, 3, 7, 4))
    lt = psi_label(m)
    big = lt.tree.blacks.index(3)
    edge_label = lt.white_labels[lt.tree.edge_slot(big)]
    ok = ok and lt.black_labels[big][::-1] + (edge_label,) == (1, 6, 7, 3)
    out = psi_inverse(psi(m))
    ok = ok and out.success and out.map == m

    t = fixture("ex1.json")
    out = psi_inverse(t)
    ok = ok and out.success
    mm = out.map
    alpha = compose(canonical_long_cycle(mm.n), mm.beta.inverse())
    ok = ok and alpha == Permutation((3, 4, 2, 5, 1))  # (1 3 2 4 5)
    ok = ok and mm.beta == Permutation((3, 1, 2, 4, 5))  # (1 3 2)
    ok = ok and mm.pi.blocks == ((1, 2, 3), (4, 5))
    report(capsys, 9, "worked-example fixtures", ok)
