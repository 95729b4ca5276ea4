from fractions import Fraction

import pytest

from thorntrees.bijection import (
    NoP1Error,
    aux_graph,
    classify,
    contract,
    expand,
    proportion_stats,
    psi,
    psi_inverse,
    psi_label,
)
from thorntrees.counting import count_D
from thorntrees.partition import Partition, SetPartition, partitions_of
from thorntrees.perm import Permutation
from thorntrees.structures import (
    BlackPartitionedStarMap,
    PermutedThornTree,
    StarThornTree,
    all_permuted_trees,
    all_star_maps,
    deserialize,
    serialize,
)


def fixture(name):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    return deserialize((root / name).read_text())


def test_psi_label_worked_example():
    m = fixture("example21.json")
    lt = psi_label(m)
    assert lt.white_labels == (3, 5, 4, 7, 6, 2, 1)
    assert sorted(lt.edge_label(b) for b in range(lt.tree.p)) == [2, 3, 4]
    # the degree-4 vertex reads (1, 6, 7, 3) clockwise
    big = lt.tree.blacks.index(3)
    assert lt.clockwise_reading(big) == (1, 6, 7, 3)


def test_psi_small_example():
    beta = Permutation.from_cycles(5, [(1, 3, 2)])
    pi = SetPartition(5, [[1, 2, 3], [4, 5]])
    t = psi(BlackPartitionedStarMap(beta, pi))
    assert t == fixture("ex1.json")


def test_psi_rejects_non_star():
    beta = Permutation.from_cycles(3, [(1, 2, 3)])
    m = BlackPartitionedStarMap(beta, SetPartition(3, [[1, 2, 3]]))
    assert not m.is_star
    with pytest.raises(ValueError, match="long"):
        psi(m)


def test_psi_inverse_on_worked_example():
    t = psi(fixture("example21.json"))
    out = psi_inverse(t)
    assert out.success
    assert out.map == fixture("example21.json")


def test_psi_inverse_failure_certificate():
    t = fixture("selfloop4.json")
    assert classify(t).kind != "image"
    out = psi_inverse(t)
    assert not out.success
    assert out.certificate["collision_label"] == 1
    assert out.step is not None
    obj = out.to_json_obj()
    assert obj["status"] == "failure"


@pytest.mark.parametrize("n", range(1, 7))
def test_bijection_roundtrip_and_injectivity(n):
    for lam in partitions_of(n):
        images = set()
        maps = list(all_star_maps(lam))
        for m in maps:
            t = psi(m)
            assert t.type_of() == lam
            images.add(serialize(t))
            out = psi_inverse(t)
            assert out.success and out.map == m
        assert len(images) == len(maps) == count_D(lam)


@pytest.mark.parametrize("n", range(1, 7))
def test_classification_matches_inversion(n):
    for lam in partitions_of(n):
        image_count = 0
        for t in all_permuted_trees(lam):
            c = classify(t)
            out = psi_inverse(t)
            assert out.success == (c.kind == "image")
            if c.kind == "image":
                image_count += 1
            if c.kind == "cycle":
                # certificate names an oriented cycle in the successor graph
                g = aux_graph(t)
                cyc = c.cycle
                assert all(g.out[cyc[i]] == cyc[(i + 1) % len(cyc)]
                           for i in range(len(cyc)))
        assert image_count == count_D(lam)


def test_aux_graph_worked_example():
    t = psi(fixture("example21.json"))
    g = aux_graph(t)
    assert g.classify()[0] == "tree"
    assert g.root == t.tree.white[0]


def test_aux_graph_requires_p1():
    tree = StarThornTree((None, 0), (1,))
    t = PermutedThornTree(tree, ((0, (0, 0)),))
    with pytest.raises(NoP1Error):
        aux_graph(t)
    assert classify(t).kind == "no_p1"


@pytest.mark.parametrize("n", range(2, 6))
def test_contract_expand_roundtrip(n):
    for lam in partitions_of(n):
        if lam.length < 2:
            continue
        for t in all_permuted_trees(lam):
            if classify(t).kind == "no_p1":
                continue
            g = aux_graph(t)
            for marked in range(t.tree.p):
                if marked == g.root or g.out[marked] == marked:
                    continue
                k = t.tree.degree(marked)
                smaller, elem = contract(t, marked)
                back, r = expand(smaller, elem, k)
                assert back == t and r == marked


def test_contract_type():
    # contracting merges the marked vertex into its successor
    t = psi(fixture("example21.json"))
    g = aux_graph(t)
    for marked in range(t.tree.p):
        if marked == g.root or g.out[marked] == marked:
            continue
        smaller, _ = contract(t, marked)
        j = t.tree.degree(g.out[marked])
        k = t.tree.degree(marked)
        merged = sorted(t.type_of().parts)
        merged.remove(j)
        merged.remove(k)
        merged.append(j + k - 1)
        assert smaller.type_of() == Partition(sorted(merged, reverse=True))


def test_contract_guards():
    t = psi(fixture("example21.json"))
    g = aux_graph(t)
    with pytest.raises(ValueError, match="root"):
        contract(t, g.root)
    sl = fixture("selfloop4.json")
    gg = aux_graph(sl)
    looper = next(b for b in gg.out if gg.out[b] == b)
    with pytest.raises(ValueError, match="self-loop"):
        contract(sl, looper)


@pytest.mark.parametrize("n", range(1, 7))
def test_proportions(n):
    for lam in partitions_of(n):
        p = lam.length
        P, Pp, _ = proportion_stats(lam)
        assert P == Fraction(1, n - p + 1)
        assert Pp == Fraction(n, p * (n - p + 1))


@pytest.mark.parametrize("n", range(2, 6))
def test_p1_incidence(n):
    # among all permuted trees of type lam, a p/n fraction satisfies (P1)
    for lam in partitions_of(n):
        total = with_p1 = 0
        for t in all_permuted_trees(lam):
            total += 1
            if classify(t).kind != "no_p1":
                with_p1 += 1
        assert Fraction(with_p1, total) == Fraction(lam.length, n)


def test_p1_incidence_from_proportion_stats():
    for lam in partitions_of(5):
        assert proportion_stats(lam)[2] == Fraction(lam.length, 5)


SELF_CHECK_UNDER_O = """
import sys
from thorntrees import bijection
from thorntrees.structures import deserialize

t = bijection.psi(deserialize(open(sys.argv[1]).read()))
wrong = deserialize(open(sys.argv[2]).read())
bijection.psi = lambda m: wrong
try:
    bijection.psi_inverse(t)
except AssertionError as exc:
    print("optimize=%d raised: %s" % (sys.flags.optimize, exc))
"""


def test_inverse_self_check_survives_python_O():
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECK_UNDER_O,
         str(root / "fixtures" / "example21.json"),
         str(root / "fixtures" / "selfloop4.json")],
        capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "optimize=1 raised: inverse self-check failed\n"


def test_empty_tree():
    t = PermutedThornTree(StarThornTree((), ()), ())
    assert classify(t).kind == "no_p1"
    with pytest.raises(ValueError):
        psi_inverse(t)


# sha256 over the sorted lines "<serialized tree> <psi_inverse outcome>"
# for every permuted tree of size n, as recovered when each step still
# rebuilt the clockwise reading: the linear-time rewrite must reproduce
# every recovered map and every failure certificate.
INVERSE_OUTCOMES_SHA256 = {
    1: "662c70d3f6968f1014b5f27be463fb5864c3ec37914c70b4bbcdb3c663217c0d",
    2: "521662adbc4fca12486fde53878bc2287e5c90d37f385d9beb165a5ade3c4dbc",
    3: "f660de2bbe0d6ead9aacbc61cc64a163f9fdbd5d6ba24d37fa3819f27cb7b1b4",
    4: "a3e5ebc428c945dc22bf2e0d887310f56d51a6acfec63c77dbb197bd8fda3f40",
    5: "41b0619275549b2424cf3cd2336842c139b92bba9fd5f1050f69ad41ba7b8663",
}


@pytest.mark.parametrize("n", sorted(INVERSE_OUTCOMES_SHA256))
def test_psi_inverse_outcomes_pinned(n):
    import hashlib
    import json

    lines = sorted(
        serialize(t) + " " + json.dumps(psi_inverse(t).to_json_obj(),
                                        sort_keys=True, separators=(",", ":"))
        for lam in partitions_of(n) for t in all_permuted_trees(lam))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == INVERSE_OUTCOMES_SHA256[n]


def test_large_roundtrip():
    """n = 1000, beta of type 100^10, each block the union of two cycles."""
    import random

    n, size = 1000, 100
    rng = random.Random(2)
    while True:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        cycles = [order[i:i + size] for i in range(0, n, size)]
        beta_inv = [0] * (n + 1)
        for c in cycles:
            for a, b in zip(c, c[1:] + c[:1]):
                beta_inv[b] = a
        k, steps = beta_inv[1] % n + 1, 1  # alpha(k) = beta^{-1}(k) + 1
        while k != 1:
            k, steps = beta_inv[k] % n + 1, steps + 1
        if steps == n:
            break
    m = BlackPartitionedStarMap(
        Permutation.from_cycles(n, cycles),
        SetPartition(n, [cycles[i] + cycles[i + 1] for i in range(0, 10, 2)]))
    assert m.is_star and m.beta.cycle_type() == Partition([size] * 10)
    out = psi_inverse(psi(m))
    assert out.success and out.map == m
