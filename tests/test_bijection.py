from fractions import Fraction

import hypothesis
import pytest
from hypothesis import given, settings, strategies as st

from thorntrees.bijection import (
    AuxGraph,
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
from thorntrees.dot import to_dot
from thorntrees.partition import Partition, SetPartition, partitions_of
from thorntrees.perm import Permutation, canonical_long_cycle, compose
from thorntrees.structures import (
    BlackPartitionedStarMap,
    LabeledThornTree,
    PermutedThornTree,
    StarThornTree,
    all_permuted_trees,
    all_star_maps,
    deserialize,
    drop,
    lift,
    serialize,
    to_json_obj,
)


def fixture(name):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    return deserialize((root / name).read_text())


def test_psi_label_worked_example():
    m = fixture("example21.json")
    lt = psi_label(m)
    assert lt.white_labels == (3, 5, 4, 7, 6, 2, 1)
    edge_labels = [lt.white_labels[lt.tree.edge_slot(b)]
                   for b in range(lt.tree.p)]
    assert sorted(edge_labels) == [2, 3, 4]
    # the degree-4 vertex reads (1, 6, 7, 3) clockwise, its edge last
    big = lt.tree.blacks.index(3)
    assert lt.black_labels[big][::-1] + (edge_labels[big],) == (1, 6, 7, 3)


def test_psi_small_example():
    beta = Permutation((3, 1, 2, 4, 5))  # (1 3 2)
    pi = SetPartition(5, [[1, 2, 3], [4, 5]])
    t = psi(BlackPartitionedStarMap(beta, pi))
    assert t == fixture("ex1.json")


def test_psi_rejects_non_star():
    beta = Permutation((2, 3, 1))  # (1 2 3)
    m = BlackPartitionedStarMap(beta, SetPartition(3, [[1, 2, 3]]))
    assert not m.is_star
    with pytest.raises(ValueError) as exc:
        psi(m)
    assert str(exc.value) == (
        "the white-slot labeling needs alpha to be a long cycle; "
        "got alpha of type Partition(1, 1, 1)")


@pytest.mark.parametrize("n", range(1, 6))
def test_psi_non_star_error_names_the_type_of_alpha(n):
    from thorntrees.perm import all_permutations

    pi = SetPartition(n, [range(1, n + 1)])
    for beta in all_permutations(n):
        m = BlackPartitionedStarMap(beta, pi)
        if m.is_star:
            continue
        with pytest.raises(ValueError) as exc:
            psi_label(m)
        assert str(exc.value).endswith(
            "got alpha of type %r"
            % (compose(canonical_long_cycle(n), beta.inverse()).cycle_type(),))


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


def test_roundtrip_stats_reports_each_kind_of_failure(monkeypatch):
    from thorntrees import bijection

    lam = Partition([2])
    [m] = all_star_maps(lam)  # beta the identity, one block {1, 2}
    kernel = bijection._psi_kernel
    assert bijection.roundtrip_stats(lam) == (1, [], True)

    def mirrored(label_at, grouped):  # an image tree mirrored lacks (P1)
        white, blacks, labels, sigma = kernel(label_at, grouped)
        return white[::-1], blacks, labels, sigma

    def nowhere(label_at, grouped):  # a key that no swept tree has
        return ((),) + kernel(label_at, grouped)[1:]

    for fake in (mirrored, nowhere):
        monkeypatch.setattr(bijection, "_psi_kernel", fake)
        assert bijection.roundtrip_stats(lam) == (1, [(m, None)], True)
    monkeypatch.setattr(bijection, "_psi_kernel", kernel)
    monkeypatch.setattr(bijection, "_cycles",
                        lambda shape, label: ((2, 1), ((1, 2),)))
    wrong = BlackPartitionedStarMap(Permutation((2, 1)),
                                    SetPartition(2, [[1, 2]]))
    assert bijection.roundtrip_stats(lam) == (1, [(m, wrong)], True)


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
    assert classify(t).kind == "image"
    assert aux_graph(t).root == t.tree.white[0]


def test_aux_graph_requires_p1():
    tree = StarThornTree((None, 0), (1,))
    t = PermutedThornTree(tree, ((0, (0, 0)),))
    with pytest.raises(NoP1Error):
        aux_graph(t)
    assert classify(t).kind == "no_p1"


@pytest.mark.parametrize("n", range(2, 6))
def test_contract_expand_roundtrip(n):
    for lam in partitions_of(n):
        if len(lam) < 2:
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


@pytest.mark.parametrize("elem", [("e", -1), ("e", 3), ("t", -1, 0),
                                  ("t", 3, 0)])
def test_expand_vertex_out_of_range(elem):
    t = psi(fixture("example21.json"))
    assert t.tree.p == 3
    with pytest.raises(ValueError, match="no black vertex %d$" % elem[1]):
        expand(t, elem, 1)


@pytest.mark.parametrize("elem,error", [
    (("e",), "bad marked element"), (("t", 0), "bad marked element"),
    (("e", 0, 0), "bad marked element"), (("x", 0), "bad marked element"),
    (("t", 0, 0, 0), "bad marked element"),
    (("e", 0.0), "must be integers"), (("e", True), "must be integers"),
    (("t", 0, 0.0), "must be integers"), (("t", 0, True), "must be integers")])
def test_expand_refuses_malformed_marks(elem, error):
    t = psi(fixture("example21.json"))
    with pytest.raises(ValueError, match=error):
        expand(t, elem, 1)


MOVES = {
    "lift white_pos": lambda t, x: lift(t, x, 0, 0),
    "lift black": lambda t, x: lift(t, 0, x, 0),
    "lift black_pos": lambda t, x: lift(t, 0, 0, x),
    "drop black": lambda t, x: drop(t, x, 0),
    "drop black_pos": lambda t, x: drop(t, 0, x),
    "contract marked": lambda t, x: contract(t, x),
    "expand k": lambda t, x: expand(t, ("e", 0), x),
}


@pytest.mark.parametrize("bad", [True, False, 0.0, 1.0, "1"])
@pytest.mark.parametrize("move", sorted(MOVES))
def test_moves_refuse_non_integer_indices(move, bad):
    t = psi(fixture("example21.json"))
    with pytest.raises(ValueError, match="move indices must be integers"):
        MOVES[move](t, bad)


def test_expand_on_the_empty_tree_is_no_p1():
    empty = PermutedThornTree(StarThornTree((), ()), ())
    with pytest.raises(NoP1Error):
        expand(empty, ("e", 0), 1)


def test_aux_graph_equality_compares_edges():
    assert AuxGraph(2, 0, {1: 0}) == AuxGraph(2, 0, {1: 0})
    assert AuxGraph(2, 0, {1: 0}) != AuxGraph(2, 0, {1: 1})


@pytest.mark.parametrize("n", range(1, 7))
def test_proportions(n):
    for lam in partitions_of(n):
        p = len(lam)
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
        assert Fraction(with_p1, total) == Fraction(len(lam), n)


def test_p1_incidence_from_proportion_stats():
    for lam in partitions_of(5):
        assert proportion_stats(lam)[2] == Fraction(len(lam), 5)


SELF_CHECK_UNDER_O = """
import sys
from thorntrees import bijection
from thorntrees.structures import all_star_maps, deserialize

m = deserialize(open(sys.argv[1]).read())
t = bijection.psi(m)
# a real labeled tree, of another star map of the same type
wrong = bijection.psi_label(next(
    other for other in all_star_maps(m.type_of()) if other != m))
bijection.psi_label = lambda m: wrong
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
         str(root / "fixtures" / "example21.json")],
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

    lines = []
    for lam in partitions_of(n):
        for t in all_permuted_trees(lam):
            out = psi_inverse(t)
            lines.append(serialize(t) + " " + json.dumps(
                out.to_json_obj(), sort_keys=True, separators=(",", ":")))
            if out.success:
                # the inverse builds its results without validation; every
                # one must equal its rebuild through the public constructors
                m, lt = out.map, out.labeled
                rebuilt = BlackPartitionedStarMap(
                    Permutation(m.beta.images), SetPartition(n, m.pi.blocks))
                assert rebuilt == m and hash(rebuilt) == hash(m)
                rebuilt = LabeledThornTree(
                    StarThornTree(lt.tree.white, lt.tree.blacks),
                    lt.white_labels, lt.black_labels)
                assert rebuilt == lt and hash(rebuilt) == hash(lt)
    digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
    assert digest == INVERSE_OUTCOMES_SHA256[n]


# sha256 over the lines "<serialized tree> <classify JSON>" for every
# permuted tree of size n, in enumeration order, as classified when the
# auxiliary graph returned its own tuple verdict: pins both the verdict
# (with the cycle's orientation) and the order the trees come in.
CLASSIFY_OUTCOMES_SHA256 = {
    0: "21e45788dc3fa54cd735a4ad678ba917a0872a29222f61530d23e4c735125400",
    1: "7a221cf2f8dabe953e7df846e31fc837aa0c15308525b4ff92f4abc0cf87cf9b",
    2: "5bc3acbcf014b80cb6f9fe822a6907d7c396c7ac064d9e249f697378f6e1b6d8",
    3: "bd665101d3cc56823664778cf371a106072a99d586bdf74f1e0376842ad6a608",
    4: "67c3f2009f3bce57bfd0ef3b1e07b446123e1b49bf53aeca987c5e4b03708b32",
    5: "4bbea292910210b39d4b9dc5f2dbd2bbc17902aaca83784db9aea071a60c55d4",
    6: "12c648c05d7c4bb06af497c50c20148795d083fb0f38bd766fe5fd2071967dc0",
}


@pytest.mark.parametrize("n", sorted(CLASSIFY_OUTCOMES_SHA256))
def test_classify_outcomes_pinned(n):
    import hashlib
    import json

    lines = [serialize(t) + " " + json.dumps(classify(t).to_json_obj(),
                                             sort_keys=True,
                                             separators=(",", ":"))
             for lam in partitions_of(n) for t in all_permuted_trees(lam)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CLASSIFY_OUTCOMES_SHA256[n]


# sha256 over the sorted lines "<serialized psi(m)> <psi_label(m) JSON>"
# for every star map of size n, as built when psi composed alpha as a
# Permutation and validated every object it built.
PSI_OUTCOMES_SHA256 = {
    1: "c9517bf287455c35bba35c96a6c07f35d470b2e124801f6f2551f998a0b7960d",
    2: "11770769644b74fe25e11b244a055d76f83d529ad124c54c7d7f2fba6415d746",
    3: "131dfffaaa60a84e44715f3ce624ade8b382d002cf84cb3432d5897868cc36c7",
    4: "8840c8dfeb6512b05c0a5c159cb94daa1a42dc006c4214b4d3a4a55447b6f75d",
    5: "c2b9e8dd4fe74125e70528ed583020f0107c6a7ba0d1eb9153a09bd951e089df",
    6: "6be3ace32da72f4b0b057a212f9f846e57a39aaabfc92fa920be3715f31af11c",
}


@pytest.mark.parametrize("n", sorted(PSI_OUTCOMES_SHA256))
def test_psi_outcomes_pinned(n):
    import hashlib
    import json

    lines = sorted(
        serialize(psi(m)) + " " + json.dumps(to_json_obj(psi_label(m)),
                                             sort_keys=True,
                                             separators=(",", ":"))
        for lam in partitions_of(n) for m in all_star_maps(lam))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PSI_OUTCOMES_SHA256[n]


def _move_outcome(move, *args):
    try:
        out = move(*args)
    except Exception as exc:
        return "%s:%s" % (type(exc).__name__, exc)
    if isinstance(out, tuple):  # contract and expand also return a mark
        return "%s %r" % (serialize(out[0]), out[1])
    return serialize(out)


def _move_outcome_lines(n_max):
    """One line per (tree, move, arguments) for every permuted tree of size
    <= n_max, the arguments running one past each end of their range
    (expand's vertex stays in range: outside it, it raises ValueError)."""
    for n in range(1, n_max + 1):
        for lam in partitions_of(n):
            for t in all_permuted_trees(lam):
                key, p = serialize(t), t.tree.p

                def thorns(b):
                    return t.tree.blacks[b] if 0 <= b < p else 0

                for wp in range(-1, n + 2):
                    for b in range(-1, p + 1):
                        for bp in range(-1, thorns(b) + 2):
                            out = _move_outcome(lift, t, wp, b, bp)
                            yield "%s lift%r %s" % (key, (wp, b, bp), out)
                for b in range(-1, p + 1):
                    for bp in range(-1, thorns(b) + 1):
                        yield "%s drop%r %s" % (
                            key, (b, bp), _move_outcome(drop, t, b, bp))
                    yield "%s contract(%d) %s" % (
                        key, b, _move_outcome(contract, t, b))
                for v in range(p):
                    elems = ([("e", v), ("x", v)]
                             + [("t", v, i) for i in range(-1, thorns(v) + 1)])
                    for elem in elems:
                        for k in range(thorns(v) + 3):
                            out = _move_outcome(expand, t, elem, k)
                            yield "%s expand%r %s" % (key, (elem, k), out)


# sha256 over the sorted outcome lines of lift, drop, contract and expand
# on every permuted tree with n <= 4 (12 922 lines), as computed when each
# move re-derived every slot, black and thorn coordinate by hand.
MOVE_OUTCOMES_SHA256 = \
    "b81c4e3eb2d11ee977daaa4582efc2c2886ec5bfaec4ec3ed108a0330daac4af"


def test_move_outcomes_pinned():
    import hashlib

    lines = sorted(_move_outcome_lines(4))
    assert len(lines) == 12922
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == MOVE_OUTCOMES_SHA256


@pytest.mark.parametrize("n", range(1, 7))
def test_psi_outputs_pass_the_validating_constructors(n):
    for lam in partitions_of(n):
        for m in all_star_maps(lam):
            lt = psi_label(m)
            tree = StarThornTree(lt.tree.white, lt.tree.blacks)
            rebuilt = LabeledThornTree(tree, lt.white_labels, lt.black_labels)
            assert lt == rebuilt and hash(lt) == hash(rebuilt)
            t = psi(m)
            rebuilt = PermutedThornTree(tree, t.sigma)
            assert t == rebuilt and hash(t) == hash(rebuilt)


def test_many_cycles_roundtrip_and_dot():
    """n = 2000, beta = (1 2 .. n)^{n/2} of type 2^1000, one block per
    cycle: the most blocks and cycles a map of this size can have."""
    n, h = 2000, 1000
    beta = Permutation([(k + h - 1) % n + 1 for k in range(1, n + 1)])
    pi = SetPartition(n, [[k, k + h] for k in range(1, h + 1)])
    m = BlackPartitionedStarMap(beta, pi)
    assert m.is_star and m.beta.cycle_type() == Partition([2] * h)
    out = psi_inverse(psi(m))
    assert out.success and out.map == m and out.labeled == psi_label(m)
    lines = ["graph black_partitioned_map {", '  w [shape=circle, label="W"];']
    for k in range(1, h + 1):
        lines += ['  blk%d [shape=box, label="{%d,%d}"];' % (k - 1, k, k + h),
                  '  w -- blk%d [label="(%d %d)"];' % (k - 1, k, k + h)]
    assert to_dot(m) == "\n".join(lines + ["}"]) + "\n"


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
        Permutation(beta_inv[1:]).inverse(),
        SetPartition(n, [cycles[i] + cycles[i + 1] for i in range(0, 10, 2)]))
    assert m.is_star and m.beta.cycle_type() == Partition([size] * 10)
    out = psi_inverse(psi(m))
    assert out.success and out.map == m


@pytest.mark.parametrize("n", range(1, 8))
def test_proportion_stats_matches_the_object_path(n):
    """The per-shape sweep on plain tuples against a count over every
    PermutedThornTree object, each one classified on its own."""
    for lam in partitions_of(n):
        total = with_p1 = image = 0
        for t in all_permuted_trees(lam, 7):
            total += 1
            with_p1 += t.tree.white[0] is not None
            image += classify(t).kind == "image"
        assert proportion_stats(lam, 7) == (
            Fraction(image, total), Fraction(image, with_p1),
            Fraction(with_p1, total)), lam


def _map_from_the_alpha_side(n, seed):
    """A uniform star map of size n: a uniform n-cycle alpha, beta =
    alpha^{-1} (1 2 .. n), and beta's cycles merged into random blocks."""
    import random

    rng = random.Random(seed)
    order = [1] + rng.sample(range(2, n + 1), n - 1)
    alpha_inv = [0] * (n + 1)
    for a, b in zip(order, order[1:] + order[:1]):
        alpha_inv[b] = a
    beta = Permutation(alpha_inv[k % n + 1] for k in range(1, n + 1))
    cycles = beta.cycles()
    rng.shuffle(cycles)
    groups = {}
    for cyc in cycles:
        groups.setdefault(rng.randrange(len(cycles)), []).extend(cyc)
    return BlackPartitionedStarMap(beta, SetPartition(n, groups.values()))


def _roundtrip_from_the_alpha_side(n, seed):
    m = _map_from_the_alpha_side(n, seed)
    assert m.is_star
    assert compose(canonical_long_cycle(n), m.beta.inverse()).is_long_cycle()
    t = psi(m)
    out = psi_inverse(t)
    assert out.map == m
    assert out.labeled == psi_label(m)
    assert classify(t).kind == "image"
    assert deserialize(serialize(t)) == t
    for obj in (m, t, aux_graph(t)):
        assert to_dot(obj).endswith("}\n")


@pytest.mark.parametrize("n,seed", [(1000, 1), (1000, 2), (3000, 3),
                                    (3000, 4)])
def test_seeded_roundtrips_from_the_alpha_side(n, seed):
    _roundtrip_from_the_alpha_side(n, seed)


@hypothesis.seed(1006)
@settings(max_examples=8, deadline=None)
@given(st.integers(1, 10 ** 4), st.integers(0, 2 ** 32 - 1))
def test_drawn_roundtrips_from_the_alpha_side(n, seed):
    _roundtrip_from_the_alpha_side(n, seed)


def test_label_walk_agrees_with_the_returned_labeled_tree():
    """psi_inverse returns psi_label of the recovered map; the label walk
    that recovered it must have read the same labels: its white labels,
    and per vertex its clockwise reading reversed, without the edge."""
    from thorntrees.bijection import _label_walk, _shape

    recovered = 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            for t in all_permuted_trees(lam):
                out = psi_inverse(t)
                if not out.success:
                    continue
                recovered += 1
                shape = _shape(t.tree)
                label, white_labels, collision = _label_walk(shape, t.sigma)
                assert collision is None
                assert tuple(white_labels) == out.labeled.white_labels
                starts, stops = shape[0], shape[1]
                assert tuple(tuple(label[a:z][-2::-1])
                             for a, z in zip(starts, stops)) \
                    == out.labeled.black_labels
    assert recovered == 1065


def test_cycle_walks_refuse_a_non_permutation():
    """Only an unvalidated object can carry images that are no permutation;
    every walk over them stops with InternalCheckError instead of looping."""
    from thorntrees.oracle import InternalCheckError, _cycle_type
    from thorntrees.partition import _trusted

    bad = _trusted(Permutation, n=2, images=(2, 2))
    m = _trusted(BlackPartitionedStarMap, beta=bad,
                 pi=_trusted(SetPartition, n=2, blocks=((1, 2),)))
    for walk in (bad.cycles, lambda: repr(bad), lambda: m.is_star,
                 lambda: psi_label(m), lambda: _cycle_type(bad.images)):
        with pytest.raises(InternalCheckError,
                           match=r"not a permutation of \{1\.\.2\}"):
            walk()


@pytest.mark.parametrize("lam", partitions_of(6), ids=str)
def test_roundtrip_stats_walks_each_beta_once(monkeypatch, lam):
    """Over every type of n = 6 together, whichever is swept first: one
    star index build, and (n-1)! cycle walks and as many white label
    walks, one per beta of the alpha walk, not one per type or per map."""
    from collections import Counter

    from thorntrees import bijection, structures

    calls = Counter()

    def counted(name, walk):
        def wrapper(*args):
            calls[name] += 1
            return walk(*args)
        return wrapper

    for name in ("_alpha_betas", "_cycles", "_complement_orbit"):
        monkeypatch.setattr(structures, name,
                            counted(name, getattr(structures, name)))
    structures._star_index.cache_clear()
    for mu in [lam, *partitions_of(6)]:
        assert bijection.roundtrip_stats(mu) == (count_D(mu), [], True)
    assert calls == {"_alpha_betas": 1, "_cycles": 120,
                     "_complement_orbit": 120}
