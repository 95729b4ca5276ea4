"""Seeded inputs for the `bijection` workload, built without the library.

Objects are written in the library's canonical JSON (sorted keys, no
whitespace) so that `thorntrees transform` and `export-dot` read them:

* star map   {"beta": [...], "n": n, "pi": [[...], ...]}
* permuted tree {"blacks": [{"thorns": t}, ...], "n": n,
  "sigma": [[white_slot, [black, thorn]], ...],
  "white": [{"edge": b} | {"thorn": rank}, ...]}

Everything here (long cycles, the auxiliary graph, the P1/P2 image test)
is an independent re-derivation used to check the program's answers.
"""

from __future__ import annotations

import json


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# star maps


def cycles_of(images):
    """Cycles of a 1-based permutation given as an image list."""
    n = len(images)
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        k = start
        while not seen[k]:
            seen[k] = True
            cyc.append(k)
            k = images[k - 1]
        out.append(cyc)
    return out


def is_star_map(obj):
    """alpha = (1 2 .. n) beta^{-1} is one n-cycle and pi is coarser than
    the cycles of beta."""
    n, beta, pi = obj["n"], obj["beta"], obj["pi"]
    if sorted(beta) != list(range(1, n + 1)):
        return False
    if sorted(x for b in pi for x in b) != list(range(1, n + 1)):
        return False
    beta_inv = [0] * n
    for k, v in enumerate(beta, start=1):
        beta_inv[v - 1] = k
    alpha = [beta_inv[k - 1] % n + 1 for k in range(1, n + 1)]
    if len(cycles_of(alpha)) != 1:
        return False
    block_of = {x: i for i, b in enumerate(pi) for x in b}
    return all(len({block_of[x] for x in c}) == 1 for c in cycles_of(beta))


def random_star_map(rng, n, cycles, per_block):
    """A star map whose beta has `cycles` cycles of length n/cycles and
    whose blocks each join `per_block` of them, so its shape (and the
    cost of transforming it) does not depend on the seed.

    beta is drawn uniformly of that cycle type until alpha is a long cycle.
    """
    size = n // cycles
    for _ in range(100 * n):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        cyc = [order[i:i + size] for i in range(0, n, size)]
        beta_inv = [0] * (n + 1)
        for c in cyc:
            for a, b in zip(c, c[1:] + c[:1]):
                beta_inv[b] = a
        k, steps = beta_inv[1] % n + 1, 1  # alpha(k) = beta^{-1}(k) + 1
        while k != 1:
            k, steps = beta_inv[k] % n + 1, steps + 1
        if steps == n:
            break
    else:
        raise RuntimeError("no star map found")
    beta = [0] * n
    for b in range(1, n + 1):
        beta[beta_inv[b] - 1] = b
    pi = sorted(sorted(x for c in cyc[i:i + per_block] for x in c)
                for i in range(0, len(cyc), per_block))
    obj = {"beta": beta, "n": n, "pi": pi}
    if not is_star_map(obj):
        raise RuntimeError("generated map is not a star map")
    return obj


# ---------------------------------------------------------------------------
# permuted thorn trees


def random_permuted_tree(rng, n, p, p1):
    """Uniform layout of p edge slots among n root slots (slot 0 an edge
    iff `p1`), every black vertex of degree n/p, random thorn pairing
    sigma."""
    if p1:
        edges = [0] + rng.sample(range(1, n), p - 1)
    else:
        edges = rng.sample(range(1, n), p)
    edges = set(edges)
    white, b = [], 0
    for s in range(n):
        if s in edges:
            white.append(b)
            b += 1
        else:
            white.append(None)
    thorns = [n // p - 1] * p
    coords = [(b, t) for b in range(p) for t in range(thorns[b])]
    rng.shuffle(coords)
    wslots = [s for s in range(n) if white[s] is None]
    return {"white": white, "thorns": thorns,
            "sigma": dict(zip(wslots, coords))}


def tree_json(tree):
    white, rank = [], 0
    for v in tree["white"]:
        if v is None:
            white.append({"thorn": rank})
            rank += 1
        else:
            white.append({"edge": v})
    return {"blacks": [{"thorns": t} for t in tree["thorns"]],
            "n": len(tree["white"]),
            "sigma": [[w, [b, t]] for w, (b, t) in sorted(tree["sigma"].items())],
            "white": white}


def tree_from_json(obj):
    white = [slot["edge"] if "edge" in slot else None for slot in obj["white"]]
    sigma = {w: (b, t) for w, (b, t) in obj["sigma"]}
    return {"white": white, "thorns": [b["thorns"] for b in obj["blacks"]],
            "sigma": sigma}


def aux_out(tree):
    """Successor of each non-root black vertex: the black extremity of the
    element just left of its root edge (through sigma for a thorn)."""
    white, sigma = tree["white"], tree["sigma"]
    root = white[0]
    out = {}
    for s in range(1, len(white)):
        b = white[s]
        if b is None or b == root:
            continue
        left = white[s - 1]
        out[b] = left if left is not None else sigma[s - 1][0]
    return root, out


def image_kind(tree):
    """'no_p1', 'cycle' or 'image' by the P1/P2 characterisation."""
    if tree["white"][0] is None:
        return "no_p1"
    root, out = aux_out(tree)
    for start in out:
        seen = set()
        v = start
        while v != root:
            if v in seen:
                return "cycle"
            seen.add(v)
            v = out[v]
    return "image"


def is_aux_cycle(tree, cycle):
    root, out = aux_out(tree)
    return (bool(cycle) and root not in cycle
            and all(out.get(a) == b for a, b in zip(cycle, cycle[1:] + cycle[:1])))


def sample_tree(rng, n, p, kind):
    """Rejection-sample a permuted tree of the wanted image kind."""
    for _ in range(10000):
        tree = random_permuted_tree(rng, n, p, p1=(kind != "no_p1"))
        if image_kind(tree) == kind:
            return tree
    raise RuntimeError("no %s tree found" % kind)
