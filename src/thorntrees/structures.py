"""Combinatorial objects: black-partitioned star maps and (permuted,
labeled) star thorn trees, with generation, lift/drop moves, and
canonical JSON serialization.

Conventions
-----------
White root slots are stored left-to-right (index 0 is the leftmost).
Black vertices are numbered by root order: the b-th edge slot from the
left belongs to black vertex b.  Black thorns are stored in
counter-clockwise order starting right after the root edge; the
clockwise reading used for cycle recovery is the reverse traversal.
"""

import json
from itertools import combinations, count, permutations as iperm

from .oracle import DEFAULT_BUDGET, _check, _long_complement
from .partition import (
    Partition,
    SetPartition,
    Value,
    _each_beta,
    _require_ints,
    _trusted,
    set_partitions_of_type,
)
from .perm import Permutation, canonical_long_cycle, compose


class ParseError(ValueError):
    """Malformed serialized object; carries a human-readable position."""


class StarThornTree(Value):
    """Ordered star thorn tree: white slot layout plus black thorn counts.

    ``white``: tuple of length n; entry is a black index for an edge slot,
    None for a thorn.  ``blacks``: per-black thorn count.
    """

    __slots__ = _fields = ("white", "blacks")

    def __init__(self, white, blacks):
        edges = [b for b in white if b is not None]
        _require_ints(edges, "edge slots")
        _require_ints(blacks, "thorn counts")
        if edges != list(range(len(blacks))):
            raise ValueError(
                "edge slots must reference blacks 0..p-1 in root order: %r"
                % (white,))
        n = len(white)
        if sum(1 + t for t in blacks) != n:
            raise ValueError("degree sum %d != n=%d"
                             % (sum(1 + t for t in blacks), n))
        if any(t < 0 for t in blacks):
            raise ValueError("negative thorn count")
        object.__setattr__(self, "white", white)
        object.__setattr__(self, "blacks", blacks)

    @property
    def n(self):
        return len(self.white)

    @property
    def p(self):
        return len(self.blacks)

    def degree(self, b):
        return 1 + self.blacks[b]

    def type_of(self):
        return Partition(sorted((self.degree(b) for b in range(self.p)),
                                reverse=True))

    def edge_slot(self, b):
        return self.white.index(b)

    def white_thorn_slots(self):
        return tuple(s for s, v in enumerate(self.white) if v is None)

    def black_thorn_coords(self):
        return tuple((b, t) for b in range(self.p) for t in range(self.blacks[b]))


class PermutedThornTree(Value):
    """Star thorn tree plus a bijection sigma between white and black thorns.

    ``sigma``: tuple of (white_slot, (black, thorn_index)) pairs, sorted by
    white slot.
    """

    __slots__ = _fields = ("tree", "sigma")

    def __init__(self, tree, sigma):
        pairs = [(w, (b, t)) for w, (b, t) in sigma]
        _require_ints([x for w, (b, t) in pairs for x in (w, b, t)],
                      "sigma entries")
        sigma = tuple(sorted(pairs))
        wslots = tuple(w for w, _ in sigma)
        if wslots != tree.white_thorn_slots():
            raise ValueError("sigma domain must be the white thorn slots")
        targets = sorted(bt for _, bt in sigma)
        if targets != sorted(tree.black_thorn_coords()):
            raise ValueError("sigma range must be the black thorn coordinates")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self):
        return self.tree.n

    def type_of(self):
        return self.tree.type_of()


class BlackPartitionedStarMap(Value):
    """Couple (beta, pi) with pi coarser than the orbits of beta.

    alpha is derived as (1 2 .. n) * beta^{-1}; the map is a *star* map
    when alpha is a long cycle.
    """

    __slots__ = _fields = ("beta", "pi")

    def __init__(self, beta, pi):
        if beta.n != pi.n:
            raise ValueError("size mismatch between beta and pi")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "pi", pi)
        self.cycles_by_block()

    @property
    def n(self):
        return self.beta.n

    def cycles_by_block(self):
        """beta's cycles grouped by block: one list per block, in
        ``pi.blocks`` order, of cycles by decreasing maximum (as
        ``Permutation.cycles`` writes them).  ValueError if pi splits one.
        """
        blocks = self.pi.blocks
        block_at = {x: i for i, block in enumerate(blocks) for x in block}
        grouped = [[] for _ in blocks]
        for cyc in self.beta.cycles():
            i = block_at[cyc[0]]
            for x in cyc:
                if block_at[x] != i:
                    raise ValueError(
                        "pi is not coarser than the orbits of beta: cycle %r "
                        "is split across blocks (element %d outside block %r)"
                        % (list(cyc), x, list(blocks[i])))
            grouped[i].append(cyc)
        return grouped

    @property
    def alpha(self):
        return compose(canonical_long_cycle(self.n), self.beta.inverse())

    @property
    def is_star(self):
        """alpha is a long cycle: one walk over beta's images."""
        if self.n < 1:
            raise ValueError("n must be >= 1")
        return _long_complement([x - 1 for x in self.beta.images])

    def type_of(self):
        """Block degree distribution (block sizes, since every edge of a
        black vertex counts once)."""
        return self.pi.type_of()


class LabeledThornTree(Value):
    """Star thorn tree whose white slots and black thorns carry labels 1..n.

    The white labels, read right to left, spell the alpha-orbit starting
    at 1.  An edge shares the label of its white slot.  ``black_labels``
    holds, per black vertex, its thorn labels in ccw storage order.
    """

    __slots__ = _fields = ("tree", "white_labels", "black_labels")

    def __init__(self, tree, white_labels, black_labels):
        n = tree.n
        flat = [lab for labs in black_labels for lab in labs]
        _require_ints(white_labels, "white labels")
        _require_ints(flat, "black labels")
        if sorted(white_labels) != list(range(1, n + 1)):
            raise ValueError("white labels must be a bijection with {1..n}")
        edge_labels = [lab for lab, b in zip(white_labels, tree.white)
                       if b is not None]
        if sorted(flat + edge_labels) != list(range(1, n + 1)):
            raise ValueError("black-side labels must be a bijection with {1..n}")
        for b in range(tree.p):
            if len(black_labels[b]) != tree.blacks[b]:
                raise ValueError("black label count mismatch at vertex %d" % b)
        if n < 1 or white_labels[n - 1] != 1:
            raise ValueError("rightmost white slot must carry label 1")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "white_labels", white_labels)
        object.__setattr__(self, "black_labels", black_labels)

    def to_permuted(self):
        """Forget label values; sigma pairs equal labels."""
        pos_of = {}
        for b, labs in enumerate(self.black_labels):
            for t, lab in enumerate(labs):
                pos_of[lab] = (b, t)
        sigma = tuple((s, pos_of[self.white_labels[s]])
                      for s in self.tree.white_thorn_slots())
        return _trusted(PermutedThornTree, tree=self.tree, sigma=sigma)


# ---------------------------------------------------------------------------
# Generation


def _orders(items):
    """Each distinct ordering of the sorted tuple ``items``, once, in
    lexicographic order."""
    if not items:
        yield ()
    for i, x in enumerate(items):
        if i == 0 or x != items[i - 1]:
            for rest in _orders(items[:i] + items[i + 1:]):
                yield (x,) + rest


def all_star_thorn_trees(mu):
    """Every star thorn tree of type mu, exactly once.

    Choose the edge positions among the n root slots, then assign the
    degree multiset to the black vertices in root order.  Each tree is
    valid by construction and built without validation.
    """
    n, p = mu.size, mu.length
    thorn_orders = list(_orders(tuple(d - 1 for d in reversed(mu))))
    for positions in combinations(range(n), p):
        black_at = {s: b for b, s in enumerate(positions)}
        white = tuple(black_at.get(s) for s in range(n))
        for blacks in thorn_orders:
            yield _trusted(StarThornTree, white=white, blacks=blacks)


def all_permuted_trees(lam, budget=DEFAULT_BUDGET):
    """Every permuted star thorn tree of type lam, exactly once."""
    _check(lam.size, budget, "permuted-tree", long_cycle=False)
    for tree in all_star_thorn_trees(lam):
        wslots = tree.white_thorn_slots()  # increasing: sigma is canonical
        for image in iperm(tree.black_thorn_coords()):
            yield _trusted(PermutedThornTree, tree=tree,
                           sigma=tuple(zip(wslots, image)))


def all_star_maps(lam, budget=DEFAULT_BUDGET):
    """Every black-partitioned star map of type lam (alpha a long cycle):
    the couples (pi, beta in S_pi) are walked in place, and a map is built
    only when alpha is long.  Needs n >= 1.
    """
    n = lam.size
    _check(n, budget, "map")
    for pi in set_partitions_of_type(lam):
        for images in _each_beta(pi):
            if _long_complement(images):
                beta = _trusted(Permutation, n=n,
                                images=tuple(x + 1 for x in images))
                yield _trusted(BlackPartitionedStarMap, beta=beta, pi=pi)


# ---------------------------------------------------------------------------
# Lift / drop moves (the thorn-lift recurrence, operationally)


def _unpack(t):
    """The edit form of a permuted tree, on which every tree move is a list
    edit: the root slots left to right, an edge slot being its black
    vertex's list of thorn tokens (ccw storage order) and a white thorn the
    token it shares with its sigma partner (its slot index).  Find black
    lists by identity: two thornless vertices both hold []."""
    thorns = [[None] * c for c in t.tree.blacks]
    for w, (b, i) in t.sigma:
        thorns[b][i] = w
    return [s if b is None else thorns[b]
            for s, b in enumerate(t.tree.white)]


def _black_lists(slots):
    return [x for x in slots if type(x) is list]


def _pack(slots):
    """The permuted tree of an edit form, through the validating
    constructors: blacks numbered by root order, equal tokens paired."""
    blacks = _black_lists(slots)
    at = {tok: (b, i) for b, thorns in enumerate(blacks)
          for i, tok in enumerate(thorns)}
    rank = count()
    white = tuple(next(rank) if type(x) is list else None for x in slots)
    sigma = tuple((s, at[x]) for s, x in enumerate(slots) if white[s] is None)
    tree = StarThornTree(white, tuple(len(x) for x in blacks))
    return PermutedThornTree(tree, sigma)


def lift(t, white_pos, black, black_pos):
    """Insert a matched thorn pair: one at white slot ``white_pos`` (0..n)
    and one at position ``black_pos`` (0..thorns) on vertex ``black``.

    Takes type lam to lam^{up(degree(black))}.
    """
    tree = t.tree
    if not 0 <= white_pos <= tree.n:
        raise ValueError("white position out of range")
    if not 0 <= black < tree.p:
        raise ValueError("no black vertex %d" % black)
    if not 0 <= black_pos <= tree.blacks[black]:
        raise ValueError("black thorn position out of range")
    slots = _unpack(t)
    token = object()  # fresh: equal to no token the tree holds
    _black_lists(slots)[black].insert(black_pos, token)
    slots.insert(white_pos, token)
    return _pack(slots)


def drop(t, black, black_pos):
    """Remove a black thorn and its white partner (inverse of lift)."""
    tree = t.tree
    if not (0 <= black < tree.p and 0 <= black_pos < tree.blacks[black]):
        raise ValueError("no black thorn (%d, %d)" % (black, black_pos))
    slots = _unpack(t)
    slots.remove(_black_lists(slots)[black].pop(black_pos))
    return _pack(slots)


# ---------------------------------------------------------------------------
# Canonical JSON


def _tree_obj(tree):
    white = []
    rank = 0
    for v in tree.white:
        if v is None:
            white.append({"thorn": rank})
            rank += 1
        else:
            white.append({"edge": v})
    return {"blacks": [{"thorns": t} for t in tree.blacks],
            "n": tree.n, "white": white}


def to_json_obj(obj):
    if isinstance(obj, StarThornTree):
        return _tree_obj(obj)
    if isinstance(obj, PermutedThornTree):
        d = _tree_obj(obj.tree)
        d["sigma"] = [[w, [b, t]] for w, (b, t) in obj.sigma]
        return d
    if isinstance(obj, BlackPartitionedStarMap):
        return {"beta": list(obj.beta.images), "n": obj.n,
                "pi": [list(b) for b in obj.pi.blocks]}
    if isinstance(obj, LabeledThornTree):
        return {"black_labels": [list(x) for x in obj.black_labels],
                "tree": _tree_obj(obj.tree),
                "white_labels": list(obj.white_labels)}
    raise TypeError("cannot serialize %r" % type(obj))


def serialize(obj):
    """Canonical byte-stable text: sorted keys, no whitespace."""
    return json.dumps(to_json_obj(obj), sort_keys=True, separators=(",", ":"))


def _int(x):
    """A JSON integer as is; anything else (true, 2.5, "2") is refused."""
    if type(x) is not int:
        raise ParseError("expected an integer, found %s" % json.dumps(x))
    return x


def _tree_from_obj(d):
    white = []
    rank = 0  # a white thorn's rank is its order among the white thorns
    for slot in d["white"]:
        if "edge" in slot:
            white.append(_int(slot["edge"]))
        elif "thorn" in slot:
            if _int(slot["thorn"]) != rank:
                raise ParseError("white thorn rank %d out of order: "
                                 "expected %d" % (slot["thorn"], rank))
            white.append(None)
            rank += 1
        else:
            raise ParseError("white slot must be an edge or a thorn: %r"
                             % (slot,))
    tree = StarThornTree(tuple(white),
                         tuple(_int(b["thorns"]) for b in d["blacks"]))
    if tree.n != _int(d["n"]):
        raise ParseError("declared n=%s but %d white slots" % (d["n"], tree.n))
    return tree


def from_json_obj(d):
    if not isinstance(d, dict):
        raise ParseError("top-level value must be an object")
    try:
        if "beta" in d:
            beta = Permutation(_int(x) for x in d["beta"])
            pi = SetPartition(_int(d["n"]),
                              [list(map(_int, b)) for b in d["pi"]])
            return BlackPartitionedStarMap(beta, pi)
        if "white_labels" in d:
            tree = _tree_from_obj(d["tree"])
            return LabeledThornTree(tree, tuple(map(_int, d["white_labels"])),
                                    tuple(tuple(map(_int, x))
                                          for x in d["black_labels"]))
        if "sigma" in d:
            tree = _tree_from_obj(d)
            sigma = tuple((_int(w), (_int(b), _int(t)))
                          for w, (b, t) in d["sigma"])
            return PermutedThornTree(tree, sigma)
        if "white" in d:
            return _tree_from_obj(d)
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ParseError("malformed object (keys: %s): %s"
                         % (sorted(d), exc)) from exc
    raise ParseError("unrecognized object (keys: %s)" % sorted(d))


def deserialize(text):
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON at line %d column %d: %s"
                         % (exc.lineno, exc.colno, exc.msg)) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    return from_json_obj(d)
