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
from functools import lru_cache
from itertools import chain, combinations, count, permutations as iperm

from .oracle import (DEFAULT_BUDGET, _alpha_betas, _check, _complement_orbit,
                     _cycle_groupings)
from .partition import (SetPartition, Value, _require_ints, _trusted,
                        _trusted_partition)
from .perm import Permutation, _cycles


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
        super().__init__(white, blacks)

    @property
    def n(self):
        return len(self.white)

    @property
    def p(self):
        return len(self.blacks)

    def degree(self, b):
        if type(b) is not int or not 0 <= b < self.p:
            raise ValueError("no black vertex %r" % (b,))
        return 1 + self.blacks[b]

    def type_of(self):
        return _trusted_partition(sorted((1 + t for t in self.blacks),
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
        super().__init__(tree, sigma)

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
        super().__init__(beta, pi)
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
    def is_star(self):
        """alpha is a long cycle: Psi's white-label walk covers all n."""
        if self.n < 1:
            raise ValueError("n must be >= 1")
        return len(_complement_orbit(self.beta.images)) == self.n

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
        super().__init__(tree, white_labels, black_labels)

    def to_permuted(self):
        """Forget label values; sigma pairs equal labels."""
        targets = _thorn_targets(self.tree.white, self.white_labels,
                                 self.black_labels)
        return _trusted(PermutedThornTree, tree=self.tree, sigma=tuple(
            zip(self.tree.white_thorn_slots(), targets)))


def _thorn_targets(white, white_labels, black_labels):
    """For each white thorn, left to right, the black thorn (black, thorn
    index) with the same label: the sigma that pairs equal labels."""
    at = {lab: (b, t) for b, labs in enumerate(black_labels)
          for t, lab in enumerate(labs)}
    return tuple(at[lab] for lab, b in zip(white_labels, white) if b is None)


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
    n, p = mu.size, len(mu)
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


@lru_cache(maxsize=1)
def _star_index(n):
    """The alpha walk of size n, once: each beta of ``oracle._alpha_betas``
    with its cycles (``perm._cycles``, by decreasing maximum) and Psi's
    white labels (``oracle._complement_orbit``), grouped by the lengths
    of its cycles; each group is filed as (groupings, betas) under every
    type lam that ``_cycle_groupings`` of its lengths reaches.  Needs
    n >= 1."""
    by_lengths = {}
    for images in _alpha_betas(n):
        cycles = _cycles(images)
        by_lengths.setdefault(tuple(map(len, cycles)), []).append(
            (images, cycles, _complement_orbit(images)))
    index = {}
    for lengths, betas in by_lengths.items():
        for lam, groupings in _cycle_groupings(lengths).items():
            index.setdefault(lam, []).append((groupings, betas))
    return index


def _star_maps(lam, budget=DEFAULT_BUDGET):
    """Every black-partitioned star map of type lam on plain tuples, as
    (beta's images, pi's blocks, the cycles by block as ``cycles_by_block``
    has them, Psi's white labels right to left): each beta of the star
    index, once with each set partition of its cycles into blocks of type
    lam, its maps together.  Needs n >= 1."""
    _check(lam.size, budget, "map")
    for groupings, betas in _star_index(lam.size).get(lam, ()):
        for images, cycles, label_at in betas:
            for grouping in groupings:
                # a block's positions increase: its cycles by decreasing
                # maximum
                grouped = [[cycles[i] for i in b] for b in grouping]
                blocks = sorted(tuple(sorted(chain(*g))) for g in grouped)
                yield images, tuple(blocks), grouped, label_at


def _star_map(images, blocks):
    """The star map of valid beta images and pi blocks, unvalidated."""
    n = len(images)
    return _trusted(BlackPartitionedStarMap,
                    beta=_trusted(Permutation, n=n, images=images),
                    pi=_trusted(SetPartition, n=n, blocks=blocks))


def all_star_maps(lam, budget=DEFAULT_BUDGET):
    """Every black-partitioned star map of type lam (alpha a long cycle),
    exactly once.  Needs n >= 1."""
    return (_star_map(beta, blocks) for beta, blocks, _, _ in
            _star_maps(lam, budget))


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
    """The permuted tree of an edit form, unvalidated, since it is valid by
    construction: blacks numbered by root order, equal tokens paired, and
    sigma in slot order."""
    blacks = _black_lists(slots)
    at = {tok: (b, i) for b, thorns in enumerate(blacks)
          for i, tok in enumerate(thorns)}
    rank = count()
    white = tuple(next(rank) if type(x) is list else None for x in slots)
    sigma = tuple((s, at[x]) for s, x in enumerate(slots) if white[s] is None)
    tree = _trusted(StarThornTree, white=white,
                    blacks=tuple(len(x) for x in blacks))
    return _trusted(PermutedThornTree, tree=tree, sigma=sigma)


def lift(t, white_pos, black, black_pos):
    """Insert a matched thorn pair: one at white slot ``white_pos`` (0..n)
    and one at position ``black_pos`` (0..thorns) on vertex ``black``.

    Takes type lam to lam^{up(degree(black))}.
    """
    _require_ints((white_pos, black, black_pos), "move indices")
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
    _require_ints((black, black_pos), "move indices")
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
