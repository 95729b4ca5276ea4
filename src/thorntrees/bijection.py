"""The map-to-tree bijection, its inverse, the auxiliary completion-order
graph, and the contraction move used for the proportion argument.

The forward direction labels a star thorn tree from a black-partitioned
star map; the inverse recovers the labels one at a time, reading
left-to-right maxima clockwise around each black vertex.  A permuted
thorn tree is an image of the forward map exactly when its leftmost root
slot is a real edge (P1) and the auxiliary graph is a tree rooted at
that edge's black vertex (P2).
"""

from itertools import chain

from .oracle import DEFAULT_PAIR_BUDGET
from .partition import SetPartition, Value
from .perm import Permutation
from .structures import (
    BlackPartitionedStarMap,
    LabeledThornTree,
    StarThornTree,
    _black_lists,
    _pack,
    _trusted,
    _unpack,
    all_permuted_trees,
    to_json_obj,
)


class NoP1Error(ValueError):
    """Leftmost root slot is a thorn, so the auxiliary graph is undefined."""


def psi_label(m):
    """Build the labeled star thorn tree of a black-partitioned star map.

    White slots are labeled right-to-left with the alpha-orbit starting at
    1; one edge per block sits at the label beta(max of block); black
    thorns are labeled counter-clockwise following the block's cycles in
    decreasing order of their maxima.  One pass over beta: slot j carries
    alpha^{-(j+1)}(1), read off alpha^{-1}(k) = beta(k-1) (beta(n) at k = 1).
    """
    n = m.n
    if n < 1:
        raise ValueError("n must be >= 1")
    images = m.beta.images
    label_at = []
    k = 1
    for _ in range(n - 1):
        k = images[k - 2]  # images[-1] = beta(n) when k = 1
        if k == 1:
            raise ValueError("the white-slot labeling needs alpha to be a "
                             "long cycle; got alpha of type %r"
                             % (m.alpha.cycle_type(),))
        label_at.append(k)
    label_at.append(1)

    # a block's first cycle ends at its maximum, so beta(max) starts it
    block_at_edge = {cycles[0][0]: cycles for cycles in m.cycles_by_block()}
    white = []
    black_labels = []
    for lab in label_at:
        cycles = block_at_edge.get(lab)
        if cycles is None:
            white.append(None)
        else:
            white.append(len(black_labels))
            black_labels.append(tuple(chain(cycles[0][1:], *cycles[1:])))

    tree = _trusted(StarThornTree, white=tuple(white),
                    blacks=tuple(len(labs) for labs in black_labels))
    return _trusted(LabeledThornTree, tree=tree, white_labels=tuple(label_at),
                    black_labels=tuple(black_labels))


def psi(m):
    """The permuted thorn tree of a black-partitioned star map."""
    return psi_label(m).to_permuted()


class InverseOutcome(Value):
    """Result of the label-recovery procedure.

    Success carries the recovered map and its labeled tree; Failure
    carries the step index and a certificate naming the collision (the
    colliding element always carries label 1).
    """

    __slots__ = _fields = ("success", "map", "labeled", "step", "certificate")

    def __init__(self, success, map=None, labeled=None, step=None,
                 certificate=None):
        object.__setattr__(self, "success", success)
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "labeled", labeled)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "certificate", certificate)

    def to_json_obj(self):
        if self.success:
            return {"labeled": to_json_obj(self.labeled),
                    "map": to_json_obj(self.map), "status": "success"}
        return {"certificate": self.certificate, "status": "failure",
                "step": self.step}


def psi_inverse(t):
    """Recover the unique preimage of a permuted thorn tree, or fail.

    Labels 1..n are assigned one per step; the element carrying the
    current image of beta is found by the left-to-right-maximum rule read
    clockwise around the black vertex, in time linear in n.  A recovered
    map is checked by running Psi forward on it (AssertionError if not).
    """
    out = _recover(t)
    if out.success and not (out.map.is_star and psi(out.map) == t):
        raise AssertionError("inverse self-check failed")
    return out


def _recover(t):
    """psi_inverse without its self-check, for callers that check the map.

    A black element's id is its position in the clockwise readings laid
    end to end (per vertex: thorns in reverse storage order, edge last).
    """
    tree = t.tree
    n, blacks = tree.n, tree.blacks
    if n == 0:
        raise ValueError("the empty tree has no preimage: maps need n >= 1")
    starts, stops, vertex = [], [], []
    for b, tc in enumerate(blacks):
        starts.append(len(vertex))
        vertex += [b] * (tc + 1)
        stops.append(len(vertex))
    elem = [stops[v] - 1 if v is not None else None for v in tree.white]
    for w, (b, ti) in t.sigma:
        elem[w] = stops[b] - 2 - ti
    slot = [0] * n
    for s, e in enumerate(elem):
        slot[e] = s

    label = [0] * n  # per black element id; 0 while unlabeled
    white_labels = [0] * n
    free = list(starts)  # per vertex: first unlabeled id, if any
    e = elem[n - 1]
    label[e] = white_labels[n - 1] = 1
    for i in range(1, n):
        b = vertex[e]  # e carries label i
        f, stop = free[b], stops[b]
        while f < stop and label[f]:
            f += 1
        free[b] = f
        if f < e:
            beta_el = e - 1  # i is not a left-to-right maximum
        elif f == stop:
            beta_el = stop - 1  # i is the block maximum: the edge
        else:
            beta_el = f - 1  # the element before the next left-to-right max
        w = slot[beta_el]
        target = w - 1 if w > 0 else n - 1  # next slot counter-clockwise
        if white_labels[target]:
            collided = white_labels[target]
            if collided != 1:
                raise AssertionError("collision label must be 1, got %d"
                                     % collided)
            return InverseOutcome(
                success=False, step=i,
                certificate={"collision_label": collided,
                             "collision_slot": target,
                             "beta_element": ["e", b] if beta_el == stop - 1
                             else ["t", b, stop - 2 - beta_el]})
        e = elem[target]
        label[e] = white_labels[target] = i + 1

    # success labels each slot and each black element once: every object
    # below is valid by construction
    readings = [label[starts[b]:stops[b]] for b in range(tree.p)]
    labeled = _trusted(LabeledThornTree, tree=tree,
                       white_labels=tuple(white_labels),
                       black_labels=tuple(tuple(r[-2::-1]) for r in readings))
    # recover beta: split each clockwise reading at its left-to-right maxima
    images = [0] * n
    for reading in readings:
        head = last = reading[0]
        for lab in reading[1:]:
            if lab > head:  # closes the cycle (head .. last)
                images[head - 1], head = last, lab
            else:
                images[lab - 1] = last
            last = lab
        images[head - 1] = last
    # each block is a union of beta's cycles; disjoint blocks sort by minimum
    pi = _trusted(SetPartition, n=n,
                  blocks=tuple(sorted(tuple(sorted(r)) for r in readings)))
    m = _trusted(BlackPartitionedStarMap,
                 beta=_trusted(Permutation, n=n, images=tuple(images)), pi=pi)
    return InverseOutcome(success=True, map=m, labeled=labeled)


# ---------------------------------------------------------------------------
# Auxiliary graph and image characterization


class AuxGraph(Value):
    """Functional graph on black vertices: out-degree 1 except at the root."""

    __slots__ = _fields = ("p", "root", "out")

    def __init__(self, p, root, out):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "out", out)

    def classify(self):
        """('tree', None) if every vertex reaches the root, else
        ('cycle', vertices) for some oriented cycle."""
        status = {self.root: "ok"}
        for start in range(self.p):
            path = []
            v = start
            while status.get(v) is None:
                path.append(v)
                status[v] = "active"
                v = self.out[v]
            if status[v] == "active":
                cycle = path[path.index(v):]
                for u in path:
                    status[u] = "cycle"
                return ("cycle", cycle)
            for u in path:
                status[u] = "ok"
        return ("tree", None)


def aux_graph(t):
    """Successor graph of a permuted thorn tree satisfying (P1).

    For each non-root black vertex, take the white element immediately
    left of its root edge, push it through sigma if it is a thorn, and
    point to the black extremity of the result.
    """
    tree = t.tree
    if tree.n == 0 or tree.white[0] is None:
        raise NoP1Error("leftmost root slot is not an edge")
    root = tree.white[0]
    sigma = t.sigma_map()
    out = {}
    for b in range(tree.p):
        if b == root:
            continue
        s = tree.edge_slot(b)
        if s == 0:
            raise AssertionError("only the root's edge can occupy the "
                                 "leftmost slot")
        v = tree.white[s - 1]
        out[b] = v if v is not None else sigma[s - 1][0]
    return AuxGraph(tree.p, root, out)


class Classification(Value):
    """Image-membership verdict for a permuted thorn tree: ``kind`` is
    no_p1 | cycle | image, and ``cycle`` is the oriented cycle of the
    auxiliary graph when ``kind`` is cycle."""

    __slots__ = _fields = ("kind", "cycle")

    def __init__(self, kind, cycle=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "cycle", cycle)

    def to_json_obj(self):
        d = {"kind": self.kind}
        if self.cycle is not None:
            d["cycle"] = list(self.cycle)
        return d


def classify(t):
    """Image iff (P1) holds and the auxiliary graph is a rooted tree."""
    try:
        g = aux_graph(t)
    except NoP1Error:
        return Classification("no_p1")
    verdict, cycle = g.classify()
    if verdict == "tree":
        return Classification("image")
    return Classification("cycle", tuple(cycle))


# ---------------------------------------------------------------------------
# Contraction move (phi) and proportions


def _element(slots, x):
    """The black element that root slot content ``x`` of an edit form
    meets: ("e", b) for black b's list, ("t", b, i) for its i-th thorn."""
    for b, thorns in enumerate(_black_lists(slots)):
        if x is thorns:
            return ("e", b)
        if x in thorns:
            return ("t", b, thorns.index(x))


def contract(t, marked):
    """Erase the marked black vertex, moving its thorns to its successor.

    The marked vertex must differ from the root vertex and from its own
    successor.  Returns the contracted tree together with the marked
    element (the successor's element that the erased edge pointed at).
    """
    g = aux_graph(t)
    if marked == g.root:
        raise ValueError("cannot contract the root vertex")
    if marked not in g.out:
        raise ValueError("no black vertex %d" % marked)
    target = g.out[marked]
    if target == marked:
        raise ValueError("marked vertex is self-looping")
    slots = _unpack(t)
    blacks = _black_lists(slots)
    s = t.tree.edge_slot(marked)
    marked_elem = _element(slots, slots[s - 1])
    if marked_elem[1] != target:
        raise AssertionError("marked element %r is not on the successor %d"
                             % (marked_elem, target))
    blacks[target].extend(blacks[marked])
    del slots[s]
    return _pack(slots), _element(slots, slots[s - 1])


def expand(t, marked_elem, k):
    """Inverse of contract: re-insert a black vertex of degree k.

    ``marked_elem`` is the edge or one of the first j-1 thorns of a black
    vertex of degree j+k-1 (j deduced from k).  A new edge slot is added
    just right of the marked element's white partner and the k-1
    rightmost (last, counter-clockwise) thorns of its vertex move to the
    new black vertex, which is returned as the marked vertex.
    """
    tree = t.tree
    if tree.white[0] is None:
        raise NoP1Error("leftmost root slot is a thorn")
    v = marked_elem[1]
    if not 0 <= v < tree.p:
        raise ValueError("no black vertex %d" % v)
    j = tree.degree(v) - k + 1
    if k < 1 or j < 1:
        raise ValueError("vertex degree %d cannot split as (j,k=%d)"
                         % (tree.degree(v), k))
    slots = _unpack(t)
    thorns = _black_lists(slots)[v]
    if marked_elem[0] == "t":
        if not 0 <= marked_elem[2] <= j - 2:
            raise ValueError("marked thorn %d is not among the first %d"
                             % (marked_elem[2], j - 1))
        w = slots.index(thorns[marked_elem[2]])
    elif marked_elem[0] == "e":
        w = tree.edge_slot(v)
    else:
        raise ValueError("bad marked element %r" % (marked_elem,))
    new = thorns[j - 1:]
    del thorns[j - 1:]
    slots.insert(w + 1, new)
    return _pack(slots), _element(slots, new)[1]


def proportion_stats(lam, budget=DEFAULT_PAIR_BUDGET):
    """Exact proportions (P, P', P1 incidence) over the permuted thorn
    trees of type lam, from one sweep.

    P is the share of image trees among all trees, P' their share among
    the trees satisfying (P1), and the P1 incidence is the share of trees
    satisfying (P1).  The closed forms are 1/(n-p+1), n/(p(n-p+1)) and p/n.
    """
    from fractions import Fraction

    if lam.size < 1:
        raise ValueError("n must be >= 1")
    total = with_p1 = image = 0
    for t in all_permuted_trees(lam, budget):
        total += 1
        with_p1 += t.tree.white[0] is not None
        image += classify(t).kind == "image"
    return (Fraction(image, total), Fraction(image, with_p1),
            Fraction(with_p1, total))
