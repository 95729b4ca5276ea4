"""The map-to-tree bijection, its inverse, the auxiliary completion-order
graph, and the contraction move used for the proportion argument.

The forward direction labels a star thorn tree from a black-partitioned
star map; the inverse recovers the labels one at a time, reading
left-to-right maxima clockwise around each black vertex.  A permuted
thorn tree is an image of the forward map exactly when its leftmost root
slot is a real edge (P1) and the auxiliary graph is a tree rooted at
that edge's black vertex (P2).
"""

from collections import Counter
from itertools import chain, permutations as iperm
from operator import itemgetter

from .oracle import (DEFAULT_BUDGET, InternalCheckError, _check,
                     _complement_orbit, _cycle_type)
from .partition import Partition, Value, _require_ints, _trusted
from .structures import (LabeledThornTree, StarThornTree, _black_lists, _pack,
                         _star_map, _star_maps, _thorn_targets, _unpack,
                         all_star_thorn_trees, to_json_obj)


class NoP1Error(ValueError):
    """Leftmost root slot is a thorn, so the auxiliary graph is undefined."""


def _psi_kernel(label_at, grouped):
    """Psi on plain tuples: (white, blacks, black_labels, sigma) of the
    star map with white labels ``label_at`` (right to left) and cycles
    ``grouped`` by block (as ``cycles_by_block``).  One edge per block sits
    at the label beta(max of block); black thorns are labeled ccw along the
    block's cycles by decreasing maximum; ``sigma`` gives each white thorn,
    left to right, the (black, thorn index) carrying its label."""
    # a block's first cycle ends at its maximum, so beta(max) starts it
    block_at_edge = {cycles[0][0]: cycles for cycles in grouped}
    white = []
    black_labels = []
    for lab in label_at:
        cycles = block_at_edge.get(lab)
        if cycles is None:
            white.append(None)
        else:
            white.append(len(black_labels))
            black_labels.append(tuple(chain(cycles[0][1:], *cycles[1:])))
    return (tuple(white), tuple(map(len, black_labels)), tuple(black_labels),
            _thorn_targets(white, label_at, black_labels))


def psi_label(m):
    """Build the labeled star thorn tree of a black-partitioned star map:
    ``_psi_kernel`` on its white labels, right to left the orbit of 1 under
    alpha^{-1}, from the walk that decides whether m is a star map."""
    n = m.n
    if n < 1:
        raise ValueError("n must be >= 1")
    images = m.beta.images
    label_at = _complement_orbit(images)
    if len(label_at) < n:  # alpha^{-1}(k) = beta(k - 1)
        alpha_type = Partition(_cycle_type(images[-1:] + images[:-1]))
        raise ValueError("the white-slot labeling needs alpha to be a "
                         "long cycle; got alpha of type %r" % (alpha_type,))
    white, blacks, labels, _ = _psi_kernel(label_at, m.cycles_by_block())
    tree = _trusted(StarThornTree, white=white, blacks=blacks)
    return _trusted(LabeledThornTree, tree=tree, white_labels=tuple(label_at),
                    black_labels=labels)


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
        super().__init__(success, map, labeled, step, certificate)

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
    map is checked by running Psi forward on it (InternalCheckError if
    it does not give t back), and the labeled tree returned is the one
    that check builds, ``psi_label`` of the map.
    """
    tree = t.tree
    if tree.n == 0:
        raise ValueError("the empty tree has no preimage: maps need n >= 1")
    shape = _shape(tree)
    label, white_labels, collision = _label_walk(shape, t.sigma)
    if collision is not None:
        step, target, beta_el = collision
        _, stops, vertex, _, _ = shape
        b = vertex[beta_el]
        stop = stops[b]
        return InverseOutcome(
            success=False, step=step,
            certificate={"collision_label": white_labels[target],
                         "collision_slot": target,
                         "beta_element": ["e", b] if beta_el == stop - 1
                         else ["t", b, stop - 2 - beta_el]})
    # success labels each slot and each black element once: the map is
    # valid by construction, and Psi run forward on it is the check
    m = _star_map(*_cycles(shape, label))
    labeled = psi_label(m) if m.is_star else None
    if labeled is None or labeled.to_permuted() != t:
        raise InternalCheckError("inverse self-check failed")
    return InverseOutcome(success=True, map=m, labeled=labeled)


def _shape(tree):
    """The arrays of the label walk that depend on the tree alone, not on
    sigma: (starts, stops, vertex, elem, slot).

    A black element's id is its position in the clockwise readings laid
    end to end (per vertex: thorns in reverse storage order, edge last),
    so vertex b owns the ids starts[b] .. stops[b] - 1 and ``vertex``
    maps an id back to b.  ``elem`` (slot -> id) and ``slot`` (id -> slot)
    hold the edges; the label walk adds sigma's thorns.
    """
    starts, stops, vertex = [], [], []
    for b, tc in enumerate(tree.blacks):
        starts.append(len(vertex))
        vertex += [b] * (tc + 1)
        stops.append(len(vertex))
    elem = [None] * tree.n
    slot = [0] * tree.n
    for s, b in enumerate(tree.white):
        if b is not None:
            elem[s] = stops[b] - 1
            slot[stops[b] - 1] = s
    return starts, stops, vertex, elem, slot


def _label_walk(shape, sigma):
    """Label the slots and black elements of one sigma on a shape.

    Returns (label per element id, label per white slot, collision):
    collision is None once every slot is labeled, or (step, slot, id of
    the beta element) at the first step whose target slot is labeled
    already.  ``sigma`` yields (white slot, (black, thorn index)) pairs.
    """
    starts, stops, vertex, elem, slot = shape
    elem, slot = elem[:], slot[:]
    for w, (b, ti) in sigma:
        e = stops[b] - 2 - ti
        elem[w], slot[e] = e, w
    n = len(elem)
    label = [0] * n  # per black element id; 0 while unlabeled
    white_labels = [0] * n
    free = starts[:]  # per vertex: first unlabeled id, if any
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
            if white_labels[target] != 1:
                raise InternalCheckError("collision label must be 1, got %d"
                                         % white_labels[target])
            return label, white_labels, (i, target, beta_el)
        e = elem[target]
        label[e] = white_labels[target] = i + 1
    return label, white_labels, None


def _cycles(shape, label):
    """(beta's images, pi's blocks) of a completed label walk: each
    vertex's clockwise reading splits into beta's cycles at its
    left-to-right maxima, and is one block."""
    starts, stops = shape[0], shape[1]
    readings = [label[a:z] for a, z in zip(starts, stops)]
    images = [0] * len(label)
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
    blocks = tuple(sorted(tuple(sorted(r)) for r in readings))
    return tuple(images), blocks


# ---------------------------------------------------------------------------
# Auxiliary graph and image characterization


class AuxGraph(Value):
    """Functional graph on black vertices: out-degree 1 except at the root."""

    __slots__ = _fields = ("p", "root", "out")

    def __init__(self, p, root, out):
        super().__init__(p, root, out)


def aux_graph(t):
    """Successor graph of a permuted thorn tree satisfying (P1).

    For each non-root black vertex, take the white element immediately
    left of its root edge, push it through sigma if it is a thorn, and
    point to the black extremity of the result.
    """
    tree = t.tree
    if tree.n == 0 or tree.white[0] is None:
        raise NoP1Error("leftmost root slot is not an edge")
    out, thorn_left = _aux_parts(tree)
    for b, k in thorn_left:
        out[b] = t.sigma[k][1][0]
    return AuxGraph(tree.p, tree.white[0],
                    {b: out[b] for b in range(1, tree.p)})


def _aux_parts(tree):
    """The auxiliary graph of a tree with (P1), as far as its shape fixes
    it: (out, thorn_left).  ``out[b]`` is b's successor wherever an edge
    slot sits left of b's edge; ``thorn_left`` lists the other non-root
    vertices b as pairs (b, k), the slot left of b's edge being the k-th
    white thorn, so that sigma's partner of that thorn names b's
    successor.  Slot 0 holds the root's edge; the other edges follow in
    root order.
    """
    out = [None] * tree.p
    thorn_left = []
    k = 0
    white = tree.white
    for s in range(1, tree.n):
        left = white[s - 1]
        if left is None:
            if white[s] is not None:
                thorn_left.append((white[s], k))
            k += 1
        elif white[s] is not None:
            out[white[s]] = left
    return out, thorn_left


def _verdict(out):
    """None if every black vertex's successors reach the root 0, else the
    oriented cycle that closes first.

    Follows each vertex's successors until a vertex already known to
    reach the root, or one already on the current path: that closes the
    cycle.  ``out[v]`` is read for every vertex v but the root.
    """
    reaches_root = [None] * len(out)  # False: on the current path
    reaches_root[0] = True
    for start in range(len(out)):
        path = []
        v = start
        while reaches_root[v] is None:
            reaches_root[v] = False
            path.append(v)
            v = out[v]
        if not reaches_root[v]:
            return tuple(path[path.index(v):])
        for u in path:
            reaches_root[u] = True
    return None


def _verdicts(tree):
    """None when a tree shape lacks (P1), else (key, verdict).  ``key``
    reads off a sigma, given as a tuple of black-thorn coordinates in
    white-thorn order, the tuple of coordinates the auxiliary graph takes
    from it; ``verdict`` maps a key to ``_verdict``'s result, None for an
    image, else the oriented cycle.  It walks the graph once per distinct
    tuple of the black vertices in a key.  Root order puts black 0 in
    slot 0 under (P1), so 0 is the root.
    """
    if not tree.white or tree.white[0] is None:
        return None
    out, thorn_left = _aux_parts(tree)
    ks = [k for _, k in thorn_left]
    if len(ks) > 1:
        key = itemgetter(*ks)
    else:  # of one index itemgetter gives the item, of a slice a tuple
        key = itemgetter(slice(ks[0], ks[0] + 1) if ks else slice(0))
    known = {}

    def verdict(targets):
        blacks = tuple([v for v, _ in targets])
        if blacks not in known:
            for (b, _), v in zip(thorn_left, blacks):
                out[b] = v
            known[blacks] = _verdict(out)
        return known[blacks]

    return key, verdict


class Classification(Value):
    """Image-membership verdict for a permuted thorn tree: ``kind`` is
    no_p1 | cycle | image, and ``cycle`` is the oriented cycle of the
    auxiliary graph when ``kind`` is cycle."""

    __slots__ = _fields = ("kind", "cycle")

    def __init__(self, kind, cycle=None):
        super().__init__(kind, cycle)

    def to_json_obj(self):
        d = {"kind": self.kind}
        if self.cycle is not None:
            d["cycle"] = list(self.cycle)
        return d


def classify(t):
    """Image iff (P1) holds and the auxiliary graph is a rooted tree."""
    verdicts = _verdicts(t.tree)
    if verdicts is None:
        return Classification("no_p1")
    key, verdict = verdicts
    cycle = verdict(key(tuple([bt for _, bt in t.sigma])))
    if cycle is None:
        return Classification("image")
    return Classification("cycle", cycle)


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
    _require_ints((marked,), "move indices")
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
        raise InternalCheckError("marked element %r is not on the successor "
                                 "%d" % (marked_elem, target))
    blacks[target].extend(blacks[marked])
    del slots[s]
    return _pack(slots), _element(slots, slots[s - 1])


def expand(t, marked_elem, k):
    """Inverse of contract: re-insert a black vertex of degree k.

    ``marked_elem`` is ("e", v), the edge of a black vertex v of degree
    j+k-1 (j deduced from k), or ("t", v, i), its i-th thorn, one of its
    first j-1; v and i are ints, and any other form is a ValueError.  A
    new edge slot is added just right of the marked element's white
    partner and the k-1 rightmost (last, counter-clockwise) thorns of its
    vertex move to the new black vertex, which is returned as the marked
    vertex.
    """
    tree = t.tree
    if tree.n == 0:
        raise NoP1Error("the tree has no root slot")
    if tree.white[0] is None:
        raise NoP1Error("leftmost root slot is a thorn")
    if len(marked_elem) < 2:
        raise ValueError("bad marked element %r" % (marked_elem,))
    _require_ints([*marked_elem[1:], k], "move indices")
    v = marked_elem[1]
    if not 0 <= v < tree.p:
        raise ValueError("no black vertex %d" % v)
    j = tree.degree(v) - k + 1
    if k < 1 or j < 1:
        raise ValueError("vertex degree %d cannot split as (j,k=%d)"
                         % (tree.degree(v), k))
    slots = _unpack(t)
    thorns = _black_lists(slots)[v]
    if marked_elem[0] == "t" and len(marked_elem) == 3:
        if not 0 <= marked_elem[2] <= j - 2:
            raise ValueError("marked thorn %d is not among the first %d"
                             % (marked_elem[2], j - 1))
        w = slots.index(thorns[marked_elem[2]])
    elif marked_elem[0] == "e" and len(marked_elem) == 2:
        w = tree.edge_slot(v)
    else:
        raise ValueError("bad marked element %r" % (marked_elem,))
    new = thorns[j - 1:]
    del thorns[j - 1:]
    slots.insert(w + 1, new)
    return _pack(slots), _element(slots, new)[1]


def proportion_stats(lam, budget=DEFAULT_BUDGET):
    """Exact proportions (P, P', P1 incidence) over the permuted thorn
    trees of type lam, from one sweep.

    P is the share of image trees among all trees, P' their share among
    the trees satisfying (P1), and the P1 incidence is the share of trees
    satisfying (P1).  The closed forms are 1/(n-p+1), n/(p(n-p+1)) and p/n.
    """
    from fractions import Fraction

    if lam.size < 1:
        raise ValueError("n must be >= 1")
    _check(lam.size, budget, "permuted-tree", long_cycle=False)
    total = with_p1 = image = 0
    for tree in all_star_thorn_trees(lam):
        sigmas = iperm(tree.black_thorn_coords())
        verdicts = _verdicts(tree)
        if verdicts is None:
            total += len(list(sigmas))
            continue
        key, verdict = verdicts
        keys = Counter(map(key, sigmas))
        count = sum(keys.values())
        total += count
        with_p1 += count
        image += sum(c for k, c in keys.items() if verdict(k) is None)
    return (Fraction(image, total), Fraction(image, with_p1),
            Fraction(with_p1, total))


def roundtrip_stats(lam, budget=DEFAULT_BUDGET):
    """Psi against its inverse and classify, over every star map and every
    permuted thorn tree of type lam.

    Returns (images, failures, agree):
      images    the number of distinct trees that Psi reaches;
      failures  (map, recovered map or None) for each map m that the
                inverse does not give back from Psi(m), in sweep order,
                then the maps whose image was never swept;
      agree     whether classify calls exactly the recoverable trees
                images.
    Maps, images and each tree shape's sigmas are all plain tuples
    (``_star_maps``, ``_psi_kernel``): each beta's cycles and white labels
    come from the star index, walked once per n, the inverse's label walk
    runs per sigma, and the shape's verdicts give classify's.  A map
    object is built only for a failure.
    """
    preimage = {}
    for beta, blocks, grouped, label_at in _star_maps(lam, budget):
        white, blacks, _, sigma = _psi_kernel(label_at, grouped)
        preimage[white, blacks, sigma] = beta, blocks
    images = len(preimage)
    failures = []
    agree = True
    for tree in all_star_thorn_trees(lam):
        shape = _shape(tree)
        wslots = tree.white_thorn_slots()
        key, verdict = _verdicts(tree) or (None, None)
        for sigma in iperm(tree.black_thorn_coords()):
            label, _, collision = _label_walk(shape, zip(wslots, sigma))
            is_image = verdict is not None and verdict(key(sigma)) is None
            agree &= is_image == (collision is None)
            m = preimage.pop((tree.white, tree.blacks, sigma), None)
            if m is None:
                continue
            recovered = None if collision else _cycles(shape, label)
            if recovered != m:
                failures.append((_star_map(*m),
                                 recovered and _star_map(*recovered)))
    failures += [(_star_map(*m), None) for m in preimage.values()]
    return images, failures, agree
