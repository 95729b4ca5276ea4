"""Graphviz DOT rendering for maps, thorn trees, and auxiliary graphs.

Output is deterministic: nodes and edges are emitted in a fixed order.
Matched thorns of a permuted tree share a symbolic label (a, b, c, ...),
the convention used for drawing the pairing.
"""

from .bijection import AuxGraph
from .structures import (
    BlackPartitionedStarMap,
    LabeledThornTree,
    PermutedThornTree,
    StarThornTree,
)


def _symbol(i):
    # a, b, ..., z, a1, b1, ...
    letters = "abcdefghijklmnopqrstuvwxyz"
    return letters[i % 26] + (str(i // 26) if i >= 26 else "")


def _tree_lines(tree, wlabel, black_thorn_label):
    lines = ['  root [shape=circle, style=filled, fillcolor=white, label="W"];']
    for b in range(tree.p):
        lines.append(
            '  b%d [shape=circle, style=filled, fillcolor=black, '
            'fontcolor=white, label="%d"];' % (b, b))
    for s in range(tree.n):
        v = tree.white[s]
        if v is not None:
            lines.append('  root -- b%d [label="%s"];' % (v, wlabel(s)))
        else:
            lines.append('  wt%d [shape=point];' % s)
            lines.append('  root -- wt%d [label="%s", style=dashed];'
                         % (s, wlabel(s)))
    for b in range(tree.p):
        for t in range(tree.blacks[b]):
            lines.append('  bt%d_%d [shape=point];' % (b, t))
            lines.append('  b%d -- bt%d_%d [label="%s", style=dashed];'
                         % (b, b, t, black_thorn_label(b, t)))
    return lines


def tree_to_dot(tree):
    lines = ["graph star_thorn_tree {", "  ordering=out;"]
    lines += _tree_lines(tree, lambda s: "s%d" % s, lambda b, t: "")
    lines.append("}")
    return "\n".join(lines) + "\n"


def permuted_to_dot(t):
    """Symbolic labeling: sigma-paired thorns share a letter."""
    syms = {}
    for i, (w, bt) in enumerate(t.sigma):
        syms[("w", w)] = syms[("b",) + bt] = _symbol(i)
    lines = ["graph permuted_thorn_tree {", "  ordering=out;"]
    lines += _tree_lines(
        t.tree,
        lambda s: syms.get(("w", s), "e%d" % t.tree.white[s]
                           if t.tree.white[s] is not None else ""),
        lambda b, ti: syms[("b", b, ti)])
    lines.append("}")
    return "\n".join(lines) + "\n"


def labeled_to_dot(lt):
    lines = ["graph labeled_thorn_tree {", "  ordering=out;"]
    lines += _tree_lines(lt.tree,
                         lambda s: str(lt.white_labels[s]),
                         lambda b, t: str(lt.black_labels[b][t]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def map_to_dot(m):
    """White vertex plus one node per block, edge labels grouped by cycle."""
    lines = ["graph black_partitioned_map {",
             '  w [shape=circle, label="W"];']
    for i, (block, cycles) in enumerate(zip(m.pi.blocks,
                                            m.cycles_by_block())):
        lines.append('  blk%d [shape=box, label="{%s}"];'
                     % (i, ",".join(map(str, block))))
        for c in cycles:
            lines.append('  w -- blk%d [label="(%s)"];'
                         % (i, " ".join(map(str, c))))
    lines.append("}")
    return "\n".join(lines) + "\n"


def aux_to_dot(g):
    lines = ["digraph completion_order {",
             '  b%d [shape=doublecircle, label="%d"];' % (g.root, g.root)]
    for b in sorted(g.out):
        lines.append('  b%d -> b%d;' % (b, g.out[b]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(obj):
    if isinstance(obj, PermutedThornTree):
        return permuted_to_dot(obj)
    if isinstance(obj, LabeledThornTree):
        return labeled_to_dot(obj)
    if isinstance(obj, StarThornTree):
        return tree_to_dot(obj)
    if isinstance(obj, BlackPartitionedStarMap):
        return map_to_dot(obj)
    if isinstance(obj, AuxGraph):
        return aux_to_dot(obj)
    raise TypeError("cannot render %r" % type(obj))
