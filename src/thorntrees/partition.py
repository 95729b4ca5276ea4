"""Integer partitions and set partitions of {1..n}.

Partitions are stored as weakly decreasing tuples of positive parts.
Set partitions store their blocks sorted by minimum element.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod


class Partition(tuple):
    """Weakly decreasing sequence of positive integer parts: a validated
    tuple, equal to and hashing like the plain tuple of its parts."""

    __slots__ = ()

    def __init__(self, parts):
        if any(p < 1 for p in self):
            raise ValueError("parts must be positive: %r" % (tuple(self),))
        if any(self[i] < self[i + 1] for i in range(len(self) - 1)):
            raise ValueError("parts must be weakly decreasing: %r"
                             % (tuple(self),))

    @property
    def parts(self):
        """The parts as a plain tuple."""
        return tuple(self)

    @property
    def size(self):
        return sum(self)

    @property
    def length(self):
        return len(self)

    def multiplicity(self, i):
        """m_i: the number of parts equal to i."""
        return self.count(i)

    def multiplicities(self):
        out = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def z(self):
        """Centralizer size: prod_i i^{m_i} * m_i!."""
        return prod(i ** m * factorial(m) for i, m in self.multiplicities().items())

    def aut(self):
        """Multiplicity symmetry factor: prod_i m_i!."""
        return prod(factorial(m) for m in self.multiplicities().values())

    def up(self, i):
        """Replace one part i by i+1 (size +1, length preserved)."""
        if i not in self:
            raise ValueError("no part %d in %r" % (i, self))
        parts = list(self)
        parts.remove(i)
        parts.append(i + 1)
        return Partition(sorted(parts, reverse=True))

    def down(self, j):
        """Replace one part j (j >= 2) by j-1 (size -1, length preserved)."""
        if j < 2:
            raise ValueError("down requires a part >= 2")
        if j not in self:
            raise ValueError("no part %d in %r" % (j, self))
        parts = list(self)
        parts.remove(j)
        parts.append(j - 1)
        return Partition(sorted(parts, reverse=True))

    def exponential(self):
        """Exponential notation like '1^2 3^1 4^2' (empty partition: '()')."""
        if not self:
            return "()"
        mult = self.multiplicities()
        return " ".join("%d^%d" % (i, mult[i]) for i in sorted(mult))

    def __repr__(self):
        return "Partition%r" % (tuple(self),)


def partitions_of(n):
    """All partitions of n in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(remaining, cap, prefix):
        if remaining == 0:
            yield Partition(prefix)
            return
        for first in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - first, first, prefix + [first])

    yield from gen(n, n, [])


class SetPartition:
    """Family of disjoint nonempty blocks covering {1..n}."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        flat = [x for b in blocks for x in b]
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..%d}: %r" % (n, blocks))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition is immutable")

    def type_of(self):
        return Partition(sorted((len(b) for b in self.blocks), reverse=True))

    def __eq__(self, other):
        return (isinstance(other, SetPartition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return "SetPartition(%d, %r)" % (self.n, [list(b) for b in self.blocks])


def set_partitions_of_type(lam):
    """All set partitions of {1..|lam|} whose sorted block sizes equal lam.

    Duplicate-free: each block is anchored at its smallest unused element.
    """
    n = lam.size

    def gen(remaining, sizes):
        if not remaining:
            yield []
            return
        anchor = remaining[0]
        rest = remaining[1:]
        tried = set()
        for s in sizes:
            if s in tried:
                continue
            tried.add(s)
            sub = list(sizes)
            sub.remove(s)
            for others in combinations(rest, s - 1):
                block = (anchor,) + others
                left = tuple(x for x in rest if x not in others)
                for tail in gen(left, sub):
                    yield [block] + tail

    for blocks in gen(tuple(range(1, n + 1)), list(lam)):
        yield SetPartition(n, blocks)


def permutations_in(pi):
    """All permutations of {1..n} whose every cycle stays inside a block of pi.

    Equivalently the direct product of the symmetric groups of the blocks;
    there are prod |block|! of them.
    """
    from .oracle import _each_beta
    from .perm import Permutation

    for images in _each_beta(pi):
        yield Permutation(x + 1 for x in images)
