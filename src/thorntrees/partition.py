"""Integer partitions and set partitions of {1..n}, and ``Value``, the
base of the package's immutable value classes.

Partitions are stored as weakly decreasing tuples of positive parts.
Set partitions store their blocks sorted by minimum element.
"""

from itertools import chain, combinations, permutations, product
from math import factorial, prod
from operator import attrgetter, lt


class Value:
    """Base of the immutable value classes: equality (same class, same
    fields), hashing, repr and pickling are derived from ``_fields``.

    A subclass lists its fields in ``_fields`` (and in ``__slots__``) and
    sets each once, in ``__init__``, with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = property(attrgetter(*cls._fields))

    def _immutable(self, *args):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __getstate__(self):  # copy and pickle: the fields, as they are
        return self._key

    def __setstate__(self, values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def _trusted(cls, **fields):
    """An instance of ``cls`` built valid by construction: no validation."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _require_ints(values, what):
    """Refuse a bool, a float or a string among ``values`` rather than
    coerce it: the public constructors' check on their elements."""
    if set(map(type, values)) - {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError("%s must be integers, found %r" % (what, bad))


class Partition(tuple):
    """Weakly decreasing sequence of positive integer parts: a validated
    tuple, equal to and hashing like the plain tuple of its parts."""

    __slots__ = ()

    def __init__(self, parts):
        _require_ints(self, "parts")
        if min(self, default=1) < 1:
            raise ValueError("parts must be positive: %r" % (tuple(self),))
        if any(map(lt, self, self[1:])):
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
        """Replace one part i by i+1 (size +1, length preserved): the
        leftmost one, whose left neighbour is > i, so no re-sort."""
        if i not in self:
            raise ValueError("no part %d in %r" % (i, self))
        k = self.index(i)
        return Partition(self[:k] + (i + 1,) + self[k + 1:])

    def down(self, j):
        """Replace one part j (j >= 2) by j-1 (size -1, length preserved):
        the rightmost one, whose right neighbour is < j, so no re-sort."""
        if j < 2:
            raise ValueError("down requires a part >= 2")
        if j not in self:
            raise ValueError("no part %d in %r" % (j, self))
        k = self.index(j) + self.count(j)
        return Partition(self[:k - 1] + (j - 1,) + self[k:])

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


class SetPartition(Value):
    """Family of disjoint nonempty blocks covering {1..n}."""

    __slots__ = _fields = ("n", "blocks")

    def __init__(self, n, blocks):
        if type(n) is not int:
            raise ValueError("n must be an integer, found %r" % (n,))
        blocks = [tuple(b) for b in blocks]
        _require_ints([x for b in blocks for x in b], "block elements")
        if not all(blocks):
            raise ValueError("blocks must be nonempty: %r" % (blocks,))
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        flat = [x for b in blocks for x in b]
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..%d}: %r" % (n, blocks))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    def type_of(self):
        return Partition(sorted((len(b) for b in self.blocks), reverse=True))

    def __repr__(self):
        return "SetPartition(%d, %r)" % (self.n, [list(b) for b in self.blocks])


def set_partitions_of_type(lam):
    """All set partitions of {1..|lam|} whose sorted block sizes equal lam.

    Duplicate-free: each block is anchored at its smallest unused element.
    Every block is built sorted and the blocks come in order of their
    minima, so each set partition is valid by construction and built
    without validation.
    """
    n = lam.size

    def gen(remaining, sizes):
        if not remaining:
            yield ()
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
                    yield (block,) + tail

    for blocks in gen(tuple(range(1, n + 1)), list(lam)):
        yield _trusted(SetPartition, n=n, blocks=blocks)


def _each_beta(pi):
    """Run through S_pi, yielding one 0-based image list rewritten in place."""
    images = list(range(pi.n))
    blocks = [[x - 1 for x in b] for b in pi.blocks]
    sources = [x for b in blocks for x in b]
    for targets in product(*map(permutations, blocks)):
        for src, dst in zip(sources, chain.from_iterable(targets)):
            images[src] = dst
        yield images


def permutations_in(pi):
    """All permutations of {1..n} whose every cycle stays inside a block of pi.

    Equivalently the direct product of the symmetric groups of the blocks;
    there are prod |block|! of them.
    """
    from .perm import Permutation

    for images in _each_beta(pi):
        yield Permutation(x + 1 for x in images)
