"""Integer partitions and set partitions of {1..n}, and ``Value``, the
base of the package's immutable value classes.

Partitions are stored as weakly decreasing tuples of positive parts.
Set partitions store their blocks sorted by minimum element.
"""

from itertools import chain, combinations, permutations, product
from math import factorial, prod
from operator import attrgetter, lt


class Value:
    """Base of the immutable value classes: construction, equality (same
    class, same fields), hashing, repr and pickling are derived from
    ``_fields``.

    A subclass lists its fields in ``_fields`` (and in ``__slots__``); its
    constructor validates and then stores them through ``Value.__init__``.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        """Store ``values`` as the ``_fields``, one for one: the only code
        that sets an attribute of a value."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the fields as a tuple (attrgetter returns a bare value for one)
        names = cls._fields
        key = attrgetter(*names) if len(names) > 1 else (
            lambda self: tuple(getattr(self, name) for name in names))
        cls._key = property(key)

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
        Value.__init__(self, *values)


def _trusted(cls, **fields):
    """An instance of ``cls`` built valid by construction: no validation.
    TypeError unless ``fields`` names each of ``cls._fields``, and no
    other."""
    if fields.keys() != set(cls._fields):
        raise TypeError("%s takes the fields %s, got %s" % (
            cls.__name__, ", ".join(cls._fields), ", ".join(fields)))
    obj = object.__new__(cls)
    Value.__init__(obj, *map(fields.__getitem__, cls._fields))
    return obj


_INT = frozenset((int,))


def _require_ints(values, what):
    """Refuse a bool, a float or a string among ``values`` rather than
    coerce it: the public constructors' check on their elements."""
    if not _INT.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) is not int)
        raise ValueError("%s must be integers, found %r" % (what, bad))


class Partition(tuple):
    """Weakly decreasing sequence of positive integer parts: a validated
    tuple, equal to and hashing like the plain tuple of its parts."""

    __slots__ = ()

    def __init__(self, parts):
        # the checks in order (integers, positive, weakly decreasing), in
        # one frame: once the order holds, the last part is the least, and
        # min runs only to pick the message of a refusal
        if not self:
            return
        if not _INT.issuperset(map(type, self)):
            _require_ints(self, "parts")
        if self[-1] < 1 or any(map(lt, self, self[1:])):
            if min(self) < 1:
                raise ValueError("parts must be positive: %r" % (tuple(self),))
            raise ValueError("parts must be weakly decreasing: %r"
                             % (tuple(self),))

    @property
    def parts(self):
        """The parts as a plain tuple."""
        return tuple(self)

    @property
    def size(self):
        return sum(self)

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
        leftmost one, whose left neighbour is > i, so no re-sort.  The
        result is valid by construction and built without validation."""
        try:
            k = self.index(i)
        except ValueError:
            raise ValueError("no part %d in %r" % (i, self)) from None
        if type(i) is not int:  # a float or a bool equal to a part:
            # refused as the constructor refuses it (True + 1 is the int
            # 2, so True itself is checked too)
            _require_ints((i + 1, i), "parts")
        return _trusted_partition(self[:k] + (self[k] + 1,) + self[k + 1:])

    def down(self, j):
        """Replace one part j (j >= 2) by j-1 (size -1, length preserved):
        the rightmost one, whose right neighbour is < j, so no re-sort.
        The result is valid by construction and built without
        validation."""
        if j < 2:
            raise ValueError("down requires a part >= 2")
        try:
            k = self.index(j) + self.count(j) - 1
        except ValueError:
            raise ValueError("no part %d in %r" % (j, self)) from None
        if type(j) is not int:  # a float equal to a part: refused as
            _require_ints((j - 1,), "parts")  # the constructor refuses it
        return _trusted_partition(self[:k] + (self[k] - 1,) + self[k + 1:])

    def exponential(self):
        """Exponential notation like '1^2 3^1 4^2' (empty partition: '()')."""
        if not self:
            return "()"
        # the dict is in order of decreasing part: read it backwards
        return " ".join(["%d^%d" % item
                         for item in reversed(self.multiplicities().items())])

    def __repr__(self):
        return "Partition%r" % (tuple(self),)


def _trusted_partition(parts):
    """A Partition of ``parts`` built without validation: the one way to
    build one for callers whose parts are positive integers in weakly
    decreasing order by construction."""
    return tuple.__new__(Partition, parts)


def partitions_of(n):
    """All partitions of n in decreasing lexicographic order.

    Zoghbi and Stojmenovic's ZS1 (Int. J. Comput. Math., 1998): one working
    list ``x`` holds the current partition, and ``h`` indexes its last part
    above 1.  The next partition lowers that part to r = x[h] - 1 and
    spreads the freed sum over parts r and one remainder.  Each list is
    weakly decreasing with positive parts that sum to n, so it is copied
    into a ``Partition`` without validation.
    """
    if type(n) is not int:
        raise ValueError("n must be an integer, found %r" % (n,))
    if n < 0:
        raise ValueError("n must be >= 0")
    x = [n] if n else []
    h = 0 if n > 1 else -1
    yield _trusted_partition(x)
    while h >= 0:
        if x[h] == 2:
            x[h] = 1
            x.append(1)
            h -= 1
        else:
            r = x[h] - 1
            q, t = divmod(x[h] + len(x) - 1 - h, r)
            del x[h:]
            x += [r] * q
            h += q - 1
            if t:
                x.append(t)
                if t > 1:
                    h += 1
        yield _trusted_partition(x)


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
        super().__init__(n, blocks)

    def type_of(self):
        return _trusted_partition(sorted(map(len, self.blocks), reverse=True))

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


def permutations_in(pi):
    """All permutations of {1..n} whose every cycle stays inside a block of pi.

    Equivalently the direct product of the symmetric groups of the blocks;
    there are prod |block|! of them.
    """
    from .perm import Permutation

    images = [0] * pi.n
    sources = [x - 1 for b in pi.blocks for x in b]
    for targets in product(*map(permutations, pi.blocks)):
        for src, dst in zip(sources, chain.from_iterable(targets)):
            images[src] = dst
        yield Permutation(images)
