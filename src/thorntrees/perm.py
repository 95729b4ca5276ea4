"""Permutations of {1..n} with cycle machinery.

All ground-set elements are 1-based. Permutations are immutable; the
``images`` tuple stores the image of k at index k-1.
"""

from .partition import Partition, Value


class Permutation(Value):
    """A bijection of {1..n}, stored as a 1-based image array."""

    __slots__ = _fields = ("n", "images")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("images is not a bijection of {1..%d}: %r" % (n, images))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build a permutation of {1..n} from a list of cycles.

        Elements not mentioned in any cycle are fixed points.
        """
        images = list(range(1, n + 1))
        seen = set()
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in seen:
                    raise ValueError("element %d appears in two cycles" % a)
                seen.add(a)
                images[a - 1] = b
        return cls(images)

    def __call__(self, k):
        return self.images[k - 1]

    def __repr__(self):
        cycles = self.cycles()
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
        return "Permutation[%s]" % (body or "id0")

    def __mul__(self, other):
        """Composition (self*other)(k) = self(other(k)): the right factor acts first."""
        return compose(self, other)

    def inverse(self):
        inv = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(inv)

    def cycles(self):
        """Cycle decomposition in canonical form.

        Each cycle is written with its maximum element last; cycles are
        ordered by decreasing maximum.
        """
        seen = [False] * (self.n + 1)
        out = []
        for start in range(1, self.n + 1):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            k = self(start)
            while k != start:
                cyc.append(k)
                seen[k] = True
                k = self(k)
            m = max(cyc)
            j = cyc.index(m)
            cyc = cyc[j + 1:] + cyc[:j + 1]  # rotate so the maximum comes last
            out.append(tuple(cyc))
        out.sort(key=lambda c: -c[-1])
        return out

    def cycle_type(self):
        return Partition(sorted((len(c) for c in self.cycles()), reverse=True))

    def is_long_cycle(self):
        """True iff the permutation is a single cycle covering {1..n}.

        For n=1 the identity counts as a long cycle.
        """
        return len(self.cycles()) == 1 or self.n == 0


def compose(f, g):
    """(f*g)(k) = f(g(k)); rejects size mismatch."""
    if f.n != g.n:
        raise ValueError("size mismatch: %d vs %d" % (f.n, g.n))
    return Permutation(f(g(k)) for k in range(1, f.n + 1))


def canonical_long_cycle(n):
    """The long cycle (1 2 ... n): k -> k+1, n -> 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Permutation(list(range(2, n + 1)) + [1])


def all_permutations(n):
    """Iterate over all of S_n (image arrays in lexicographic order)."""
    from itertools import permutations as iperm

    for images in iperm(range(1, n + 1)):
        yield Permutation(images)
