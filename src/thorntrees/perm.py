"""Permutations of {1..n} with cycle machinery.

All ground-set elements are 1-based. Permutations are immutable; the
``images`` tuple stores the image of k at index k-1.
"""

from .oracle import InternalCheckError
from .partition import Value, _require_ints, _trusted_partition


class Permutation(Value):
    """A bijection of {1..n}, stored as a 1-based image array."""

    __slots__ = _fields = ("n", "images")

    def __init__(self, images):
        images = tuple(images)
        _require_ints(images, "images")
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("images is not a bijection of {1..%d}: %r" % (n, images))
        super().__init__(n, images)

    def __call__(self, k):
        if type(k) is not int or not 1 <= k <= self.n:
            raise ValueError("k must be an integer in 1..%d, got %r"
                             % (self.n, k))
        return self.images[k - 1]

    def __repr__(self):
        cycles = self.cycles()
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
        return "Permutation[%s]" % (body or "id0")

    def inverse(self):
        inv = [0] * self.n
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(inv)

    def cycles(self):
        """Cycle decomposition in canonical form (see ``_cycles``)."""
        return _cycles(self.images)

    def cycle_type(self):
        return _trusted_partition(sorted(map(len, self.cycles()), reverse=True))

    def is_long_cycle(self):
        """True iff the permutation is a single cycle covering {1..n}.

        For n=1 the identity counts as a long cycle.
        """
        return len(self.cycles()) == 1 or self.n == 0


def _cycles(images):
    """The cycles of a 1-based image tuple in canonical form: each cycle
    is written with its maximum element last, and cycles are ordered by
    decreasing maximum.  The walk runs from n downward, so each cycle is
    met at its maximum and written from that element's image on.
    InternalCheckError on a revisited element (the images are no
    permutation)."""
    seen = [False] * (len(images) + 1)
    out = []
    for top in range(len(images), 0, -1):
        if not seen[top]:
            cyc, k = [], images[top - 1]
            while k != top:  # top is never met again: no need to mark it
                if seen[k]:
                    raise InternalCheckError(
                        "images are not a permutation of {1..%d}"
                        % len(images))
                seen[k] = True
                cyc.append(k)
                k = images[k - 1]
            out.append((*cyc, top))
    return out


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
