"""Permutations in one-line notation and adjacent-transposition words.

Composition is ``(s * t)(x) = s(t(x))``.  Adjacent transpositions are
addressed by ``i`` in ``1..n-1``, meaning the swap of ``i`` and ``i+1``.
"""
from __future__ import annotations


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        self.images = images

    @property
    def n(self):
        return len(self.images)

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    @classmethod
    def adjacent(cls, i, n):
        """The transposition (i, i+1) in S_n."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"s_{i} does not exist in S_{n}")
        img = list(range(1, n + 1))
        img[i - 1], img[i] = img[i], img[i - 1]
        return cls(img)

    @classmethod
    def cycle(cls, points, n):
        """The cycle sending points[0] -> points[1] -> ... -> points[0]."""
        img = list(range(1, n + 1))
        for a, b in zip(points, points[1:] + [points[0]]):
            img[a - 1] = b
        return cls(img)

    def __call__(self, x):
        return self.images[x - 1]

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(self.images[other.images[x - 1] - 1] for x in range(1, self.n + 1))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


def factor_adjacent(perm: Permutation) -> list[int]:
    """Word ``[i1, ..., ik]`` with ``perm = s_{i1} * ... * s_{ik}``.

    Bubble sort of the one-line notation; the word length is at most the
    inversion count, hence at most n(n-1)/2.
    """
    line = list(perm.images)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(line) - 1):
            if line[i] > line[i + 1]:
                line[i], line[i + 1] = line[i + 1], line[i]
                swaps.append(i + 1)
                changed = True
    return swaps[::-1]


def all_permutations(n):
    """All of S_n in lexicographic order of one-line notation."""
    from itertools import permutations as _perms

    return [Permutation(p) for p in _perms(range(1, n + 1))]
