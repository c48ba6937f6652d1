"""Permutations on {0, ..., n-1} in image-array form, with cycle profiles.

A permutation on n points is a plain tuple ``p`` of length n whose entry
``p[i]`` is the image of i.  Composition follows the "apply the right
operand first" convention throughout the package: ``compose(p, q)[i] ==
p[q[i]]``.  All values are immutable and every function here is pure.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import RackError

Perm = tuple[int, ...]

MAX_LENGTH = 2**32


def is_permutation(images: Sequence[int]) -> bool:
    """True if ``images`` is a bijection on {0, ..., len(images)-1}.

    >>> is_permutation((1, 0, 2))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    n = len(images)
    seen = [False] * n
    for v in images:
        if not isinstance(v, int) or not 0 <= v < n or seen[v]:
            return False
        seen[v] = True
    return True


def checked(images: Iterable[int]) -> Perm:
    """Coerce to a tuple, requiring a valid permutation."""
    p = tuple(images)
    if not is_permutation(p):
        raise RackError(f"not a permutation of 0..{len(p) - 1}: {p}")
    return p


def cycle_decomposition(p: Perm) -> list[tuple[int, ...]]:
    """Disjoint cycles of ``p``, with fixed points kept as 1-cycles.

    Each cycle starts at its minimal element and lists its orbit in
    application order; cycles are sorted by minimal element, so the output
    is a canonical form suitable for direct comparison.

    >>> cycle_decomposition((1, 0, 2))
    [(0, 1), (2,)]
    """
    n = len(p)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        cyc = [start]
        nxt = p[start]
        while nxt != start:
            seen[nxt] = True
            cyc.append(nxt)
            nxt = p[nxt]
        cycles.append(tuple(cyc))
    return cycles


def cycle_lengths(p: Perm) -> list[int]:
    """Cycle lengths of ``p`` in order of the cycles' minimal elements."""
    return [len(c) for c in cycle_decomposition(p)]


@dataclass(frozen=True)
class CycleProfile:
    """Multiset of cycle lengths, stored as (length, multiplicity) pairs.

    Entries are sorted by strictly increasing length, so the fixed-point
    entry (length 1), when present, always comes first.  Lengths are
    capped at ``MAX_LENGTH``.  The same type describes the translations
    of a table and an abstract profile parsed from a string.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        lengths = [l for l, _ in self.entries]
        if any(l < 1 for l in lengths) or any(m < 1 for _, m in self.entries):
            raise RackError(f"profile entries must be positive: {self.entries!r}")
        if lengths != sorted(set(lengths)):
            raise RackError(f"profile lengths must be strictly increasing: {self.entries!r}")
        if lengths and lengths[-1] > MAX_LENGTH:
            raise RackError(f"lengths are capped at 2^32: {self.moving_lengths()!r}")

    @classmethod
    def from_cycle_lengths(cls, lengths: Iterable[int]) -> "CycleProfile":
        counts = Counter(lengths)
        return cls(tuple(sorted(counts.items())))

    @property
    def m0(self) -> int:
        """Multiplicity of fixed points (length-1 cycles)."""
        if self.entries and self.entries[0][0] == 1:
            return self.entries[0][1]
        return 0

    def moving_lengths(self) -> tuple[int, ...]:
        """Cycle lengths >= 2, ascending."""
        return tuple(l for l, _ in self.entries if l > 1)

    def moving_mults(self) -> tuple[int, ...]:
        """Multiplicities aligned with :meth:`moving_lengths`."""
        return tuple(m for l, m in self.entries if l > 1)

    def total(self) -> int:
        """Number of points covered: sum of length times multiplicity."""
        return sum(l * m for l, m in self.entries)

    def __str__(self) -> str:
        return " ".join(f"{l}^{m}" for l, m in self.entries)


def pattern(p: Perm) -> CycleProfile:
    """Cycle-length profile of ``p``.

    >>> str(pattern((0, 4, 3, 2, 1)))
    '1^1 2^2'
    """
    return CycleProfile.from_cycle_lengths(cycle_lengths(p))


def order(p: Perm) -> int:
    """Least t >= 1 with the t-th power of ``p`` equal to the identity."""
    return math.lcm(*cycle_lengths(p))


def support(p: Perm) -> int:
    """Number of points moved by ``p``."""
    return sum(1 for i, v in enumerate(p) if v != i)


def compose(p: Perm, q: Perm) -> Perm:
    """Composition applying ``q`` first, then ``p``."""
    if len(p) != len(q):
        raise RackError(f"size mismatch: {len(p)} vs {len(q)}")
    return tuple(p[v] for v in q)


def inverse(p: Perm) -> Perm:
    """Group inverse of ``p``."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def power(p: Perm, t: int) -> Perm:
    """The t-th power of ``p``; t may be negative or zero.

    Computed cycle-by-cycle, so the cost is linear in the number of points
    regardless of t.
    """
    images = [0] * len(p)
    for cyc in cycle_decomposition(p):
        k = len(cyc)
        shift = t % k
        for pos, point in enumerate(cyc):
            images[point] = cyc[(pos + shift) % k]
    return tuple(images)


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation on n points from disjoint cycles.

    Points absent from every cycle are fixed.

    >>> from_cycles(4, [(0, 2), (1, 3)])
    (2, 3, 0, 1)
    """
    images = list(range(n))
    touched = set()
    for cyc in cycles:
        for point in cyc:
            if not 0 <= point < n:
                raise RackError(f"cycle point {point} outside 0..{n - 1}")
            if point in touched:
                raise RackError(f"point {point} appears in more than one cycle")
            touched.add(point)
        for pos, point in enumerate(cyc):
            images[point] = cyc[(pos + 1) % len(cyc)]
    return tuple(images)
