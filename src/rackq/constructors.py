"""Constructors for the classical rack and quandle families.

All constructors return tables whose defining formulas satisfy the rack
axioms, so they skip :func:`rackq.core.validate`; the test suite
re-validates sampled instances of every family through it.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, mul

from .core import RackTable
from .errors import RackError
from .perm import Perm, checked, compose, cycle_lengths, inverse


class NonInvertibleAlpha(RackError):
    """The supplied matrix does not act bijectively on the group."""


class ClassTooLarge(RackError):
    """The requested conjugacy class exceeds the construction guard."""


def trivial(n: int) -> RackTable:
    """The trivial quandle: every translation is the identity."""
    if n < 1:
        raise ValueError(f"carrier size must be positive, got {n}")
    row = tuple(range(n))
    return RackTable(n, (row,) * n)


def cyclic_rack(n: int) -> RackTable:
    """The cyclic-type rack on Z_n: every translation adds one.

    A rack but not a quandle for n >= 2; its translations have no fixed
    point.
    """
    if n < 1:
        raise ValueError(f"carrier size must be positive, got {n}")
    row = tuple((y + 1) % n for y in range(n))
    return RackTable(n, (row,) * n)


def dihedral(n: int) -> RackTable:
    """The dihedral quandle on Z_n: x acting on y gives 2x - y mod n.

    This is the affine quandle on Z_n with alpha = -1.
    """
    if n < 1:
        raise ValueError(f"carrier size must be positive, got {n}")
    return affine(AffineSpec((n,), ((-1,),)))


@dataclass(frozen=True)
class AffineSpec:
    """An abelian group Z_{n_1} x ... x Z_{n_m} with an automorphism.

    ``alpha`` is an m-by-m integer matrix acting on column vectors, the
    i-th output component taken mod ``moduli[i]``.  Elements are
    enumerated in mixed-radix little-endian order: the first coordinate
    varies fastest, so index k encodes the tuple
    ``((k // stride_i) % n_i)`` with ``stride_i`` the product of the
    earlier moduli.
    """

    moduli: tuple[int, ...]
    alpha: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(int(v) for v in self.moduli))
        object.__setattr__(self, "alpha", tuple(tuple(int(v) for v in row) for row in self.alpha))
        if not self.moduli or any(m < 1 for m in self.moduli):
            raise ValueError(f"moduli must be positive integers, got {self.moduli!r}")
        m = len(self.moduli)
        if len(self.alpha) != m or any(len(row) != m for row in self.alpha):
            raise ValueError(f"alpha must be a {m}x{m} matrix")

    @property
    def size(self) -> int:
        size = 1
        for m in self.moduli:
            size *= m
        return size

    def elements(self) -> list[tuple[int, ...]]:
        """All group elements in mixed-radix little-endian order."""
        out = []
        for k in range(self.size):
            tup = []
            rem = k
            for m in self.moduli:
                tup.append(rem % m)
                rem //= m
            out.append(tuple(tup))
        return out

    def index_of(self, element: tuple[int, ...]) -> int:
        idx = 0
        stride = 1
        for coord, m in zip(element, self.moduli):
            idx += (coord % m) * stride
            stride *= m
        return idx

    def apply_alpha(self, element: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(
            sum(self.alpha[i][j] * element[j] for j in range(len(self.moduli))) % self.moduli[i]
            for i in range(len(self.moduli))
        )


def _by_additivity(moduli: tuple[int, ...], zero, steps) -> list:
    """Values of a map at every index, from its value at 0 and one step per
    coordinate: the value at k + e_i is ``steps[i]`` of the value at k."""
    values = [zero]
    for mod, step in zip(moduli, steps):
        stride = len(values)
        for _ in range(mod - 1):
            values.extend(map(step, values[-stride:]))
    return values


def affine(spec: AffineSpec) -> RackTable:
    """The affine (Alexander) quandle for ``spec``.

    x acting on y gives (1 - alpha)(x) + alpha(y).  Raises
    :class:`NonInvertibleAlpha` if the matrix is not a bijection on the
    group, which is checked by enumeration at construction.

    A field presentation Aff(F_{p^k}, alpha) with k > 1 is covered by this
    same code path: write the field as (Z_p)^k and pass the matrix of
    multiplication by alpha in a basis.

    Everything works on element indices.  ``add[k]`` is the translation
    y -> k + y as an index array, composed from the unit translations;
    alpha and 1 - alpha are extended from the unit vectors by additivity,
    and row x is ``add[(1 - alpha)(x)]`` read at alpha's index array.
    """
    n = spec.size
    moduli = spec.moduli
    units = []
    for mod, stride in zip(moduli, accumulate(moduli, mul, initial=1)):
        span = mod * stride  # k + e_i adds stride to k, wrapping within its span
        units.append(itemgetter(*(k - k % span + (k + stride) % span for k in range(n))))
    add = _by_additivity(moduli, tuple(range(n)), units)

    def extend(matrix) -> list[int]:
        """Index array of the additive map sending e_j to column j of ``matrix``."""
        steps = [add[spec.index_of(column)].__getitem__ for column in zip(*matrix)]
        return _by_additivity(moduli, 0, steps)

    alpha = extend(spec.alpha)
    if len(set(alpha)) != n:
        if len(moduli) == 1:
            raise NonInvertibleAlpha(f"alpha={spec.alpha[0][0] % n} is not invertible mod {n}")
        raise NonInvertibleAlpha(f"alpha={spec.alpha!r} is not a bijection on the group")
    shift = extend([[(i == j) - a for j, a in enumerate(row)] for i, row in enumerate(spec.alpha)])
    # The trailing 0 keeps itemgetter returning a tuple when n == 1.
    read_alpha = itemgetter(*alpha, 0)
    return RackTable(n, tuple(read_alpha(add[c])[:n] for c in shift))


CLASS_SIZE_GUARD = 10_000


def conjugation_class_quandle(degree: int, rep: Perm) -> RackTable:
    """The conjugation quandle on the conjugacy class of ``rep``.

    The carrier is the conjugacy class of ``rep`` inside the symmetric
    group on ``degree`` points, sorted lexicographically by image array;
    x acting on y is the conjugate x y x^-1.  Raises
    :class:`ClassTooLarge` past the CLASS_SIZE_GUARD, sizing the class
    from the cycle type of ``rep`` before building any of it.
    """
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    rep = checked(rep)
    if len(rep) != degree:
        raise ValueError(f"representative acts on {len(rep)} points, expected {degree}")
    lengths = Counter(cycle_lengths(rep))
    fixed = lengths.pop(1, 0)
    # d!/z_lambda, with the fixed points' 1^m1 m1! cancelled into d!/m1!
    z = math.prod(k**m * math.factorial(m) for k, m in lengths.items())
    if math.perm(degree, degree - fixed) // z > CLASS_SIZE_GUARD:
        raise ClassTooLarge(f"conjugacy class exceeds {CLASS_SIZE_GUARD} elements")
    # The class is the orbit of rep under conjugation; the adjacent
    # transpositions t = (i i+1) generate the group, so closing under them
    # reaches the whole class.  t commutes with g when g maps {i, i+1} to
    # itself, and then t g t = g.
    members = {rep}
    frontier = [rep]
    while frontier:
        g = frontier.pop()
        for i in range(degree - 1):
            if {g[i], g[i + 1]} == {i, i + 1}:
                continue
            h = list(g)
            h[i], h[i + 1] = g[i + 1], g[i]
            a, b = h.index(i), h.index(i + 1)
            h[a], h[b] = i + 1, i
            h = tuple(h)
            if h not in members:
                members.add(h)
                frontier.append(h)
    carrier = sorted(members)
    index = {g: i for i, g in enumerate(carrier)}
    rows = []
    for g in carrier:
        ginv = inverse(g)
        rows.append(tuple(index[compose(g, compose(h, ginv))] for h in carrier))
    return RackTable(len(carrier), tuple(rows))
