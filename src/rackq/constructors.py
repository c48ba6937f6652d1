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
from typing import Iterable

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
    i-th output component taken mod ``moduli[i]``.  Entry (i, j) must be
    a homomorphism Z_{n_j} -> Z_{n_i}, so n_i must divide n_j * entry, or
    ``ValueError`` is raised.  Elements are enumerated in mixed-radix
    little-endian order: the first coordinate varies fastest, so index k
    encodes the tuple ``((k // stride_i) % n_i)`` with ``stride_i`` the
    product of the earlier moduli.
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
        for i, (n_i, row) in enumerate(zip(self.moduli, self.alpha)):
            for j, (n_j, a) in enumerate(zip(self.moduli, row)):
                if n_j * a % n_i:
                    raise ValueError(
                        f"alpha[{i}][{j}]={a} is not a homomorphism from Z_{n_j} to Z_{n_i}:"
                        f" {n_i} does not divide {n_j}*{a}"
                    )

    @property
    def size(self) -> int:
        return math.prod(self.moduli)


def _images(moduli: tuple[int, ...], matrix) -> list[list[int]]:
    """For each output coordinate i, (sum_j matrix[i][j] * k_j) mod n_i at
    every index k, built one input coordinate at a time."""
    images = []
    for n_i, row in zip(moduli, matrix):
        values = [0]
        for a, n_j in zip(row, moduli):
            values = [(v + a * t) % n_i for t in range(n_j) for v in values]
        images.append(values)
    return images


def _indices(images: list[list[int]], strides) -> list[int]:
    """The index of every element whose coordinates are ``images``."""
    return list(map(sum, zip(*([v * s for v in values] for values, s in zip(images, strides)))))


def affine(spec: AffineSpec) -> RackTable:
    """The affine (Alexander) quandle for ``spec``.

    x acting on y gives (1 - alpha)(x) + alpha(y).  Raises
    :class:`NonInvertibleAlpha` if alpha is not a bijection on the group.
    A field Aff(F_{p^k}, alpha) is the group (Z_p)^k with the matrix of
    multiplication by alpha in a basis.

    With R_d = alpha o T_d, T_d the translation by d, row x is R_d for
    d = alpha^-1((1 - alpha)(x)), since alpha is additive.  Translation
    along the last, slowest coordinate rotates the whole index range, so
    R_d is a slice of R_e + R_e, e being d with last coordinate 0.  Only
    the n / n_last rows R_e are gathered, with m itemgetter gathers each
    (none on Z_n, where R_0 is alpha).  Cost: O(n*m) Python work for the
    index arrays, O(n^2*m / n_last) C-level work for the R_e, and one
    slice per row.
    """
    n, moduli = spec.size, spec.moduli
    strides = list(accumulate(moduli, mul, initial=1))
    images = _images(moduli, spec.alpha)
    alpha = _indices(images, strides)
    if len(set(alpha)) != n:
        if len(moduli) == 1:
            raise NonInvertibleAlpha(f"alpha={spec.alpha[0][0] % n} is not invertible mod {n}")
        raise NonInvertibleAlpha(f"alpha={spec.alpha!r} is not a bijection on the group")
    shift_matrix = [[(i == j) - a for j, a in enumerate(row)] for i, row in enumerate(spec.alpha)]
    shift = _indices(_images(moduli, shift_matrix), strides)
    span = n // moduli[-1]  # the indices whose last coordinate is 0
    bases = [tuple(alpha)]
    gathers = [itemgetter(*values) for values in images]
    for e in range(1, span):
        # R_e(z) = alpha(e) + alpha(z), added coordinate by coordinate.
        parts = (
            gather(tuple((v + values[e]) % m * s for v in range(m)))
            for gather, values, m, s in zip(gathers, images, moduli, strides)
        )
        bases.append(tuple(map(sum, zip(*parts))))
    doubled = [base + base for base in bases]
    starts = ((d % span, d - d % span) for d in map(inverse(alpha).__getitem__, shift))
    return RackTable(n, tuple(doubled[e][s : s + n] for e, s in starts))


CLASS_SIZE_GUARD = 10_000


def _conjugate(g: Perm, i: int) -> Perm:
    """t g t for the adjacent transposition t = (i i+1)."""
    if {g[i], g[i + 1]} == {i, i + 1}:
        return g  # t commutes with g
    h = list(g)
    h[i], h[i + 1] = g[i + 1], g[i]
    a, b = h.index(i), h.index(i + 1)
    h[a], h[b] = i + 1, i
    return tuple(h)


def check_class_size(degree: int, lengths: Iterable[int]) -> None:
    """Raise :class:`ClassTooLarge` if the class of cycle type ``lengths``
    in S_degree has more than CLASS_SIZE_GUARD members: d!/z_λ, with the
    fixed points' 1^m1 m1! cancelled into d!/m1!, so no list of length
    ``degree`` is built."""
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    counts = Counter(length for length in lengths if length > 1)
    z = math.prod(k**m * math.factorial(m) for k, m in counts.items())
    if math.perm(degree, sum(k * m for k, m in counts.items())) // z > CLASS_SIZE_GUARD:
        raise ClassTooLarge(f"conjugacy class exceeds {CLASS_SIZE_GUARD} elements")


def conjugation_class_quandle(degree: int, rep: Perm) -> RackTable:
    """The conjugation quandle on the conjugacy class of ``rep``.

    The carrier is the conjugacy class of ``rep`` inside the symmetric
    group on ``degree`` points, sorted lexicographically by image array;
    x acting on y is the conjugate x y x^-1.  Raises
    :class:`ClassTooLarge` past the CLASS_SIZE_GUARD, sizing the class
    from the cycle type of ``rep`` before building any of it.

    A BFS under conjugation by the adjacent transpositions t_i = (i i+1),
    which generate the group, records each member's parent and t_i.  With
    c_i the class-index array of conjugation by t_i, row(t_i m t_i) is
    c_i o row(m) o c_i (Joyce, JPAA 23, 1982): only the representative's
    row is composed, and each other row is two itemgetter gathers of its
    parent's.  Cost for N members: O(N*d^2) Python work for the BFS and
    the c_i, and O(N^2) C-level work for the rows.
    """
    rep = checked(rep)
    if len(rep) != degree:
        raise ValueError(f"representative acts on {len(rep)} points, expected {degree}")
    check_class_size(degree, cycle_lengths(rep))
    tree = {rep: None}
    order = [rep]
    for g in order:
        for i in range(degree - 1):
            h = _conjugate(g, i)
            if h is not g and h not in tree:
                tree[h] = (g, i)
                order.append(h)
    carrier = sorted(tree)
    index = {g: k for k, g in enumerate(carrier)}
    labels = {edge[1] for edge in tree.values() if edge}
    conj = {i: tuple(index[_conjugate(g, i)] for g in carrier) for i in labels}
    gathers = {i: itemgetter(*c) for i, c in conj.items()}
    rep_inv = inverse(rep)
    rows = {rep: tuple(index[compose(rep, compose(h, rep_inv))] for h in carrier)}
    for h in order[1:]:
        g, i = tree[h]
        rows[h] = itemgetter(*gathers[i](rows[g]))(conj[i])
    return RackTable(len(carrier), tuple(rows[g] for g in carrier))
