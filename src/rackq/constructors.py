"""Constructors for the classical rack and quandle families.

All constructors return tables whose defining formulas satisfy the rack
axioms, so they skip :func:`rackq.core.validate`; the test suite
re-validates sampled instances of every family through it.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice, repeat
from operator import add, itemgetter, mod, mul
from typing import Iterable

from .core import RackTable, check_carrier_size
from .errors import RackError
from .perm import Perm, checked, cycle_lengths, inverse


class NonInvertibleAlpha(RackError):
    """The supplied matrix does not act bijectively on the group."""


def trivial(n: int) -> RackTable:
    """The trivial quandle: every translation is the identity."""
    check_carrier_size(n)
    row = tuple(range(n))
    return RackTable(n, (row,) * n)


def cyclic_rack(n: int) -> RackTable:
    """The cyclic-type rack on Z_n: every translation adds one.

    A rack but not a quandle for n >= 2; its translations have no fixed
    point.
    """
    check_carrier_size(n)
    row = tuple((y + 1) % n for y in range(n))
    return RackTable(n, (row,) * n)


def dihedral(n: int) -> RackTable:
    """The dihedral quandle on Z_n: x acting on y gives 2x - y mod n.

    This is the affine quandle on Z_n with alpha = -1.
    """
    check_carrier_size(n)
    return affine(AffineSpec((n,), ((-1,),)))


@dataclass(frozen=True)
class AffineSpec:
    """An abelian group Z_{n_1} x ... x Z_{n_m} with an automorphism.

    ``alpha`` is an m-by-m integer matrix acting on column vectors, the
    i-th output component taken mod ``moduli[i]``.  Entry (i, j) must be
    a homomorphism Z_{n_j} -> Z_{n_i}, so n_i must divide n_j * entry, and
    every entry must be an ``int``, or :class:`RackError` is raised.
    Elements are enumerated in mixed-radix little-endian order: the first
    coordinate varies fastest, so index k encodes the tuple
    ``((k // stride_i) % n_i)`` with ``stride_i`` the product of the
    earlier moduli.
    """

    moduli: tuple[int, ...]
    alpha: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", tuple(self.moduli))
        try:
            alpha = tuple(map(tuple, self.alpha))
        except TypeError:
            alpha = ()  # not a sequence of sequences, so never m x m
        object.__setattr__(self, "alpha", alpha)
        for i, v in enumerate(self.moduli):
            if type(v) is not int:
                raise RackError(f"moduli[{i}] must be an integer, got {v!r}")
        if not self.moduli or any(m < 1 for m in self.moduli):
            raise RackError(f"moduli must be positive integers, got {self.moduli!r}")
        m = len(self.moduli)
        if len(self.alpha) != m or any(len(row) != m for row in self.alpha):
            raise RackError(f"alpha must be a {m}x{m} matrix")
        for i, (n_i, row) in enumerate(zip(self.moduli, self.alpha)):
            for j, (n_j, a) in enumerate(zip(self.moduli, row)):
                if type(a) is not int:
                    raise RackError(f"alpha[{i}][{j}] must be an integer, got {a!r}")
                if n_j * a % n_i:
                    raise RackError(
                        f"alpha[{i}][{j}]={a} is not a homomorphism from Z_{n_j} to Z_{n_i}:"
                        f" {n_i} does not divide {n_j}*{a}"
                    )

    @property
    def size(self) -> int:
        return math.prod(self.moduli)


def _images(moduli: tuple[int, ...], matrix) -> list[list[int]]:
    """For each output coordinate i, (sum_j matrix[i][j] * k_j) mod n_i at
    every index k.  The first coordinate's values are one arithmetic
    progression; each later coordinate j repeats the values so far n_j
    times, the t-th copy shifted by matrix[i][j] * t.  Every step is a
    C-level ``map``, so the Python work is constant per (i, j)."""
    images = []
    for n_i, row in zip(moduli, matrix):
        values = list(map(mod, islice(count(0, row[0]), moduli[0]), repeat(n_i)))
        for a, n_j in zip(row[1:], moduli[1:]):
            steps = chain.from_iterable(map(repeat, islice(count(0, a), n_j), repeat(len(values))))
            values = list(map(mod, map(add, values * n_j, steps), repeat(n_i)))
        images.append(values)
    return images


def _indices(images: list[list[int]], strides) -> list[int]:
    """The index of every element whose coordinates are ``images``,
    accumulated from the first coordinate, whose stride is 1."""
    indices = images[0]
    for values, s in zip(images[1:], strides[1:]):
        indices = list(map(add, indices, map(mul, values, repeat(s))))
    return indices


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
    (none on Z_n, where R_0 is alpha).  R_d(0) = alpha(d), so the R_d are
    keyed by their first entry and row x is the one keyed by
    (1 - alpha)(x): alpha is never inverted.  Cost: the index arrays of
    alpha and 1 - alpha are C-level maps over the n points, with O(m^2)
    Python steps; the R_e take O(n / n_last) Python steps and
    O(n^2*m / n_last) C-level work; each row is one slice.
    """
    n, moduli = spec.size, spec.moduli
    check_carrier_size(n)
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
    # scaled[i][c : c + n_i] maps v to (v + c) % n_i * stride_i.
    scaled = [tuple(range(0, m * s, s)) * 2 for m, s in zip(moduli, strides)]
    gathers = [itemgetter(*values) for values in images]
    for e in range(1, span):
        # R_e(z) = alpha(e) + alpha(z), added coordinate by coordinate.
        parts = (
            gather(steps[values[e] : values[e] + m])
            for gather, steps, values, m in zip(gathers, scaled, images, moduli)
        )
        bases.append(tuple(map(sum, zip(*parts))))
    doubled = [base + base for base in bases]
    # R_d for d = e + k * span is doubled[e] read from k * span, so d runs
    # through e fastest; alpha lists alpha(d) in the same order.
    by_image = dict(zip(alpha, (base[s : s + n] for s in range(0, n, span) for base in doubled)))
    return RackTable(n, tuple(map(by_image.__getitem__, shift)))


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
    """Pass the class of cycle type ``lengths`` in S_degree, d!/z_λ members,
    to :func:`rackq.core.check_carrier_size`; the fixed points' 1^m1 m1!
    cancel into d!/m1!, so no list of length ``degree`` is built."""
    if type(degree) is not int or degree < 1:
        raise RackError(f"degree must be a positive integer, got {degree!r}")
    counts = Counter(length for length in lengths if length > 1)
    z = math.prod(k**m * math.factorial(m) for k, m in counts.items())
    check_carrier_size(math.perm(degree, sum(k * m for k, m in counts.items())) // z)


def conjugation_class_quandle(degree: int, rep: Perm) -> RackTable:
    """The conjugation quandle on the conjugacy class of ``rep``.

    The carrier is the conjugacy class of ``rep`` inside the symmetric
    group on ``degree`` points, sorted lexicographically by image array;
    x acting on y is the conjugate x y x^-1.  The class is sized from the
    cycle type of ``rep`` by :func:`check_class_size` before any of it is
    built.

    A BFS under conjugation by the adjacent transpositions t_i = (i i+1),
    which generate the group, records each member's parent and t_i, and
    the BFS position of t_i m t_i for every member m.  Conjugation by t_i
    is an involution, so each pair {m, t_i m t_i} is conjugated once and
    gives both entries.  With c_i the class-index array of conjugation by
    t_i, read off those positions, row(t_i m t_i) is c_i o row(m) o c_i
    (Joyce, JPAA 23, 1982), two itemgetter gathers of its parent's row.
    The representative's row gathers every member's entries through rep
    and its columns through rep^-1, then looks the conjugates up.  Cost
    for N members: at most (d-1)*N calls of O(d) Python work for the
    BFS, and O(N*d) C-level work for the representative's row and O(N^2)
    for the others.
    """
    rep = checked(rep)
    if len(rep) != degree:
        raise RackError(f"representative acts on {len(rep)} points, expected {degree}")
    check_class_size(degree, cycle_lengths(rep))
    position = {rep: 0}
    order = [rep]
    parent = [None]
    # moves[i][p] is the BFS position of t_i g t_i, g being order[p].
    moves: list[dict[int, int]] = [{} for _ in range(degree - 1)]
    for p, g in enumerate(order):
        for i, move in enumerate(moves):
            if p in move:
                continue
            h = _conjugate(g, i)
            q = p if h is g else position.get(h)  # no hash of d entries when t_i commutes
            if q is None:
                q = position[h] = len(order)
                order.append(h)
                parent.append((p, i))
            move[p], move[q] = q, p
    n = len(order)
    by_rank = sorted(range(n), key=order.__getitem__)  # BFS positions, carrier order
    rank = inverse(by_rank)
    conj = {
        i: tuple(map(rank.__getitem__, map(moves[i].__getitem__, by_rank)))
        for i in {edge[1] for edge in parent[1:]}
    }
    gathers = {i: itemgetter(*c) for i, c in conj.items()}
    # rep h rep^-1 reads rep at the entries of h, taken in the order rep^-1.
    entries = list(map(rep.__getitem__, chain.from_iterable(map(order.__getitem__, by_rank))))
    conjugates = zip(*[entries[j::degree] for j in inverse(rep)])
    rows = [None] * n
    rows[rank[0]] = tuple(map(rank.__getitem__, map(position.__getitem__, conjugates)))
    for p in range(1, n):
        q, i = parent[p]
        rows[rank[p]] = itemgetter(*gathers[i](rows[rank[q]]))(conj[i])
    return RackTable(n, tuple(rows))
