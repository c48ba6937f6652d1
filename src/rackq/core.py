"""Finite rack tables: axiom validation, classification, subracks.

A finite rack on {0, ..., n-1} is stored as an n-by-n table whose row x is
the image array of the left translation by x, i.e. ``rows[x][y]`` is the
result of applying x to y.  The two axioms are

* R1: every row is a permutation of the carrier, and
* R2: the operation is left self-distributive.

Tables are immutable after construction and every function here is pure,
so values can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import RackError
from .perm import CycleProfile, pattern, power

MAX_CELLS = 2**25  # n <= 5,792; building dihedral(5792) peaks near 272 MB


class CarrierTooLarge(RackError):
    """A carrier whose n-by-n table would hold more than MAX_CELLS cells."""


class TableValidationError(RackError):
    """An axiom failed; carries the first witness in row-major scan order."""


class OutOfRangeEntry(TableValidationError):
    def __init__(self, x: int, y: int, value: int, n: int):
        self.x, self.y, self.value = x, y, value
        super().__init__(f"entry at row {x}, column {y} is {value!r}, outside 0..{n - 1}")


class R1Violation(TableValidationError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} is not a permutation of the carrier")


class R2Violation(TableValidationError):
    def __init__(self, x: int, y: int, z: int):
        self.x, self.y, self.z = x, y, z
        super().__init__(f"self-distributivity fails at triple ({x}, {y}, {z})")


@dataclass(frozen=True)
class RackTable:
    """An n-by-n operation table; the single source of truth for a rack.

    Construct untrusted tables through :func:`validate`.  The constructor
    itself performs no axiom checks, so that constructors whose defining
    formulas guarantee the axioms can skip re-validation.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def orbits(self) -> tuple[frozenset[int], ...]:
        """Orbits of the carrier under the inner group, sorted by minimum,
        built on first use and kept on the table.

        The orbits come from forward closure under all translations; the
        neighbours of a point y are the entries of column y, read only for
        the points reached, and an orbit stops growing once it holds every
        point not yet placed.
        """
        rows = self.rows
        placed: set = set()
        orbits = []
        left = self.n
        start = 0
        while left:
            while start in placed:
                start += 1
            comp = {start}
            frontier = [start]
            while frontier and len(comp) < left:
                fresh = set(map(itemgetter(frontier.pop()), rows)) - comp
                comp |= fresh
                frontier.extend(fresh)
            left -= len(comp)
            placed |= comp
            orbits.append(frozenset(comp))
        return tuple(orbits)

    @cached_property
    def patterns(self) -> tuple[CycleProfile, ...]:
        """``patterns[x]`` is the cycle profile of the translation by x,
        counted on first read.  Translations in one orbit are conjugate,
        r_{r_a(x)} = r_a r_x r_a⁻¹, so all members of an orbit share one
        profile object, counted once on the orbit's minimum.
        """
        if len(self.orbits) == 1:
            return (pattern(self.rows[0]),) * self.n
        patterns: list = [None] * self.n
        for orbit in self.orbits:
            profile = pattern(self.rows[min(orbit)])
            for x in orbit:
                patterns[x] = profile
        return tuple(patterns)


@dataclass(frozen=True)
class ClassFlags:
    """Classification summary of one table.

    ``degree`` is the common order of the left translations when the rack
    is indecomposable; for decomposable tables it is the lcm of all their
    orders.
    """

    is_quandle: bool
    is_crossed_set: bool
    is_braided: bool
    is_indecomposable: bool
    degree: int


def check_carrier_size(n: int) -> None:
    """Refuse a carrier size that is not an ``int``, is below 1, or whose
    n-by-n table exceeds MAX_CELLS cells, before anything of it is built."""
    if type(n) is not int:
        raise RackError(f"carrier size must be an integer, got {n!r}")
    if n < 1:
        raise RackError(f"carrier size must be positive, got {n}")
    if n * n > MAX_CELLS:
        size = n if n.bit_length() <= 2000 else f"of {n.bit_length()} bits"  # too long for str()
        raise CarrierTooLarge(f"carrier size {size} exceeds the budget of {MAX_CELLS} table cells")


def validate(n: int, raw_table) -> RackTable:
    """Check both rack axioms and wrap the table.

    Raises on the first violation in row-major scan order:
    :class:`OutOfRangeEntry`, then :class:`R1Violation` for the first
    non-bijective row, then :class:`R2Violation` with the first failing
    triple.  Error witnesses are therefore deterministic.

    This function is the input gate: it checks the shape and that every
    entry is an int in 0..n-1.  One routine then checks the axioms, and
    :meth:`rackq.tableio.TableDocument.to_rack` calls it directly on rows
    it has built from such ints.  R1 holds when no row misses a point:
    n entries in range form a permutation exactly when they cover 0..n-1.

    R2 says every row is an automorphism.  Once the rows of a set A have
    passed, the subrack that A generates is the orbit of A under the group
    of those rows, since r_{g(b)} = g r_b g⁻¹ for every g in it; and all of
    its rows are automorphisms.  So rows are checked in order, skipping
    those in that orbit; the first row that fails is still the first row
    that is not an automorphism.  Row x is checked by comparing r_x r_y
    with r_{r_x(y)} r_x for each y, and a row equal to one that passed
    needs no check.

    From 8 to 256 points each row is also held as bytes: R1 deletes a
    row's bytes from the carrier's, and a composition is one
    ``bytes.translate`` through the other row padded to 256 entries.  On
    fewer points, where building the bytes costs more than it saves, and
    on more, where a byte cannot hold a point, R1 takes one set per row
    and a composition is one ``itemgetter`` gather.

    Either way the checks are 2·g·n compositions of n entries, each one
    C-level loop, where g counts the rows checked, and the orbit costs
    O(g·n): each checked row lies outside the orbit of the earlier ones,
    so g is one or two for dihedral and affine quandles.  The worst case
    is a rack with n distinct rows that needs about n generators, such as
    a disjoint union of many small quandles; trivial and cyclic racks have
    a single row and cost O(n²).
    """
    check_carrier_size(n)
    try:
        rows = tuple(tuple(row) for row in raw_table)
    except TypeError:
        rows = ()  # not a sequence of sequences, so never n x n
    if len(rows) != n or any(len(row) != n for row in rows):
        raise RackError(f"expected an {n}x{n} table")
    carrier = set(range(n))
    if not all(set(map(type, row)) == {int} and carrier.issuperset(row) for row in rows):
        # Some entry is not an int in range: scan entry by entry for the witness.
        for x, row in enumerate(rows):
            for y, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise OutOfRangeEntry(x, y, v, n)
    return _checked_rack(n, rows)


def _checked_rack(n: int, rows: tuple[tuple[int, ...], ...]) -> RackTable:
    """R1, then R2, on n rows of n ints in 0..n-1, as :func:`validate`
    describes; the rack on success."""
    if 8 <= n <= 256:
        # A row fits in bytes up to 256 points, and pays for building them
        # from 8.  Deleting a row's entries from the carrier leaves the
        # points it misses, and b.translate(t) is t∘b once t is padded to
        # 256 entries.
        raw = list(map(bytes, rows))
        carrier = bytes(range(n))
        onto = [not carrier.translate(None, b) for b in raw]
        pad = bytes(256 - n)
        compose, perms = [b.translate for b in raw], [b + pad for b in raw]
    else:
        onto = [len(set(row)) == n for row in rows]
        # compose[y](r) reads r at the entries of row y.
        compose, perms = [itemgetter(*row) for row in rows], rows
    if not all(onto):
        raise R1Violation(onto.index(False))
    # Either way compose[y](perms[x]) is r_x r_y.
    for x in _generators(rows, range(n), set()):
        rx, cx, px = rows[x], compose[x], perms[x]
        for y, cy in enumerate(compose):
            if cy(px) != cx(perms[rx[y]]):
                ry, rv = rows[y], rows[rx[y]]
                z = next(z for z in range(n) if rx[ry[z]] != rv[rx[z]])
                raise R2Violation(x, y, z)
    return RackTable(n, rows)


def is_quandle(r: RackTable) -> bool:
    """True if every point is fixed by its own translation."""
    return all(r.rows[x][x] == x for x in range(r.n))


def is_crossed_set(r: RackTable) -> bool:
    """True for quandles where fixing is symmetric.

    Whenever y leaves x fixed, x must leave y fixed as well.  ``r`` must be
    a rack, as :func:`validate` and the constructors return: the condition
    is kept by every automorphism and the inner group moves x through its
    orbit, so one x per orbit is tested against every y.
    """
    if not is_quandle(r):
        return False
    rows = r.rows
    for orbit in r.orbits:
        x = min(orbit)
        rx = rows[x]
        if any(v == x and rx[y] != y for y, v in enumerate(map(itemgetter(x), rows))):
            return False
    return True


def is_braided(r: RackTable) -> bool:
    """True if every pair satisfies one of the two braiding equations.

    For all x, y: either x fixes y, or applying x to the result of y
    acting on x gives back y.  ``r`` must be a rack, as for
    :func:`is_crossed_set`, which lets one x per orbit stand for its orbit.
    """
    rows = r.rows
    for orbit in r.orbits:
        x = min(orbit)
        rx = rows[x]
        if any(rx[y] != y and rx[v] != y for y, v in enumerate(map(itemgetter(x), rows))):
            return False
    return True


def subrack_closure(r: RackTable, seed) -> frozenset[int]:
    """Smallest superset of ``seed`` closed under the rack operation.

    ``r`` must be a rack, as :func:`validate` and the constructors return:
    its rows are automorphisms, so the closure is the orbit of the seed
    under the group of the seed's rows, as in :func:`validate`, and a seed
    point inside the orbit of the others adds no generator.  Closure
    under the binary operation alone suffices for finite racks: a finite
    subset closed under the operation is closed under each translation,
    and a bijection restricted to a finite invariant set is bijective on
    it, so the subset is itself a rack.
    """
    seed = set(seed)
    if not seed:
        raise RackError("seed must be non-empty")
    if any(not 0 <= p < r.n for p in seed):
        raise RackError(f"seed points must lie in 0..{r.n - 1}")
    members: set[int] = set()
    for _ in _generators(r.rows, seed, members):
        pass
    return frozenset(members)


def _generators(rows, points, members: set[int]):
    """Yield, in order, each of ``points`` whose row joins the generators,
    and grow ``members``, empty at the call, to the orbit of ``points``
    under them.

    A point already in the orbit is skipped, and so is one whose row is
    already a generator; a caller may check a yielded row before the loop
    resumes.  Each orbit frontier is mapped by every generator, so a point
    is read once per generator; the group is finite, so forward images
    alone reach the whole orbit.
    """
    gens: set = set()
    for x in points:
        if x in members:
            continue
        rx = rows[x]
        fresh = {x}
        if rx not in gens:
            yield x
            gens.add(rx)
            fresh.update(map(rx.__getitem__, members))
        fresh -= members
        while fresh:
            members |= fresh
            fresh = set().union(*[map(g.__getitem__, fresh) for g in gens]) - members


def is_subrack(r: RackTable, points) -> bool:
    """True if ``points`` is non-empty and closed under the operation;
    points outside the carrier raise :class:`RackError`."""
    pts = frozenset(points)
    return bool(pts) and subrack_closure(r, pts) == pts


def fixed_set(r: RackTable, x: int, t: int) -> frozenset[int]:
    """Points fixed by the t-th power of the translation by x."""
    if t < 1:
        raise RackError(f"power must be >= 1, got {t}")
    if not 0 <= x < r.n:
        raise RackError(f"point {x} outside 0..{r.n - 1}")
    pw = power(r.rows[x], t)
    return frozenset(y for y in range(r.n) if pw[y] == y)
