"""Exhaustive generation of small racks up to isomorphism.

Tables are built row by row; row candidates run over permutations in
lexicographic order (restricted to diagonal-fixing permutations when
quandles are required).  After each placement every self-distributivity
instance whose three entries are defined is checked, batched per pair of
rows.  When some already-placed pair forces the next row (the translation
by an already-known product), only that single candidate is tried; the
same pair checks still verify it, so the set of generated tables is
unchanged and the stream stays in lexicographic order.

Isomorphism rejection is by canonical form: the lexicographically minimal
relabeling of the table.  Only tables equal to their canonical form are
emitted.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterator

from .core import RackTable, is_braided, is_crossed_set
from .errors import RackError
from .inner import is_indecomposable, rack_profile
from .perm import inverse

MAX_ORDER = 7


class OrderTooLarge(RackError):
    """The requested order exceeds the search guard."""

    def __init__(self, n: int):
        super().__init__(f"enumeration is guarded at order {MAX_ORDER}, got {n}")


@dataclass(frozen=True)
class EnumerationFilter:
    """Predicates a generated table must satisfy.

    Requiring crossed sets implies requiring quandles.
    """

    require_quandle: bool = False
    require_crossed_set: bool = False
    require_braided: bool = False
    require_indecomposable: bool = False

    def __post_init__(self):
        if self.require_crossed_set and not self.require_quandle:
            object.__setattr__(self, "require_quandle", True)


@dataclass
class CensusReport:
    """Aggregate result of one census run.

    ``histogram`` maps profile strings to class counts and covers the
    indecomposable representatives only, since decomposable tables have no
    single profile; when indecomposability is required its counts sum to
    ``total_up_to_iso``.
    """

    order: int
    filters: EnumerationFilter
    total_up_to_iso: int
    total_labelled: int
    histogram: dict[str, int] = field(default_factory=dict)


@lru_cache(maxsize=None)
def _perms(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(n)))


@lru_cache(maxsize=None)
def _perms_fixing(n: int, i: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in _perms(n) if p[i] == i)


@lru_cache(maxsize=None)
def _perm_inverse_pairs(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    return tuple((s, inverse(s)) for s in _perms(n))


def _guard(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(n)


def _pairs_consistent(rows: list, r: int, n: int) -> bool:
    """Check the self-distributivity instances completed by row r.

    A triple (a, b, c) is decided once rows a, b and rows[a][b] exist;
    batching over c turns each pair (a, b) into one composed-row
    comparison.
    """
    rng = range(r + 1)
    for a in rng:
        ra = rows[a]
        for b in rng:
            v = ra[b]
            if v <= r and (a == r or b == r or v == r):
                rb = rows[b]
                rv = rows[v]
                for c in range(n):
                    if ra[rb[c]] != rv[ra[c]]:
                        return False
    return True


def _labelled_tables(
    n: int, require_quandle: bool, first_row: tuple[int, ...] | None = None
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every valid labelled table (as a row tuple) in lex order."""
    all_rows = _perms(n)
    rows: list = []

    def candidates(r: int):
        for a in range(r):
            ra = rows[a]
            for b in range(r):
                if ra[b] == r:
                    rb = rows[b]
                    inv = inverse(ra)
                    return (tuple(ra[rb[inv[c]]] for c in range(n)),)
        if r == 0 and first_row is not None:
            return (first_row,)
        return _perms_fixing(n, r) if require_quandle else all_rows

    def extend(r: int):
        if r == n:
            yield tuple(rows)
            return
        for cand in candidates(r):
            if require_quandle and cand[r] != r:
                continue
            rows.append(cand)
            if _pairs_consistent(rows, r, n):
                yield from extend(r + 1)
            rows.pop()

    yield from extend(0)


def _passes(rt: RackTable, filt: EnumerationFilter) -> bool:
    if filt.require_crossed_set and not is_crossed_set(rt):
        return False
    if filt.require_braided and not is_braided(rt):
        return False
    if filt.require_indecomposable and not is_indecomposable(rt):
        return False
    return True


def _compare_relabeled(rows, s, sinv, other, n: int) -> int:
    """Sign of the relabeling of ``rows`` by s against ``other``.

    Compares cell by cell in row-major order and returns -1 or 1 at the
    first differing cell, or 0 if the tables are equal.
    """
    for x in range(n):
        src = rows[sinv[x]]
        ox = other[x]
        for y in range(n):
            v = s[src[sinv[y]]]
            w = ox[y]
            if v != w:
                return -1 if v < w else 1
    return 0


def _is_canonical(rows: tuple[tuple[int, ...], ...], n: int) -> bool:
    """True if no relabeling produces a lexicographically smaller table."""
    return not any(
        _compare_relabeled(rows, s, sinv, rows, n) < 0 for s, sinv in _perm_inverse_pairs(n)
    )


def _survivors(n: int, filt: EnumerationFilter, first_row=None) -> Iterator[RackTable]:
    for rows in _labelled_tables(n, filt.require_quandle, first_row):
        rt = RackTable(n, rows)
        if _passes(rt, filt):
            yield rt


def enumerate_racks(
    n: int, filt: EnumerationFilter | None = None, workers: int | None = None
) -> Iterator[RackTable]:
    """Stream the canonical representatives of order n, lex-ordered.

    ``workers`` > 1 splits the search by the choice of the first row and
    runs the subtrees in separate processes; results are merged in
    candidate order, which preserves the deterministic stream.
    """
    _guard(n)
    filt = filt or EnumerationFilter()
    if workers and workers > 1:
        for batch in _parallel_batches(n, filt, workers):
            yield from batch[1]
        return
    for rt in _survivors(n, filt):
        if _is_canonical(rt.rows, n):
            yield rt


def census(
    n: int,
    filt: EnumerationFilter | None = None,
    workers: int | None = None,
    sink: Callable[[RackTable], None] | None = None,
) -> CensusReport:
    """Count tables and bucket indecomposable representatives by profile.

    ``total_labelled`` counts every valid labelled table passing the
    filters; ``total_up_to_iso`` counts canonical representatives.
    ``sink``, when given, receives each canonical representative.
    """
    _guard(n)
    filt = filt or EnumerationFilter()
    report = CensusReport(order=n, filters=filt, total_up_to_iso=0, total_labelled=0)

    def record(rt: RackTable) -> None:
        report.total_up_to_iso += 1
        if is_indecomposable(rt):
            key = str(rack_profile(rt))
            report.histogram[key] = report.histogram.get(key, 0) + 1
        if sink is not None:
            sink(rt)

    if workers and workers > 1:
        for labelled, reps in _parallel_batches(n, filt, workers):
            report.total_labelled += labelled
            for rt in reps:
                record(rt)
        return report
    for rt in _survivors(n, filt):
        report.total_labelled += 1
        if _is_canonical(rt.rows, n):
            record(rt)
    return report


def _subtree_job(args) -> tuple[int, list[RackTable]]:
    n, filt, first_row = args
    labelled = 0
    reps = []
    for rt in _survivors(n, filt, first_row):
        labelled += 1
        if _is_canonical(rt.rows, n):
            reps.append(rt)
    return labelled, reps


def _parallel_batches(n: int, filt: EnumerationFilter, workers: int):
    import multiprocessing

    firsts = _perms_fixing(n, 0) if filt.require_quandle else _perms(n)
    jobs = [(n, filt, f) for f in firsts]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        yield from pool.imap(_subtree_job, jobs)


def canonical_form(r: RackTable) -> RackTable:
    """The lexicographically minimal relabeling of the table."""
    _guard(r.n)
    n = r.n
    rows = r.rows
    best = rows
    for s, sinv in _perm_inverse_pairs(n):
        if _compare_relabeled(rows, s, sinv, best, n) < 0:
            best = relabel(r, s).rows
    return RackTable(n, best)


def relabel(r: RackTable, sigma: tuple[int, ...]) -> RackTable:
    """Apply a relabeling permutation to the table."""
    n = r.n
    inv = inverse(sigma)
    return RackTable(
        n, tuple(tuple(sigma[r.rows[inv[x]][inv[y]]] for y in range(n)) for x in range(n))
    )


def are_isomorphic(a: RackTable, b: RackTable) -> bool:
    """True if some relabeling carries one table onto the other."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return canonical_form(a).rows == canonical_form(b).rows
