"""Exhaustive generation of small racks up to isomorphism.

Tables are built row by row; row candidates run over permutations in
lexicographic order (restricted to diagonal-fixing permutations when
quandles are required).  After each placement every self-distributivity
instance whose three entries are defined is checked, batched per pair of
rows.  When some already-placed pair forces the next row (the translation
by an already-known product), only that single candidate is tried; the
same pair checks still verify it, so the set of generated tables is
unchanged and the stream stays in lexicographic order.

Isomorphism rejection is orderly (Read 1978; Faradzev 1978): a table is
emitted only if it equals its canonical form, the lexicographically
minimal relabeling.  Rows 0..r of a relabeling by s with s({0..r}) =
{0..r} depend only on rows 0..r, so once such an s makes that prefix
lex-smaller every completion has a smaller relabeling; the partial table
is dropped right after row r is accepted.  At the last row the same
sweep runs over all n! relabelings and, for a canonical table, counts
those that fix it, which is |Aut(T)|.  Every filter is invariant under
isomorphism, so the class of T holds n!/|Aut(T)| labelled tables.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, permutations
from math import factorial
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


@lru_cache(maxsize=None)
def _prefix_relabelings(n: int, r: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The non-identity (s, s^-1) with s({0..r}) = {0..r}; all n! - 1 at r = n - 1."""
    return tuple((s, sinv) for s, sinv in _perm_inverse_pairs(n)[1:] if max(s[: r + 1]) == r)


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


def _compare_relabeled(rows, s, sinv, other, n: int) -> int:
    """Sign of the relabeling of ``rows`` by s against ``other``.

    Compares the first ``len(other)`` rows cell by cell in row-major
    order and returns -1 or 1 at the first differing cell, or 0 if they
    are equal.
    """
    for x in range(len(other)):
        src = rows[sinv[x]]
        ox = other[x]
        for y in range(n):
            v = s[src[sinv[y]]]
            w = ox[y]
            if v != w:
                return -1 if v < w else 1
    return 0


def _prefix_automorphisms(rows, n: int) -> int:
    """0 if the prefix rows 0..r cannot start a canonical table, else the
    number of relabelings preserving {0..r} that leave it unchanged.

    For a full table this is 0 or |Aut(T)|.
    """
    fixing = 1
    for s, sinv in _prefix_relabelings(n, len(rows) - 1):
        sign = _compare_relabeled(rows, s, sinv, rows, n)
        if sign < 0:
            return 0
        fixing += sign == 0
    return fixing


@lru_cache(maxsize=None)
def _first_rows(n: int, require_quandle: bool) -> tuple[tuple[int, ...], ...]:
    """Row-0 candidates that can start a canonical table, in lex order."""
    candidates = _perms_fixing(n, 0) if require_quandle else _perms(n)
    return tuple(f for f in candidates if _prefix_automorphisms((f,), n))


def _orderly_tables(
    n: int, require_quandle: bool, first_rows: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """Yield (rows, |Aut|) for every canonical labelled table, in lex order."""
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
        if r == 0:
            return first_rows
        return _perms_fixing(n, r) if require_quandle else all_rows

    def extend(r: int):
        for cand in candidates(r):
            if require_quandle and cand[r] != r:
                continue
            rows.append(cand)
            if _pairs_consistent(rows, r, n):
                fixing = _prefix_automorphisms(rows, n)
                if fixing:
                    if r == n - 1:
                        yield tuple(rows), fixing
                    else:
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


def _representatives(
    n: int, filt: EnumerationFilter, first_rows: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[RackTable, int]]:
    for rows, automorphisms in _orderly_tables(n, filt.require_quandle, first_rows):
        rt = RackTable(n, rows)
        if _passes(rt, filt):
            yield rt, automorphisms


def _search(n: int, filt: EnumerationFilter, workers: int | None):
    if workers and workers > 1:
        return chain.from_iterable(_parallel_batches(n, filt, workers))
    return _representatives(n, filt, _first_rows(n, filt.require_quandle))


def enumerate_racks(
    n: int, filt: EnumerationFilter | None = None, workers: int | None = None
) -> Iterator[RackTable]:
    """Stream the canonical representatives of order n, lex-ordered.

    ``workers`` > 1 splits the search by the choice of the first row and
    runs the subtrees in separate processes; results are merged in
    candidate order, which preserves the deterministic stream.
    """
    _guard(n)
    for rt, _ in _search(n, filt or EnumerationFilter(), workers):
        yield rt


def census(
    n: int,
    filt: EnumerationFilter | None = None,
    workers: int | None = None,
    sink: Callable[[RackTable], None] | None = None,
) -> CensusReport:
    """Count tables and bucket indecomposable representatives by profile.

    ``total_up_to_iso`` counts canonical representatives.
    ``total_labelled`` counts every valid labelled table passing the
    filters, as the sum of n!/|Aut(T)| over the representatives T (the
    orbit of T under relabeling has that size) rather than one by one.
    ``sink``, when given, receives each canonical representative.
    """
    _guard(n)
    filt = filt or EnumerationFilter()
    report = CensusReport(order=n, filters=filt, total_up_to_iso=0, total_labelled=0)
    n_factorial = factorial(n)
    for rt, automorphisms in _search(n, filt, workers):
        report.total_labelled += n_factorial // automorphisms
        report.total_up_to_iso += 1
        if is_indecomposable(rt):
            key = str(rack_profile(rt))
            report.histogram[key] = report.histogram.get(key, 0) + 1
        if sink is not None:
            sink(rt)
    return report


def _subtree_job(args) -> list[tuple[RackTable, int]]:
    n, filt, first_row = args
    return list(_representatives(n, filt, (first_row,)))


def _parallel_batches(n: int, filt: EnumerationFilter, workers: int):
    import multiprocessing

    jobs = [(n, filt, f) for f in _first_rows(n, filt.require_quandle)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=min(workers, len(jobs), os.cpu_count() or 1)) as pool:
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
