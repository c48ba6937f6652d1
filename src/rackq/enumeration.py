"""Exhaustive generation of small racks up to isomorphism.

Tables are built row by row, in lexicographic order, and no step reads a
table of all n! permutations.  Row 0 of a canonical table is a closed
form, one per partition of n and part holding 0.  Self-distributivity
ties each later row p = r_r to the placed rows (Ho & Nelson, "Matrices
and finite quandles", 2005): the cells that placed pairs force seed p,
the others are filled in index order, values ascending, and each is
pushed through the equations p∘A = B∘p that R2 gives.  The rows that
come out are exactly those that pass the pair checks, in lex order.

Isomorphism rejection is orderly (Read 1978; Faradzev 1978): a table is
emitted only if it equals its canonical form, the lexicographically
minimal relabeling, which ``canonical_form`` finds by the same search.
The identity is the least row, so a relabeling can
tie the k leading identity rows only if it maps {0..k-1} onto itself,
and its row k is then a conjugate of some placed row r_q.  The least
such conjugate has a closed form: below r_k it rules out every
completion, above it rules out every s with s(q) = k, and equal to it
leaves only a coset of the centralizer of r_k to compare.  After row r
the search drops the partial table once one of these s makes rows 0..r
lex-smaller; at the last row the ties it counts are |Aut(T)|.  Every
filter is invariant under isomorphism, so the class of T holds
n!/|Aut(T)| labelled tables.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, permutations, product
from math import factorial
from operator import itemgetter
from typing import Callable, Iterator

from .core import RackTable, is_braided, is_crossed_set, validate
from .errors import RackError
from .inner import is_indecomposable, rack_profile
from .perm import inverse, is_permutation

MAX_ORDER = 7


class OrderTooLarge(RackError):
    """The requested order lies outside the search guard, 1..MAX_ORDER."""

    def __init__(self, n: int):
        super().__init__(f"order must be in 1..{MAX_ORDER}, got {n}")


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


def _guard(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(n)


def _compare_relabeled(rows, s, sinv, other, start: int, stop: int) -> int:
    """Sign of rows start..stop-1 of the relabeling of ``rows`` by s
    against those of ``other``, row by row: -1 or 1 at the first row that
    differs, else 0.  Row x of the relabeling is s·r_{s⁻¹(x)}·s⁻¹."""
    sinv_get = itemgetter(*sinv)
    for x in range(start, stop):
        new = tuple(map(s.__getitem__, sinv_get(rows[sinv[x]])))
        if new != other[x]:
            return -1 if new < other[x] else 1
    return 0


def _assign(rows: list, r: int, p: list, eqs: list, todo):
    """Set the pending pairs p(x) = y and all they imply on p = r_r; return
    the equations p∘A = B∘p then known, or None on a clash.  A round places
    every pending pair before it pushes any, so rows forced at once clash
    first; then it pushes the placed cells through the old equations and
    every cell through the new ones."""
    while True:
        placed = []
        for x, y in todo:
            v = p[x]
            if v != y:
                if v >= 0 or y in p:
                    return None
                p[x] = y
                placed.append(x)
        if not placed:
            return eqs
        todo, new = [], []
        push = todo.append
        for x in placed:
            y = p[x]
            if x < r and y < r:
                eq = a, b = rows[x], rows[y]
                if eq not in eqs and eq not in new:
                    new.append(eq)
                    for c, v in enumerate(p):
                        if v >= 0 and p[a[c]] != b[v]:
                            push((a[c], b[v]))
            elif x < r == y or y < r == x:
                todo += enumerate(rows[min(x, y)])
            for a, b in eqs:
                v, w = a[x], b[y]
                if p[v] != w:
                    push((v, w))
        if new:
            eqs = eqs + new


def _propagated_rows(rows: list, r: int, n: int, require_quandle: bool) -> list:
    """Every row r that satisfies R2, r_a r_b = r_{r_a(b)} r_a, with the
    placed rows, in lex order.  The instances it completes with p = r_r:
    - r_a(r) = v < r forces p = r_a⁻¹ r_v r_a, and r_a(b) = r with b < r
      forces p(r_a(c)) = r_a(r_b(c)); these seed p;
    - r_a(r) = r gives p∘r_a = r_a∘p, p(x) = y < r gives p∘r_x = r_y∘p,
      p(x) = r gives p = r_x, and p(r) = y < r gives p = r_y.
    Then p is filled cell by cell in index order, values ascending, and
    each choice is pushed through these."""
    seeds = [((r, r),)] if require_quandle else []
    eqs = []
    for ra in rows:
        v = ra[r]
        if v == r:
            eqs.append((ra, ra))
        elif v < r:
            seeds.append(enumerate(map(ra.index, map(rows[v].__getitem__, ra))))
        if (b := ra.index(r)) < r:
            seeds.append(zip(ra, map(ra.__getitem__, rows[b])))
    p = [-1] * n
    stack = [(p, _assign(rows, r, p, eqs, chain.from_iterable(seeds)))]
    found = []
    while stack:
        p, eqs = stack.pop()
        if eqs is None:
            continue
        if -1 not in p:
            found.append(tuple(p))
            continue
        c = p.index(-1)
        for d in range(n - 1, -1, -1):
            if d not in p:
                q = p[:]
                stack.append((q, _assign(rows, r, q, eqs, ((c, d),))))
    return found


@lru_cache(maxsize=None)
def _cycles_row(lengths: tuple[int, ...]) -> tuple[int, ...]:
    """The closed form whose cycles run over consecutive labels
    (a a+1 … a+l-1), with the given lengths in order.  Bounded by the
    ordered cycle types of up to ``MAX_ORDER`` points."""
    row: list = []
    for length in lengths:
        a = len(row)
        row += range(a + 1, a + length)
        row.append(a)
    return tuple(row)


def _partitions(total: int, largest: int):
    """The partitions of ``total`` into parts of at most ``largest``, as
    ascending tuples."""
    if not total:
        yield ()
    for part in range(min(total, largest), 0, -1):
        for tail in _partitions(total - part, part):
            yield (*tail, part)


@lru_cache(maxsize=None)
def _first_rows(n: int, require_quandle: bool) -> tuple[tuple[int, ...], ...]:
    """Row-0 candidates that can start a canonical table, in lex order: one
    closed form (see ``_labelling``, with k = 0) per partition of n and
    part holding 0, which must be 1 for quandles."""
    return tuple(sorted({
        _cycles_row((lead, *parts[:i], *parts[i + 1:]))
        for parts in _partitions(n, n)
        for i, lead in enumerate(parts)
        if lead == 1 or not require_quandle
    }))


def _labelling(row, q: int, k: int):
    """The least conjugate s·row·s⁻¹ over the s that map {0..k-1} onto
    itself and q to k, as (conjugate, itemgetter(s), s⁻¹); None if row maps
    {0..k-1} off itself.

    On {0..k-1} the conjugate has the fixed points, then the cycles by
    increasing length; from k on, q's cycle, then the fixed points, then
    the other cycles by increasing length, each on consecutive labels.
    """
    if k and max(row[:k]) >= k:
        return None
    seen = [False] * len(row)
    found = []
    for start in chain((q,), range(len(row))):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = row[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = row[x]
        # Sort by block ({0..k-1}, q's cycle, the rest), then by length.
        found.append((1 if start == q else 0 if start < k else 2, len(cyc), cyc))
    found.sort()
    sinv = tuple(chain.from_iterable(cyc for _, _, cyc in found))
    return _cycles_row(tuple(length for _, length, _ in found)), itemgetter(*inverse(sinv)), sinv


@lru_cache(maxsize=None)
def _centralizer(row: tuple[int, ...], k: int) -> tuple:
    """The g that commute with a closed form, fix k and map {0..k-1} onto
    itself, as (g, g⁻¹) pairs: each fixes k's cycle pointwise and permutes
    the cycles of equal length inside {0..k-1} and inside the rest,
    rotating each.  Bounded, as closed forms are."""
    groups: dict = {}
    a = 0
    while a < len(row):
        b = row.index(a) + 1
        if a != k:
            groups.setdefault((a > k, b - a), []).append(range(a, b))
        a = b
    choices = [
        [tuple(zip(cycles, arranged, turns))
         for arranged in permutations(cycles)
         for turns in product(range(length), repeat=len(cycles))]
        for (_, length), cycles in groups.items()
    ]
    pairs = []
    for pick in product(*choices):
        g = list(range(len(row)))
        for src, dst, t in chain.from_iterable(pick):
            g[src.start:src.stop] = [*dst[t:], *dst[:t]]
        pairs.append((tuple(g), inverse(g)))
    return tuple(pairs)


def _row_labels(rows, n: int) -> list:
    """``_labelling`` of each row after the k leading identity rows."""
    identity = tuple(range(n))
    k = next((x for x, row in enumerate(rows) if row != identity), len(rows))
    return [_labelling(rows[q], q, k) for q in range(k, len(rows))]


def _prefix_automorphisms(rows, n: int, labels: list) -> int:
    """0 if the prefix rows 0..r cannot start a canonical table, else the
    number of relabelings preserving {0..r} that leave it unchanged; for a
    full table, 0 or |Aut(T)|.

    With k leading identity rows, ``labels`` holds
    ``_labelling(rows[q], q, k)`` for q = k..r (see ``_row_labels``).  A
    row that maps {0..k-1} off itself makes a later row the identity.  The
    s that tie rows 0..k are g∘s_q, for the q whose closed form is r_k and
    g in the centralizer of r_k; a closed form below r_k rules the prefix
    out.
    """
    m = len(rows)
    if not labels:
        return factorial(m) * factorial(n - m)
    if None in labels:
        return 0
    k = m - len(labels)
    rk = rows[k]
    if any(label[0] < rk for label in labels):
        return 0
    count = 0
    for cf, sq_get, sqinv in labels:
        if cf != rk:
            continue
        for g, ginv in _centralizer(rk, k):
            s = sq_get(g)
            if m < n and max(s[:m]) >= m:
                continue
            sign = _compare_relabeled(rows, s, tuple(map(sqinv.__getitem__, ginv)), rows, k + 1, m)
            if sign < 0:
                return 0
            if sign == 0:
                count += 1
    return count


def _orderly_tables(
    n: int, require_quandle: bool, first_rows: tuple[tuple[int, ...], ...]
) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """Yield (rows, |Aut|) for every canonical labelled table, in lex order.
    Each row's labelling is computed once, when the row is placed."""
    identity = tuple(range(n))
    rows: list = []
    labels: list = []

    def extend(r: int):
        for cand in _propagated_rows(rows, r, n, require_quandle) if r else first_rows:
            rows.append(cand)
            labelled = bool(labels) or cand != identity
            if labelled:
                labels.append(_labelling(cand, r, r - len(labels)))
            fixing = _prefix_automorphisms(rows, n, labels)
            if fixing and r == n - 1:
                yield tuple(rows), fixing
            elif fixing:
                yield from extend(r + 1)
            if labelled:
                labels.pop()
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
    """The lexicographically minimal relabeling, found as in the census:
    sorting the points by row moves the identity rows, the least, first;
    then only the cosets g∘s_q reaching the least closed form of the other
    rows are compared.  Raises ``TableValidationError`` on a non-rack."""
    _guard(r.n)
    n = r.n
    r = relabel(validate(n, r.rows), inverse(sorted(range(n), key=r.rows.__getitem__)))
    rows = best = r.rows
    labels = _row_labels(rows, n)
    k = n - len(labels)
    least = min((label[0] for label in labels), default=None)
    for cf, sq_get, sqinv in labels:
        if cf == least:
            for g, ginv in _centralizer(cf, k):
                s = sq_get(g)
                if _compare_relabeled(rows, s, tuple(map(sqinv.__getitem__, ginv)), best, k, n) < 0:
                    best = relabel(r, s).rows
    return RackTable(n, best)


def relabel(r: RackTable, sigma: tuple[int, ...]) -> RackTable:
    """The table relabeled by sigma: row sigma(x) is sigma·r_x·sigma⁻¹.
    Raises ``ValueError`` unless sigma permutes the table's points."""
    if len(sigma) != r.n or not is_permutation(sigma):
        raise ValueError(f"sigma {sigma} is not a permutation of 0..{r.n - 1}")
    inv = inverse(sigma)
    return RackTable(r.n, tuple(tuple(sigma[r.rows[x][y]] for y in inv) for x in inv))


def are_isomorphic(a: RackTable, b: RackTable) -> bool:
    """True if some relabeling carries one table onto the other."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return canonical_form(a).rows == canonical_form(b).rows
