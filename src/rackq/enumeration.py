"""Exhaustive generation of small racks up to isomorphism.

Tables are built row by row, in lexicographic order, and no step reads a
table of all n! permutations.  Rows are ``bytes`` for the whole search:
values are below 256, so bytes compare as the tuples of their values do,
and a composition is one ``bytes.translate``.  Row 0 of a canonical table
is a closed form, one per partition of n and part holding 0.
Self-distributivity ties each later row p = r_r to the placed rows (Ho &
Nelson, "Matrices and finite quandles", 2005): the cells that placed pairs
force seed p, the others are filled in index order, values ascending, and
each is pushed through the equations p∘A = B∘p that R2 gives.  The rows
that come out are exactly those that pass the pair checks and keep the
identity block (below), in lex order.

Isomorphism rejection is orderly (Read 1978; Faradzev 1978): a table is
emitted only if it equals its canonical form, the lexicographically
minimal relabeling, which ``canonical_form`` finds by the same search.
The identity is the least row, so a relabeling can tie the k leading
identity rows only if it maps {0..k-1} onto itself, and a canonical table
keeps that block: every later row maps {0..k-1} onto itself, and no other
candidate is built.  Row k of such a relabeling is a conjugate of some
placed row r_q.  The least such conjugate has a closed form: below r_k it
rules out every completion, above it rules out every s with s(q) = k, and
equal to it leaves only a coset of the centralizer of r_k to compare.
After row r the search drops the partial table once one of these s makes
rows 0..r lex-smaller; at the last row the ties it counts are |Aut(T)|.
Each search keeps a memo of the rows' labellings, freed when it ends.
Every filter is invariant under isomorphism, so the class of T holds
n!/|Aut(T)| labelled tables.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, permutations, product
from math import factorial
from typing import Callable, Iterator

from .core import RackTable, is_braided, is_crossed_set, validate
from .errors import RackError
from .inner import is_indecomposable, rack_profile
from .perm import cycle_decomposition, from_cycles, inverse, is_permutation

MAX_ORDER = 7

# The identity on 256 points: a row of n points plus _PAD[n:] is a
# ``bytes.translate`` table.
_PAD = bytes(range(256))


class OrderTooLarge(RackError):
    """The requested order is not an ``int`` in the search guard, 1..MAX_ORDER."""

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
    if type(n) is not int or not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(n)


def _compare_relabeled(padded: list, s: bytes, sinv: bytes, other, start: int, stop: int) -> int:
    """Sign of rows start..stop-1 of the relabeling of a table by s
    against those of ``other``, row by row: -1 or 1 at the first row that
    differs, else 0.  ``padded`` holds the table's rows padded to 256
    entries.  Row x of the relabeling is s·r_{s⁻¹(x)}·s⁻¹."""
    s = s + _PAD[len(s):]
    for x in range(start, stop):
        new = sinv.translate(padded[sinv[x]]).translate(s)
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


def _propagated_rows(rows: list, r: int, n: int, require_quandle: bool, k: int) -> list:
    """Every row r that satisfies R2, r_a r_b = r_{r_a(b)} r_a, with the
    placed rows and maps the block {0..k-1} of leading identity rows onto
    itself, as bytes in lex order.  The instances it completes with p = r_r:
    - r_a(r) = v < r forces p = r_a⁻¹ r_v r_a, and r_a(b) = r with b < r
      forces p(r_a(c)) = r_a(r_b(c)); these seed p;
    - r_a(r) = r gives p∘r_a = r_a∘p, p(x) = y < r gives p∘r_x = r_y∘p,
      p(x) = r gives p = r_x, and p(r) = y < r gives p = r_y.
    Then p is filled cell by cell in index order, values ascending, and
    each choice is pushed through these.  A cell c < k branches on values
    below k and any other cell on values of at least k; a forced row that
    leaves the block is dropped."""
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
            if not k or max(p[:k]) < k:
                found.append(bytes(p))
            continue
        c = p.index(-1)
        for d in range(k - 1, -1, -1) if c < k else range(n - 1, k - 1, -1):
            if d not in p:
                q = p[:]
                stack.append((q, _assign(rows, r, q, eqs, ((c, d),))))
    return found


def _cycles_row(lengths: tuple[int, ...]) -> bytes:
    """The closed form with cycles (a a+1 … a+l-1) of the given lengths, in order."""
    starts = accumulate(lengths, initial=0)
    return bytes(from_cycles(sum(lengths), [range(a, a + length) for a, length in zip(starts, lengths)]))


def _partitions(total: int, largest: int):
    """The partitions of ``total`` into parts of at most ``largest``, as
    ascending tuples."""
    if not total:
        yield ()
    for part in range(min(total, largest), 0, -1):
        for tail in _partitions(total - part, part):
            yield (*tail, part)


def _first_rows(n: int, require_quandle: bool) -> tuple[bytes, ...]:
    """Row-0 candidates that can start a canonical table, in lex order: one
    closed form (see ``_labelling``, with k = 0) per part holding 0, which
    must be 1 for quandles, and partition of the other points."""
    return tuple(sorted(
        _cycles_row((lead, *parts))
        for lead in range(1, 2 if require_quandle else n + 1)
        for parts in _partitions(n - lead, n - lead)
    ))


def _labelling(row: bytes, q: int, k: int):
    """The least conjugate s·row·s⁻¹ over the s that map {0..k-1} onto
    itself and q to k, as (conjugate, s, s⁻¹ padded to 256 entries), all
    bytes; row maps {0..k-1} onto itself (see ``_prefix_automorphisms``).

    s⁻¹ lists row's cycles in turn, so the conjugate has them on
    consecutive labels: on {0..k-1} the fixed points, then the cycles by
    increasing length; from k on, q's cycle, then the fixed points, then
    the other cycles by increasing length.
    """
    found = []
    for cyc in cycle_decomposition(row):
        if q in cyc:
            i = cyc.index(q)
            cyc = cyc[i:] + cyc[:i]
        # Sort by block ({0..k-1}, q's cycle, the rest), then by length.
        found.append((1 if cyc[0] == q else 0 if cyc[0] < k else 2, len(cyc), cyc))
    found.sort()
    sinv = bytes(chain.from_iterable(cyc for _, _, cyc in found))
    s, pad = bytes(inverse(sinv)), _PAD[len(row):]
    return sinv.translate(row + pad).translate(s + pad), s, sinv + pad


@lru_cache(maxsize=None)
def _centralizer(row: bytes, k: int) -> tuple:
    """The g that commute with a closed form, fix k and map {0..k-1} onto
    itself, as (g padded to 256 entries, g⁻¹) pairs of bytes: each fixes
    k's cycle pointwise and permutes the cycles of equal length inside
    {0..k-1} and inside the rest, rotating each.  Bounded, as closed forms
    are."""
    groups: dict = {}
    for cyc in cycle_decomposition(row):
        if cyc[0] != k:
            groups.setdefault((cyc[0] > k, len(cyc)), []).append(cyc)
    choices = [
        [tuple(zip(cycles, arranged, turns))
         for arranged in permutations(cycles)
         for turns in product(range(length), repeat=len(cycles))]
        for (_, length), cycles in groups.items()
    ]
    pairs = []
    for pick in product(*choices):
        g, ginv = list(_PAD), list(_PAD[:len(row)])
        for src, dst, t in chain.from_iterable(pick):
            g[src[0]:src[-1] + 1] = dst[t:] + dst[:t]
            ginv[dst[0]:dst[-1] + 1] = src[-t:] + src[:-t]
        pairs.append((bytes(g), bytes(ginv)))
    return tuple(pairs)


def _row_labels(rows: list, n: int) -> list:
    """``_labelling`` of each row after the k leading identity rows."""
    identity = _PAD[:n]
    k = next((x for x, row in enumerate(rows) if row != identity), len(rows))
    return [_labelling(rows[q], q, k) for q in range(k, len(rows))]


def _prefix_automorphisms(rows: list, padded: list, n: int, labels: list) -> int:
    """0 if the prefix rows 0..r cannot start a canonical table, else the
    number of relabelings preserving {0..r} that leave it unchanged; for a
    full table, 0 or |Aut(T)|.  ``rows`` holds the rows as bytes and
    ``padded`` the same rows padded to 256 entries.

    With k leading identity rows, ``labels`` holds
    ``_labelling(rows[q], q, k)`` for q = k..r (see ``_row_labels``); each
    row maps {0..k-1} onto itself, as the propagator builds no other and a
    rack's rows permute the points whose rows are the identity.  The s
    that tie rows 0..k are g∘s_q, for the q whose closed form is r_k and g
    in the centralizer of r_k; a closed form below r_k rules the prefix out.
    """
    m = len(rows)
    if not labels:
        return factorial(m) * factorial(n - m)
    k = m - len(labels)
    rk = rows[k]
    if any(label[0] < rk for label in labels):
        return 0
    count = 0
    for cf, sq, sqinv in labels:
        if cf != rk:
            continue
        for g, ginv in _centralizer(rk, k):
            s = sq.translate(g)
            if m < n and max(s[:m]) >= m:
                continue
            sign = _compare_relabeled(padded, s, ginv.translate(sqinv), rows, k + 1, m)
            if sign < 0:
                return 0
            if sign == 0:
                count += 1
    return count


def _passes(rt: RackTable, filt: EnumerationFilter) -> bool:
    if filt.require_crossed_set and not is_crossed_set(rt):
        return False
    if filt.require_braided and not is_braided(rt):
        return False
    if filt.require_indecomposable and not is_indecomposable(rt):
        return False
    return True


def _representatives(
    n: int, filt: EnumerationFilter, first_rows: tuple[bytes, ...]
) -> Iterator[tuple[RackTable, int]]:
    """Yield (T, |Aut(T)|) for every canonical table T that passes the
    filters, in lex order.  Each row's labelling is computed when the row
    is placed, or read from a memo that lives as long as this search."""
    identity = _PAD[:n]
    tail = _PAD[n:]
    rows: list = []
    padded: list = []
    labels: list = []
    memo: dict = {}

    def extend(r: int):
        k = r - len(labels)
        for cand in _propagated_rows(rows, r, n, filt.require_quandle, k) if r else first_rows:
            rows.append(cand)
            padded.append(cand + tail)
            labelled = bool(labels) or cand != identity
            if labelled:
                key = (cand, r, k)
                if key not in memo:
                    memo[key] = _labelling(cand, r, k)
                labels.append(memo[key])
            fixing = _prefix_automorphisms(rows, padded, n, labels)
            if fixing and r == n - 1:
                rt = RackTable(n, tuple(map(tuple, rows)))
                if _passes(rt, filt):
                    yield rt, fixing
            elif fixing:
                yield from extend(r + 1)
            if labelled:
                labels.pop()
            padded.pop()
            rows.pop()

    yield from extend(0)


def enumerate_racks(n: int, filt: EnumerationFilter | None = None) -> Iterator[RackTable]:
    """Stream the canonical representatives of order n, lex-ordered, in
    this process; ``census(..., workers=k)`` runs the same search in a
    pool."""
    _guard(n)
    filt = filt or EnumerationFilter()
    for rt, _ in _representatives(n, filt, _first_rows(n, filt.require_quandle)):
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
    ``workers`` > 1 runs each first row's subtree in a process pool and
    merges them in order, so ``sink`` sees the sequential stream.
    """
    _guard(n)
    if workers is not None and type(workers) is not int:
        raise RackError(f"workers must be an int or None, got {workers!r}")
    filt = filt or EnumerationFilter()
    report = CensusReport(order=n, filters=filt, total_up_to_iso=0, total_labelled=0)
    n_factorial = factorial(n)
    if workers and workers > 1:
        found = chain.from_iterable(_parallel_batches(n, filt, workers))
    else:
        found = _representatives(n, filt, _first_rows(n, filt.require_quandle))
    for rt, automorphisms in found:
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
    n, tail = r.n, _PAD[r.n:]
    given = [bytes(row) + tail for row in validate(n, r.rows).rows]
    sinv = bytes(sorted(range(n), key=given.__getitem__))
    s = bytes(inverse(sinv)) + tail
    rows = best = [sinv.translate(given[y]).translate(s) for y in sinv]
    padded = [row + tail for row in rows]
    labels = _row_labels(rows, n)
    k = n - len(labels)
    least = min((label[0] for label in labels), default=None)
    for cf, sq, sqinv in labels:
        if cf == least:
            for g, ginv in _centralizer(least, k):
                s, sinv = sq.translate(g), ginv.translate(sqinv)
                if _compare_relabeled(padded, s, sinv, best, k, n) < 0:
                    best = [sinv.translate(padded[y]).translate(s + tail) for y in sinv]
    return RackTable(n, tuple(map(tuple, best)))


def relabel(r: RackTable, sigma: tuple[int, ...]) -> RackTable:
    """The table relabeled by sigma: row sigma(x) is sigma·r_x·sigma⁻¹.
    Raises :class:`RackError` unless sigma permutes the table's points."""
    if len(sigma) != r.n or not is_permutation(sigma):
        raise RackError(f"sigma {sigma} is not a permutation of 0..{r.n - 1}")
    inv = inverse(sigma)
    return RackTable(r.n, tuple(tuple(sigma[r.rows[x][y]] for y in inv) for x in inv))


def are_isomorphic(a: RackTable, b: RackTable) -> bool:
    """True if some relabeling carries one table onto the other."""
    if a.n != b.n:
        raise RackError(f"size mismatch: {a.n} vs {b.n}")
    return canonical_form(a).rows == canonical_form(b).rows
