"""Brute-force reference implementations used to pin expected values.

Everything here deliberately avoids the package's own search and
canonicalization machinery, so agreement between the two is meaningful.
"""
import math
from itertools import permutations, product

import rackq as rq


def is_rack_table(rows) -> bool:
    """Literal evaluation of both axioms over every row and triple."""
    n = len(rows)
    for row in rows:
        if sorted(row) != list(range(n)):
            return False
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[x][rows[y][z]] != rows[rows[x][y]][rows[x][z]]:
                    return False
    return True


def is_quandle_table(rows) -> bool:
    return all(rows[x][x] == x for x in range(len(rows)))


def all_tables(n):
    """Every n x n table with entries in range, n^(n^2) of them."""
    for flat in product(range(n), repeat=n * n):
        yield tuple(tuple(flat[x * n : (x + 1) * n]) for x in range(n))


def quandle_row_tables(n):
    """Tables whose rows are diagonal-fixing permutations (R1 + idempotence
    built in); only R2 remains to be checked."""
    fixing = [[p for p in permutations(range(n)) if p[i] == i] for i in range(n)]
    for combo in product(*fixing):
        yield tuple(combo)


def relabel_table(rows, sigma):
    n = len(rows)
    inv = [0] * n
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(tuple(sigma[rows[inv[x]][inv[y]]] for y in range(n)) for x in range(n))


def iso_classes(tables):
    """Group labelled tables into isomorphism classes via relabel orbits."""
    tables = list(tables)
    if not tables:
        return []
    n = len(tables[0])
    sigmas = list(permutations(range(n)))
    remaining = set(tables)
    classes = []
    while remaining:
        rep = min(remaining)
        orbit = {relabel_table(rep, s) for s in sigmas}
        classes.append(sorted(orbit & remaining))
        remaining -= orbit
    return classes


def iso_exists(a, b):
    """Direct search for a relabeling carrying table a onto table b."""
    n = len(a)
    if n != len(b):
        return None
    for s in permutations(range(n)):
        if all(s[a[x][y]] == b[s[x]][s[y]] for x in range(n) for y in range(n)):
            return s
    return None


def closure_by_hand(rows, seed):
    """Saturate a seed under the operation by repeated full passes."""
    members = set(seed)
    changed = True
    while changed:
        changed = False
        for a in tuple(members):
            for b in tuple(members):
                w = rows[a][b]
                if w not in members:
                    members.add(w)
                    changed = True
    return frozenset(members)


def orbit_of(rows, point):
    """Orbit of a point under all translations and their inverses."""
    n = len(rows)
    inverses = []
    for row in rows:
        inv = [0] * n
        for i, v in enumerate(row):
            inv[v] = i
        inverses.append(tuple(inv))
    orbit = {point}
    frontier = [point]
    while frontier:
        y = frontier.pop()
        for g in list(rows) + inverses:
            z = g[y]
            if z not in orbit:
                orbit.add(z)
                frontier.append(z)
    return frozenset(orbit)


def prop35_splits(lengths):
    """First contiguous split of the lcm rule, recomputing both lcms at
    every split index.  Returns None if none fires."""
    for i in range(1, len(lengths)):
        p, q = math.lcm(*lengths[:i]), math.lcm(*lengths[i:])
        if q % p != 0 and p % q != 0:
            return {"i": i, "P": p, "Q": q}
    return None


def cor34_sweep(lengths):
    """First bipartition witness of the lcm rule, checking every condition.

    Visits all 2^(k-1) bipartitions in the library's mask order (bit j puts
    the j-th length on the S side; the last length always on the T side)
    and also requires each side's lcm to miss some length, as the rule was
    first stated.  Returns None if none fires.
    """
    k = len(lengths)
    for mask in range(1, 1 << max(k - 1, 0)):
        s_side = [lengths[j] for j in range(k - 1) if mask >> j & 1]
        t_side = [l for l in lengths if l not in s_side]
        p, q = math.lcm(*s_side), math.lcm(*t_side)
        if (
            q % p != 0
            and p % q != 0
            and any(p % l != 0 for l in lengths)
            and any(q % l != 0 for l in lengths)
        ):
            return {"S": s_side, "T": t_side, "P": p, "Q": q}
    return None


def _inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return inv


def _unpruned_labelled_tables(n, require_quandle):
    """Every valid labelled table (as a row tuple) in lex order.

    Row-by-row backtracking over permutations; a row forced by a known
    product is the only candidate tried, and every self-distributivity
    instance completed by a new row is checked, batched per pair of rows.
    """
    perms = list(permutations(range(n)))
    rows = []

    def candidates(r):
        for a in range(r):
            for b in range(r):
                if rows[a][b] == r:
                    ra, rb, inv = rows[a], rows[b], _inverse(rows[a])
                    return [tuple(ra[rb[inv[c]]] for c in range(n))]
        return [p for p in perms if p[r] == r] if require_quandle else perms

    def consistent(r):
        for a in range(r + 1):
            for b in range(r + 1):
                v = rows[a][b]
                if v <= r and r in (a, b, v):
                    ra, rb, rv = rows[a], rows[b], rows[v]
                    if any(ra[rb[c]] != rv[ra[c]] for c in range(n)):
                        return False
        return True

    def extend(r):
        if r == n:
            yield tuple(rows)
            return
        for cand in candidates(r):
            if require_quandle and cand[r] != r:
                continue
            rows.append(cand)
            if consistent(r):
                yield from extend(r + 1)
            rows.pop()

    yield from extend(0)


def _relabeling_is_smaller(rows, s, sinv):
    """Cell-by-cell row-major comparison of the relabeled table with the
    original, stopping at the first differing cell."""
    n = len(rows)
    for x in range(n):
        src = rows[sinv[x]]
        for y in range(n):
            v, w = s[src[sinv[y]]], rows[x][y]
            if v != w:
                return v < w
    return False


def unpruned_census(n, filt):
    """The census without pruning or orbit counting: the slow path that
    the orderly search replaced.

    Builds every labelled table passing the filters, counts them one by
    one, and keeps those that no relabeling among all n! makes
    lexicographically smaller.  The filters and the profile histogram use
    the package's public predicates.  Returns the ``CensusReport`` and the
    representatives' rows in stream order.
    """
    sigmas = [(s, _inverse(s)) for s in permutations(range(n))]
    report = rq.CensusReport(order=n, filters=filt, total_up_to_iso=0, total_labelled=0)
    reps = []
    for rows in _unpruned_labelled_tables(n, filt.require_quandle):
        rt = rq.RackTable(n, rows)
        if filt.require_crossed_set and not rq.is_crossed_set(rt):
            continue
        if filt.require_braided and not rq.is_braided(rt):
            continue
        if filt.require_indecomposable and not rq.is_indecomposable(rt):
            continue
        report.total_labelled += 1
        if any(_relabeling_is_smaller(rows, s, sinv) for s, sinv in sigmas):
            continue
        reps.append(rows)
        report.total_up_to_iso += 1
        if rq.is_indecomposable(rt):
            key = str(rq.rack_profile(rt))
            report.histogram[key] = report.histogram.get(key, 0) + 1
    return report, reps


def automorphism_count(rows):
    """Number of relabelings that carry the table onto itself."""
    return sum(relabel_table(rows, s) == rows for s in permutations(range(len(rows))))
