"""Brute-force reference implementations used to pin expected values.

Everything here deliberately avoids the package's own search and
canonicalization machinery, so agreement between the two is meaningful.
"""
import math
from functools import lru_cache
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


def _completes_consistently(rows, r):
    """Every self-distributivity instance completed by row r holds, batched
    per pair of rows."""
    n = len(rows[0])
    for a in range(r + 1):
        for b in range(r + 1):
            v = rows[a][b]
            if v <= r and r in (a, b, v):
                ra, rb, rv = rows[a], rows[b], rows[v]
                if any(ra[rb[c]] != rv[ra[c]] for c in range(n)):
                    return False
    return True


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

    def extend(r):
        if r == n:
            yield tuple(rows)
            return
        for cand in candidates(r):
            if require_quandle and cand[r] != r:
                continue
            rows.append(cand)
            if _completes_consistently(rows, r):
                yield from extend(r + 1)
            rows.pop()

    yield from extend(0)


def forced_rows(rows):
    """The set of rows r = len(rows) that placed pairs force:
    r_a r_b r_a⁻¹ when r_a(b) = r for placed a, b, and r_a⁻¹ r_v r_a when
    r_a(r) = v for placed a, v."""
    r = len(rows)
    found = set()
    for ra in rows:
        inv = _inverse(ra)
        n = len(ra)
        for b, rb in enumerate(rows):
            if ra[b] == r:
                found.add(tuple(ra[rb[inv[c]]] for c in range(n)))
        if ra[r] < r:
            rv = rows[ra[r]]
            found.add(tuple(inv[rv[ra[c]]] for c in range(n)))
    return found


def filtered_rows(rows, n, require_quandle):
    """The candidates for row r = len(rows) as the census first drew them:
    all n! permutations in lex order (those fixing r for quandles), kept
    when the self-distributivity instances they complete hold."""
    r = len(rows)
    return [
        p
        for p in permutations(range(n))
        if not (require_quandle and p[r] != r) and _completes_consistently([*rows, p], r)
    ]


def prefix_sweep(rows, n):
    """The census's prefix test as a sweep over all n! relabelings.

    Only the s with s({0..r}) = {0..r} are considered, since rows 0..r of
    their relabelings depend on rows 0..r alone.  Returns 0 if one of them
    makes those rows lex-smaller, else the number that leave them
    unchanged, the identity included.
    """
    m = len(rows)
    count = 0
    for s in permutations(range(n)):
        if max(s[:m]) >= m:
            continue
        sinv = _inverse(s)
        for x in range(m):
            row = tuple(s[rows[sinv[x]][sinv[y]]] for y in range(n))
            if row != rows[x]:
                if row < rows[x]:
                    return 0
                break
        else:
            count += 1
    return count


def least_conjugates(n, require_quandle):
    """The rows f that are least among their conjugates s f s^-1 with
    s(0) = 0, in lex order: the census's first rows as once filtered from
    all n! permutations.  Each class is marked when its least member, the
    first one met in lex order, is found."""
    stabilizer = [(s, _inverse(s)) for s in permutations(range(n)) if s[0] == 0]
    seen = set()
    least = []
    for f in permutations(range(n)):
        if f not in seen:
            least.append(f)
            seen.update(tuple(s[f[sinv[y]]] for y in range(n)) for s, sinv in stabilizer)
    return [f for f in least if not require_quandle or f[0] == 0]


def _compare_relabeled(rows, s, sinv, other, n: int) -> int:
    """Sign of the relabeling of ``rows`` by s against ``other``.

    Compares the rows cell by cell in row-major order and returns -1 or 1
    at the first differing cell, or 0 if they are equal.
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


@lru_cache(maxsize=None)
def _perm_inverse_pairs(n):
    return tuple((s, _inverse(s)) for s in permutations(range(n)))


def canonical_sweep(rt):
    """``rackq.canonical_form`` as first built: the least relabeling among
    all n!, each compared cell by cell with the best so far."""
    n = rt.n
    rows = rt.rows
    best = rows
    for s, sinv in _perm_inverse_pairs(n):
        if _compare_relabeled(rows, s, sinv, best, n) < 0:
            best = relabel_table(rows, s)
    return rq.RackTable(n, best)


def unpruned_census(n, filt):
    """The census without pruning or orbit counting: the slow path that
    the orderly search replaced.

    Builds every labelled table passing the filters, counts them one by
    one, and keeps those that no relabeling among all n! makes
    lexicographically smaller.  The filters and the profile histogram use
    the package's public predicates.  Returns the ``CensusReport`` and the
    representatives' rows in stream order.
    """
    sigmas = _perm_inverse_pairs(n)
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
        if any(_compare_relabeled(rows, s, sinv, rows, n) < 0 for s, sinv in sigmas):
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


def affine_elements(spec):
    """All group elements of ``spec`` in mixed-radix little-endian order."""
    out = []
    for k in range(spec.size):
        tup = []
        rem = k
        for m in spec.moduli:
            tup.append(rem % m)
            rem //= m
        out.append(tuple(tup))
    return out


def affine_index_of(spec, element):
    """The index of a coordinate tuple, each coordinate reduced mod its modulus."""
    idx = 0
    stride = 1
    for coord, m in zip(element, spec.moduli):
        idx += (coord % m) * stride
        stride *= m
    return idx


def affine_apply(spec, element):
    """alpha applied to a coordinate tuple, one matrix row per coordinate."""
    return tuple(
        sum(spec.alpha[i][j] * element[j] for j in range(len(spec.moduli))) % spec.moduli[i]
        for i in range(len(spec.moduli))
    )


def affine_two_branch(spec):
    """The affine quandle as first built: a rotation lookup for a single
    modulus, and per-element ``affine_apply``/``affine_index_of`` otherwise."""
    n = spec.size
    moduli = spec.moduli
    if len(moduli) == 1:
        mod = moduli[0]
        a = spec.alpha[0][0] % mod
        alpha_img = tuple((a * y) % mod for y in range(mod))
        if len(set(alpha_img)) != mod:
            raise rq.NonInvertibleAlpha(f"alpha={a} is not invertible mod {mod}")
        rows = []
        for x in range(mod):
            c = (x - alpha_img[x]) % mod
            shift = tuple(range(c, mod)) + tuple(range(c))
            rows.append(tuple(map(shift.__getitem__, alpha_img)))
        return rq.RackTable(mod, tuple(rows))
    elements = affine_elements(spec)
    images = [affine_apply(spec, e) for e in elements]
    if len(set(images)) != n:
        raise rq.NonInvertibleAlpha(f"alpha={spec.alpha!r} is not a bijection on the group")
    m = len(moduli)
    rows = []
    for x, ex in enumerate(elements):
        ax = images[x]
        shift = tuple((ex[i] - ax[i]) % moduli[i] for i in range(m))
        row = []
        for y in range(n):
            ay = images[y]
            row.append(affine_index_of(spec, tuple(shift[i] + ay[i] for i in range(m))))
        rows.append(tuple(row))
    return rq.RackTable(n, tuple(rows))


def dihedral_formula(n):
    """The dihedral quandle straight from x acting on y as 2x - y mod n."""
    return rq.RackTable(n, tuple(tuple((2 * x - y) % n for y in range(n)) for x in range(n)))


def conjugation_class_bfs(degree, rep):
    """The conjugation quandle as first built: the class is closed under all
    d(d-1)/2 transpositions, and the size guard is checked while it grows."""
    transpositions = []
    for i in range(degree):
        for j in range(i + 1, degree):
            images = list(range(degree))
            images[i], images[j] = j, i
            transpositions.append(tuple(images))
    members = {rep}
    frontier = [rep]
    while frontier:
        nxt = []
        for g in frontier:
            for t in transpositions:
                h = rq.compose(t, rq.compose(g, t))
                if h not in members:
                    members.add(h)
                    if len(members) > rq.constructors.CLASS_SIZE_GUARD:
                        raise rq.ClassTooLarge(
                            f"conjugacy class exceeds {rq.constructors.CLASS_SIZE_GUARD} elements"
                        )
                    nxt.append(h)
        frontier = nxt
    carrier = sorted(members)
    index = {g: i for i, g in enumerate(carrier)}
    rows = []
    for g in carrier:
        ginv = rq.inverse(g)
        rows.append(tuple(index[rq.compose(g, rq.compose(h, ginv))] for h in carrier))
    return rq.RackTable(len(carrier), tuple(rows))


def validate_cubic(n, raw_table):
    """``rackq.core.validate`` as first built: entry and row scans, then
    self-distributivity checked on every triple in row-major order."""
    if n < 1:
        raise ValueError(f"carrier size must be positive, got {n}")
    rows = tuple(tuple(row) for row in raw_table)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"expected an {n}x{n} table")
    for x, row in enumerate(rows):
        for y, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < n:
                raise rq.OutOfRangeEntry(x, y, v, n)
    for x, row in enumerate(rows):
        if not rq.is_permutation(row):
            raise rq.R1Violation(x)
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            ry = rows[y]
            rv = rows[rx[y]]
            for z in range(n):
                if rx[ry[z]] != rv[rx[z]]:
                    raise rq.R2Violation(x, y, z)
    return rq.RackTable(n, rows)


def parse_table_per_token(text):
    """``rackq.parse_table`` as first built: every body entry is checked
    token by token."""
    name = None
    source = None
    data = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            lowered = body.lower()
            if lowered.startswith("name:"):
                name = body[len("name:"):].strip()
            elif lowered.startswith("source:"):
                source = body[len("source:"):].strip()
            continue
        data.append((lineno, stripped))
    if not data:
        raise rq.TableSyntaxError("missing order line", line=1)
    head_line, head = data[0]
    if not (head.isascii() and head.isdigit()):
        raise rq.TableSyntaxError(f"order line must be a positive integer, got {head!r}", head_line)
    n = int(head)
    if n < 1:
        raise rq.TableSyntaxError(f"order must be positive, got {n}", head_line)
    body = data[1:]
    if len(body) != n:
        reported = body[-1][0] if body else head_line
        raise rq.BadDimensions(f"expected {n} table rows, found {len(body)}", reported)
    rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise rq.BadDimensions(f"expected {n} entries, found {len(tokens)}", lineno)
        entries = []
        for col, token in enumerate(tokens, start=1):
            if not (token.isascii() and token.isdigit()):
                raise rq.TableSyntaxError(f"bad integer {token!r}", lineno, col)
            value = int(token)
            if not 1 <= value <= n:
                raise rq.EntryOutOfRange(f"entry {value} outside 1..{n}", lineno, col)
            entries.append(value)
        rows.append(tuple(entries))
    return rq.TableDocument(n, tuple(rows), name, source)


def table_analysis_per_row(rt):
    """The orbits and per-point profiles of ``RackTable.analysis`` as first
    built: every column is read up front, and the profile of every row is
    counted on its own."""
    cols = tuple(map(frozenset, zip(*rt.rows)))
    unseen = set(range(rt.n))
    orbits = []
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            fresh = cols[frontier.pop()] - comp
            comp |= fresh
            frontier.extend(fresh)
        orbits.append(frozenset(comp))
        unseen -= comp
    patterns = tuple(rq.perm.pattern(row) for row in rt.rows)
    return tuple(orbits), patterns
