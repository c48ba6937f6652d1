"""Brute-force reference implementations used to pin expected values.

Everything here deliberately avoids the package's own search and
canonicalization machinery, so agreement between the two is meaningful.
"""
import json
import math
from dataclasses import fields, replace
from functools import lru_cache
from itertools import accumulate, permutations, product
from operator import itemgetter, mul

import rackq as rq
from rackq.tableio import report_object


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


def least_labelling(row, q, k):
    """The closed form of ``enumeration._labelling`` by brute force: the
    least s·row·s⁻¹ over the s that map {0..k-1} onto itself with
    s(q) = k, or None if row maps {0..k-1} off itself."""
    n = len(row)
    if any(row[x] >= k for x in range(k)):
        return None
    return min(
        tuple(s[row[sinv[y]]] for y in range(n))
        for s, sinv in _perm_inverse_pairs(n)
        if s[q] == k and all(v < k for v in s[:k])
    )


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
    lexicographically smaller.  The crossed-set and braided filters test
    every pair; indecomposability and the profile histogram use the
    package's public functions.  Returns the ``CensusReport`` and the
    representatives' rows in stream order.
    """
    sigmas = _perm_inverse_pairs(n)
    report = rq.CensusReport(order=n, filters=filt, total_up_to_iso=0, total_labelled=0)
    reps = []
    for rows in _unpruned_labelled_tables(n, filt.require_quandle):
        rt = rq.RackTable(n, rows)
        if filt.require_crossed_set and not is_crossed_set_pairs(rt):
            continue
        if filt.require_braided and not is_braided_pairs(rt):
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


def _affine_images_per_point(moduli, matrix):
    images = []
    for n_i, row in zip(moduli, matrix):
        values = [0]
        for a, n_j in zip(row, moduli):
            values = [(v + a * t) % n_i for t in range(n_j) for v in values]
        images.append(values)
    return images


def _affine_indices_per_point(images, strides):
    return list(map(sum, zip(*([v * s for v in values] for values, s in zip(images, strides)))))


def affine_per_point(spec):
    """``rackq.affine`` before its index arrays were built by ``map``: the
    images and indices go point by point in Python, alpha is inverted by a
    walk over every point and each row start comes from a generator."""
    n, moduli = spec.size, spec.moduli
    rq.core.check_carrier_size(n)
    strides = list(accumulate(moduli, mul, initial=1))
    images = _affine_images_per_point(moduli, spec.alpha)
    alpha = _affine_indices_per_point(images, strides)
    if len(set(alpha)) != n:
        if len(moduli) == 1:
            raise rq.NonInvertibleAlpha(f"alpha={spec.alpha[0][0] % n} is not invertible mod {n}")
        raise rq.NonInvertibleAlpha(f"alpha={spec.alpha!r} is not a bijection on the group")
    shift_matrix = [[(i == j) - a for j, a in enumerate(row)] for i, row in enumerate(spec.alpha)]
    shift = _affine_indices_per_point(_affine_images_per_point(moduli, shift_matrix), strides)
    span = n // moduli[-1]
    bases = [tuple(alpha)]
    gathers = [itemgetter(*values) for values in images]
    for e in range(1, span):
        parts = (
            gather(tuple((v + values[e]) % m * s for v in range(m)))
            for gather, values, m, s in zip(gathers, images, moduli, strides)
        )
        bases.append(tuple(map(sum, zip(*parts))))
    doubled = [base + base for base in bases]
    starts = ((d % span, d - d % span) for d in map(rq.inverse(alpha).__getitem__, shift))
    return rq.RackTable(n, tuple(doubled[e][s : s + n] for e, s in starts))


def conjugate_adjacent(g, i):
    """t g t for the adjacent transposition t = (i i+1), as ``rackq``'s
    constructors compute it."""
    if {g[i], g[i + 1]} == {i, i + 1}:
        return g
    h = list(g)
    h[i], h[i + 1] = g[i + 1], g[i]
    a, b = h.index(i), h.index(i + 1)
    h[a], h[b] = i + 1, i
    return tuple(h)


def conjugation_class_composed(degree, rep):
    """``rackq.conjugation_class_quandle`` before it kept the BFS's
    conjugates: the class-index arrays conjugate every member again, and
    the representative's row is 2N ``compose`` calls."""
    rep = rq.perm.checked(rep)
    if len(rep) != degree:
        raise rq.RackError(f"representative acts on {len(rep)} points, expected {degree}")
    rq.constructors.check_class_size(degree, rq.perm.cycle_lengths(rep))
    tree = {rep: None}
    order = [rep]
    for g in order:
        for i in range(degree - 1):
            h = conjugate_adjacent(g, i)
            if h is not g and h not in tree:
                tree[h] = (g, i)
                order.append(h)
    carrier = sorted(tree)
    index = {g: k for k, g in enumerate(carrier)}
    labels = {edge[1] for edge in tree.values() if edge}
    conj = {i: tuple(index[conjugate_adjacent(g, i)] for g in carrier) for i in labels}
    gathers = {i: itemgetter(*c) for i, c in conj.items()}
    rep_inv = rq.inverse(rep)
    rows = {rep: tuple(index[rq.compose(rep, rq.compose(h, rep_inv))] for h in carrier)}
    for h in order[1:]:
        g, i = tree[h]
        rows[h] = itemgetter(*gathers[i](rows[g]))(conj[i])
    return rq.RackTable(len(carrier), tuple(rows[g] for g in carrier))


def validate_cubic(n, raw_table):
    """``rackq.core.validate`` as first built: entry and row scans, then
    self-distributivity checked on every triple in row-major order."""
    if n < 1:
        raise rq.RackError(f"carrier size must be positive, got {n}")
    rows = tuple(tuple(row) for row in raw_table)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise rq.RackError(f"expected an {n}x{n} table")
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


def validate_gather(n, raw_table):
    """``rackq.core.validate`` before rows were composed as bytes: the same
    input gate, then R1 by one set per row and R2 on the generating rows,
    each composition an ``itemgetter`` gather, at every order."""
    rq.core.check_carrier_size(n)
    try:
        rows = tuple(tuple(row) for row in raw_table)
    except TypeError:
        rows = ()  # not a sequence of sequences, so never n x n
    if len(rows) != n or any(len(row) != n for row in rows):
        raise rq.RackError(f"expected an {n}x{n} table")
    carrier = set(range(n))
    if not all(set(map(type, row)) == {int} and carrier.issuperset(row) for row in rows):
        # Some entry is not an int in range: scan entry by entry for the witness.
        for x, row in enumerate(rows):
            for y, v in enumerate(row):
                if not isinstance(v, int) or not 0 <= v < n:
                    raise rq.OutOfRangeEntry(x, y, v, n)
    if min(map(len, map(set, rows))) < n:
        raise rq.R1Violation(next(x for x, row in enumerate(rows) if len(set(row)) < n))
    # get[y](r) reads r at the entries of row y, so get[y](r_x) is r_x r_y.
    get = [itemgetter(*row) for row in rows]
    for x in rq.core._generators(rows, range(n), set()):
        rx, gx = rows[x], get[x]
        for y, ry in enumerate(rows):
            rv = rows[rx[y]]
            if get[y](rx) != gx(rv):
                z = next(z for z in range(n) if rx[ry[z]] != rv[rx[z]])
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
        raise rq.TableParseError("missing order line", line=1)
    head_line, head = data[0]
    if not (head.isascii() and head.isdigit()):
        raise rq.TableParseError(f"order line must be a positive integer, got {head!r}", head_line)
    n = int(head)
    if n < 1:
        raise rq.TableParseError(f"order must be positive, got {n}", head_line)
    body = data[1:]
    if len(body) != n:
        reported = body[-1][0] if body else head_line
        raise rq.TableParseError(f"expected {n} table rows, found {len(body)}", reported)
    rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise rq.TableParseError(f"expected {n} entries, found {len(tokens)}", lineno)
        entries = []
        for col, token in enumerate(tokens, start=1):
            if not (token.isascii() and token.isdigit()):
                raise rq.TableParseError(f"bad integer {token!r}", lineno, col)
            value = int(token)
            if not 1 <= value <= n:
                raise rq.TableParseError(f"entry {value} outside 1..{n}", lineno, col)
            entries.append(value)
        rows.append(tuple(entries))
    return rq.TableDocument(n, tuple(rows), name, source)


def emit_table_per_entry(table, name=None, source=None):
    """``rackq.emit_table`` as first built: a rack's rows are shifted to
    1-based one entry at a time and every entry is formatted by itself."""
    if isinstance(table, rq.TableDocument):
        doc = table
        name = name if name is not None else doc.name
        source = source if source is not None else doc.source
        rows = doc.rows
        n = doc.order
    else:
        n = table.n
        rows = tuple(tuple(v + 1 for v in row) for row in table.rows)
    lines = []
    for key, value in (("name", name), ("source", source)):
        value = (value or "").strip()
        if len(value.splitlines()) > 1:
            raise rq.RackError(f"table {key} must fit on one line, got {value!r}")
        if value:
            lines.append(f"# {key}: {value}")
    lines.append(str(n))
    lines.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def table_analysis_per_row(rt):
    """``RackTable.orbits`` and ``RackTable.patterns`` as first built:
    every column is read up front, and the profile of every row is counted
    on its own."""
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


def cycle_lengths_walk(p):
    """``rackq.perm.cycle_lengths`` as first built: its own cycle walk,
    counting lengths without listing the cycles."""
    seen = bytearray(len(p))
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        seen[start] = 1
        k = 1
        nxt = p[start]
        while nxt != start:
            seen[nxt] = 1
            k += 1
            nxt = p[nxt]
        lengths.append(k)
    return lengths


def is_subrack_pairs(r, points):
    """``rackq.is_subrack`` as first built: every pair of points is
    combined.  Negative points index rows from the end."""
    pts = frozenset(points)
    if not pts:
        return False
    rows = r.rows
    return all(rows[a][b] in pts for a in pts for b in pts)


def cycles_row_builder(lengths):
    """``rackq.enumeration._cycles_row`` as first built: each cycle
    (a a+1 … a+l-1) appended to the row in turn."""
    row: list = []
    for length in lengths:
        a = len(row)
        row += range(a + 1, a + length)
        row.append(a)
    return tuple(row)


def is_crossed_set_pairs(r):
    """``rackq.is_crossed_set`` as first built: every pair (x, y) is
    tested, so no rack axiom is assumed."""
    if not rq.is_quandle(r):
        return False
    rows = r.rows
    for x in range(r.n):
        for y in range(r.n):
            if rows[y][x] == x and rows[x][y] != y:
                return False
    return True


def is_braided_pairs(r):
    """``rackq.is_braided`` as first built: every pair (x, y) is tested."""
    rows = r.rows
    for x in range(r.n):
        rx = rows[x]
        for y in range(r.n):
            if rx[y] != y and rx[rows[y][x]] != y:
                return False
    return True


def subrack_closure_pairs(r, seed):
    """``rackq.subrack_closure`` as first built: worklist saturation over
    pairs.  Each point popped is combined with every member on both sides,
    so no rack axiom is assumed; the loop stops early once the carrier is
    covered."""
    rows = r.rows
    members = set(seed)
    fresh = list(members)
    while fresh and len(members) < len(rows):
        z = fresh.pop()
        rz = rows[z]
        new = set(map(rz.__getitem__, members))
        new.update(map(itemgetter(z), map(rows.__getitem__, members)))
        new -= members
        members |= new
        fresh.extend(new)
    return frozenset(members)


def _report_object_by_fields(value):
    """``report_object`` before verdicts had a branch of their own: a
    verdict went through the dataclass branch, read by ``fields``."""
    if isinstance(value, rq.ObstructionVerdict):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    return report_object(value)


def emit_report_dumps(value):
    """``rackq.emit_report`` as first built: ``json.dumps``, which builds an
    encoder with these settings on every call."""
    return json.dumps(value, default=_report_object_by_fields, separators=(",", ":"))


def prop315_verdict_by_replace(pf):
    """``rackq.prop315_verdict`` as first built: the deferred branch takes
    the contiguous-split verdict and relabels it with ``replace``.  It is
    reached when three lengths of multiplicity one divide no later length
    but one of them fails to divide the lcm of the other two."""
    ls = pf.moving_lengths()
    if len(ls) == 3 and set(pf.moving_mults()) == {1}:
        nondividing = all(ls[j] % ls[i] for i in range(3) for j in range(i + 1, 3))
        if nondividing and any(math.lcm(*ls) != math.lcm(*ls[:k], *ls[k + 1:]) for k in range(3)):
            return replace(rq.prop35_verdict(pf), rules_consulted=("Prop315", "Prop35"))
    return rq.prop315_verdict(pf)


def full_verdict_by_replace(pf, scope):
    """``rackq.full_verdict`` as first built: the first exclusion is
    relabelled with ``replace`` to list every rule consulted."""
    rules = [rq.prop35_verdict, rq.cor34_verdict]
    if scope == "crossed-sets":
        rules.append(prop315_verdict_by_replace)
    consulted = []
    for rule in rules:
        v = rule(pf)
        consulted.append(v.rules_consulted[0])
        if v.excluded:
            return replace(v, rules_consulted=tuple(consulted))
    return rq.ObstructionVerdict("NotExcluded", scope, None, tuple(consulted))
