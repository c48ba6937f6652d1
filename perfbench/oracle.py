"""Expected outputs, computed from the definitions without calling rackq.

The benchmark checks every output of the program against these
functions, so they are written independently of the library: orbits by
union-find, cycle types by walking each map, obstruction rules straight
from their statements.  Only the output formats (report field order,
profile strings, error messages) are taken from the program's contract.
"""
from __future__ import annotations

import json
import math
from collections import Counter

# Published census counts: racks (OEIS A181771) and quandles (OEIS A057851).
RACK_COUNTS = {1: 1, 2: 2, 3: 6, 4: 19, 5: 74}
QUANDLE_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}

# Kinds ``full_verdict`` can return.
VERDICT_KINDS = ("ExcludedProp35", "ExcludedCor34", "ExcludedProp315", "NotExcluded")


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# --- permutations and tables -------------------------------------------------

def cycle_type(images) -> Counter:
    """Cycle length -> multiplicity for a map given as an index sequence."""
    seen = [False] * len(images)
    counts: Counter = Counter()
    for start in range(len(images)):
        if seen[start]:
            continue
        k = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            k += 1
        counts[k] += 1
    return counts


def cycle_type_of_map(points: list, fn) -> Counter:
    """Cycle type of a bijection ``fn`` on the list ``points``."""
    index = {p: i for i, p in enumerate(points)}
    return cycle_type([index[fn(p)] for p in points])


def profile_string(counts: Counter) -> str:
    return " ".join(f"{l}^{counts[l]}" for l in sorted(counts))


def is_transitive(rows) -> bool:
    """True if the translations connect every point (union-find)."""
    parent = list(range(len(rows)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        for y, v in enumerate(row):
            a, b = find(y), find(v)
            if a != b:
                parent[a] = b
    return len({find(x) for x in range(len(rows))}) == 1


def read_rows(text: str) -> list[list[int]]:
    """0-based rows of a well-formed table file."""
    lines = [l.split() for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")]
    n = int(lines[0][0])
    return [[int(v) - 1 for v in line] for line in lines[1 : n + 1]]


def first_r2_failure(rows):
    """First (x, y, z) in row-major order with x(y z) != (x y)(x z)."""
    n = len(rows)
    for x in range(n):
        rx = rows[x]
        for y in range(n):
            ry, rxy = rows[y], rows[rx[y]]
            for z in range(n):
                if rx[ry[z]] != rxy[rx[z]]:
                    return (x, y, z)
    return None


def check_report(rows) -> str:
    """The classification report ``rackq check`` prints for a valid table."""
    n = len(rows)
    quandle = all(rows[x][x] == x for x in range(n))
    crossed = quandle and all(
        rows[x][y] == y for x in range(n) for y in range(n) if rows[y][x] == x
    )
    braided = all(
        rows[x][y] == y or rows[x][rows[y][x]] == y for x in range(n) for y in range(n)
    )
    types = [cycle_type(row) for row in rows]
    payload = {
        "order": n,
        "is_quandle": quandle,
        "is_crossed_set": crossed,
        "is_braided": braided,
        "is_indecomposable": is_transitive(rows),
        "degree": math.lcm(*(l for t in types for l in t)),
        "per_point_patterns": [
            {"point": x + 1, "pattern": profile_string(t)} for x, t in enumerate(types)
        ],
    }
    return dumps(payload)


def expected_check(text: str, defect) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``rackq check`` on one file.

    ``defect`` is ``None`` for an intact table, otherwise the corruption the
    generator applied: ``("range", row, col, value)``, ``("syntax", row,
    col, token)`` or ``("R1", row)``; R2 defects are located by a scan.
    Table rows start on file line 3, after the name comment and the order.
    """
    if defect is not None and defect[0] == "range":
        _, row, col, value = defect
        n = int(text.splitlines()[1])
        return 1, "", f"line {row + 3}, column {col + 1}: entry {value} outside 1..{n}\n"
    if defect is not None and defect[0] == "syntax":
        _, row, col, token = defect
        return 1, "", f"line {row + 3}, column {col + 1}: bad integer {token!r}\n"
    if defect is not None and defect[0] == "R1":
        return 1, "", f"row {defect[1]} is not a permutation of the carrier\n"
    rows = read_rows(text)
    triple = first_r2_failure(rows)
    if triple is not None:
        return 1, "", "self-distributivity fails at triple ({}, {}, {})\n".format(*triple)
    return 0, check_report(rows) + "\n", ""


# --- families built by the sweep ----------------------------------------------

def conjugacy_class(rep: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All conjugates of ``rep``, closed under adjacent transpositions."""
    d = len(rep)
    members = {rep}
    frontier = [rep]
    while frontier:
        g = frontier.pop()
        for i in range(d - 1):
            swap = list(range(d))
            swap[i], swap[i + 1] = i + 1, i
            h = tuple(swap[g[swap[x]]] for x in range(d))
            if h not in members:
                members.add(h)
                frontier.append(h)
    return sorted(members)


def family_profile(spec) -> Counter:
    """Cycle type of one translation of the indecomposable table ``spec``."""
    kind = spec[0]
    if kind in ("affine", "dihedral"):
        n = spec[1]
        a = spec[2] if kind == "affine" else n - 1
        return cycle_type([a * y % n for y in range(n)])
    if kind == "vector":
        _, p, k, matrix = spec
        vectors = [tuple((i // p**j) % p for j in range(k)) for i in range(p**k)]
        return cycle_type_of_map(
            vectors,
            lambda v: tuple(sum(matrix[i][j] * v[j] for j in range(k)) % p for i in range(k)),
        )
    if kind == "conj":
        rep = spec[2]
        inv = [0] * len(rep)
        for i, v in enumerate(rep):
            inv[v] = i
        return cycle_type_of_map(
            conjugacy_class(rep), lambda h: tuple(rep[h[inv[x]]] for x in range(len(rep)))
        )
    raise ValueError(f"unknown family {kind!r}")


def expected_sweep(spec) -> tuple:
    """(indecomposable, profile, degree, hayashi) for a sweep table."""
    counts = family_profile(spec)
    lengths = sorted(counts)
    return (
        True,
        profile_string(counts),
        math.lcm(*lengths),
        all(lengths[-1] % l == 0 for l in lengths),
    )


# --- obstruction rules ----------------------------------------------------------

def prop35_witness(ls):
    for i in range(1, len(ls)):
        p, q = math.lcm(*ls[:i]), math.lcm(*ls[i:])
        if p % q and q % p:
            return {"i": i, "P": p, "Q": q}
    return None


def cor34_witness(ls):
    """First bipartition, in mask order with the last length kept in T,
    whose lcms do not divide each other."""
    k = len(ls)
    for mask in range(1, 1 << max(k - 1, 0)):
        s = [ls[j] for j in range(k - 1) if mask >> j & 1]
        t = [ls[j] for j in range(k) if j == k - 1 or not mask >> j & 1]
        p, q = math.lcm(*s), math.lcm(*t)
        if p % q and q % p:
            return {"S": s, "T": t, "P": p, "Q": q}
    return None


def _exponent(prime: int, value: int) -> int:
    e = 0
    while value % prime == 0:
        value //= prime
        e += 1
    return e


def _primes_of(value: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= value:
        while value % d == 0:
            out.add(d)
            value //= d
        d += 1
    if value > 1:
        out.add(value)
    return out


def decomposition(l1: int, l2: int, l3: int) -> dict:
    """Prime classes A/B/C/D of a length triple and their products."""
    primes = sorted(_primes_of(l1) | _primes_of(l2) | _primes_of(l3))
    prod = dict.fromkeys(("p", "q", "r", "s", "p_prime", "q_prime", "r_prime"), 1)
    exponents, classes = [], []
    for pr in primes:
        a, b, c = (_exponent(pr, l) for l in (l1, l2, l3))
        exponents.append([a, b, c])
        if a == b == c:
            cls, big, small = "D", ("s", a), None
        elif c == b > a:
            cls, big, small = "A", ("r", b), ("r_prime", a)
        elif a == c > b:
            cls, big, small = "B", ("q", a), ("q_prime", b)
        elif a == b > c:
            cls, big, small = "C", ("p", a), ("p_prime", c)
        else:
            classes.append("none")
            continue
        classes.append(cls)
        prod[big[0]] *= pr ** big[1]
        if small:
            prod[small[0]] *= pr ** small[1]
    return {"lengths": [l1, l2, l3], "primes": primes, "exponents": exponents,
            "classes": classes, **prod}


def prop315_applies(lengths, mults) -> bool:
    if len(lengths) != 3 or any(m != 1 for m in mults):
        return False
    l1, l2, l3 = lengths
    if not (l2 % l1 and l3 % l1 and l3 % l2):
        return False
    return all(math.lcm(*(l for l in lengths if l != x)) % x == 0 for x in lengths)


def expected_verdicts(lengths, mults, divisor_closed: bool) -> tuple[str, str]:
    """The two reports (racks scope, crossed-sets scope) for one profile.

    A divisor-closed set holds the lcm of all its lengths, so every
    bipartition has one side whose lcm is that maximum, and no bipartition
    can exclude it; the exponential sweep is not repeated for those sets.
    """
    ls = list(lengths)
    hit = prop35_witness(ls)
    if hit is not None:
        verdict = {"kind": "ExcludedProp35", "scope": "racks", "witness": hit,
                   "rules_consulted": ["Prop35"]}
        return dumps(verdict), dumps(verdict)
    hit = None if divisor_closed else cor34_witness(ls)
    if hit is not None:
        verdict = {"kind": "ExcludedCor34", "scope": "racks", "witness": hit,
                   "rules_consulted": ["Prop35", "Cor34"]}
        return dumps(verdict), dumps(verdict)
    racks = {"kind": "NotExcluded", "scope": "racks", "witness": None,
             "rules_consulted": ["Prop35", "Cor34"]}
    consulted = ["Prop35", "Cor34", "Prop315"]
    if prop315_applies(ls, mults):
        crossed = {"kind": "ExcludedProp315", "scope": "crossed-sets",
                   "witness": decomposition(*ls), "rules_consulted": consulted}
    else:
        crossed = {"kind": "NotExcluded", "scope": "crossed-sets", "witness": None,
                   "rules_consulted": consulted}
    return dumps(racks), dumps(crossed)
