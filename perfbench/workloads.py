"""The four workloads: seeded inputs, the timed call per item, and checks.

Each workload makes a fixed number of items per pass from its seed.  Sizes
follow a fixed plan, at most with a seeded choice inside narrow slots, so
the work in a pass barely depends on the seed.  ``run`` is the only timed code; it
calls rackq the way a user would, through module attributes, so the
tracer's wrappers see every call.  ``check`` compares the outputs with
:mod:`oracle` after the timed phase and returns one message per wrong
item.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

import oracle

import rackq as rq
import rackq.cli

HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    """Defaults shared by the workloads."""

    def fingerprint(self, item, output) -> str:
        """A digest of one output, to compare passes of the same inputs."""
        return _digest(repr(output))[:16]

    def counters(self, items, outputs) -> dict:
        return {}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rackq.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def recorded_digests() -> dict:
    """Digests of the census reports and dump, recorded at the seed commit."""
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh)["census_digests"]


def _units(n: int) -> list[int]:
    """a in 2..n-1 with a and 1 - a both invertible mod n."""
    return [a for a in range(2, n) if math.gcd(a, n) == 1 and math.gcd(a - 1, n) == 1]


def _det_mod(matrix, p: int) -> int:
    """Determinant over Z_p, p prime, by Gaussian elimination."""
    m = [list(row) for row in matrix]
    det = 1
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] % p), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det = det * m[col][col] % p
        inv = pow(m[col][col], -1, p)
        for r in range(col + 1, len(m)):
            f = m[r][col] * inv % p
            m[r] = [(a - f * b) % p for a, b in zip(m[r], m[col])]
    return det % p


class Census(Workload):
    """The isomorph-free census through ``rackq enumerate``.

    The inputs do not depend on the seed: a census is one fixed
    computation, checked against published counts and recorded digests.
    """

    name = "census"
    items_per_pass = 13

    def make_inputs(self, seed: int, workdir: str) -> list[list[str]]:
        argvs = [["enumerate", "--order", str(n)] for n in range(1, 6)]
        argvs.append(["enumerate", "--order", "5", "--indecomposable"])
        argvs.append(["enumerate", "--order", "5", "--dump", os.path.join(workdir, "dump")])
        argvs += [["enumerate", "--order", str(n), "--quandle"] for n in range(1, 7)]
        return argvs

    def run(self, argv):
        return _call_cli(argv)

    @staticmethod
    def key(argv: list[str]) -> str:
        """The argv without the dump directory, which differs per run."""
        return " ".join(argv[:-1] if "--dump" in argv else argv)

    def fingerprint(self, item, output) -> str:
        if "--dump" in item:
            output = (*output, self.dump_digest(item[-1]))
        return super().fingerprint(item, output)

    @staticmethod
    def dump_digest(dump_dir: str) -> str:
        h = hashlib.sha256()
        for name in sorted(os.listdir(dump_dir)):
            with open(os.path.join(dump_dir, name), encoding="utf-8") as fh:
                h.update(f"{name}\n{fh.read()}".encode())
        return h.hexdigest()

    def check(self, items, outputs) -> list[str]:
        digests = recorded_digests()
        failures = []
        for argv, (code, out, err) in zip(items, outputs):
            key = self.key(argv)
            order = int(argv[2])
            published = oracle.QUANDLE_COUNTS if "--quandle" in argv else oracle.RACK_COUNTS
            problems = []
            report = _json_or_none(out)
            if code != 0 or err or report is None:
                problems.append(f"exit {code}, stderr {err!r}")
            elif "--indecomposable" not in argv and report["total_up_to_iso"] != published[order]:
                problems.append(f"count is not the published {published[order]}")
            if _digest(out) != digests.get(key):
                problems.append("report differs from the recorded digest")
            if "--dump" in argv and self.dump_digest(argv[-1]) != digests.get("dump"):
                problems.append("dumped tables differ from the recorded digest")
            if problems:
                failures.append(f"{key}: {'; '.join(problems)}")
        return failures

    def counters(self, items, outputs) -> dict:
        reports = [r for _code, out, _err in outputs if (r := _json_or_none(out))]
        return {
            "enumeration.labelled_tables": sum(r["total_labelled"] for r in reports),
            "enumeration.representatives": sum(r["total_up_to_iso"] for r in reports),
        }


class Sweep(Workload):
    """Per-table analysis on many distinct indecomposable quandles.

    Every odd n in 15..199 twice as an affine quandle on Z_n with a seeded
    multiplier, 30 dihedral quandles of seeded odd order, affine quandles
    on small Z_p^k with seeded matrices, and conjugacy classes of S_5..S_9.
    """

    name = "sweep"
    VECTOR_SPACES = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2))
    CYCLE_TYPES = ((5, (2,)), (6, (2,)), (7, (2,)), (8, (2,)), (9, (2,)),
                   (5, (3,)), (6, (3,)), (7, (3,)), (5, (4,)), (5, (2, 2)))
    items_per_pass = 2 * 93 + 30 + 2 * len(VECTOR_SPACES) + 2 * len(CYCLE_TYPES)

    def make_inputs(self, seed: int, workdir: str) -> list[tuple]:
        rng = _rng(self.name, seed)
        specs = [("affine", n, rng.choice(_units(n))) for n in range(15, 200, 2) for _ in (0, 1)]
        specs += [("dihedral", 15 + 2 * int(92 * (i + rng.random()) / 30)) for i in range(30)]
        for p, k in self.VECTOR_SPACES * 2:
            while True:
                matrix = tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(k))
                shifted = [[(i == j) - matrix[i][j] for j in range(k)] for i in range(k)]
                if _det_mod(matrix, p) and _det_mod(shifted, p):
                    break
            specs.append(("vector", p, k, matrix))
        for degree, cycles in self.CYCLE_TYPES * 2:
            points = rng.sample(range(degree), sum(cycles))
            rep = list(range(degree))
            for length in cycles:
                cycle, points = points[:length], points[length:]
                for i, x in enumerate(cycle):
                    rep[x] = cycle[(i + 1) % length]
            specs.append(("conj", degree, tuple(rep)))
        rng.shuffle(specs)
        return specs

    def run(self, spec):
        kind = spec[0]
        if kind == "affine":
            rt = rq.affine(rq.AffineSpec((spec[1],), ((spec[2],),)))
        elif kind == "dihedral":
            rt = rq.dihedral(spec[1])
        elif kind == "vector":
            rt = rq.affine(rq.AffineSpec((spec[1],) * spec[2], spec[3]))
        else:
            rt = rq.conjugation_class_quandle(spec[1], spec[2])
        return (rq.is_indecomposable(rt), str(rq.rack_profile(rt)), rq.degree(rt),
                rq.hayashi_holds_for(rt))

    def check(self, items, outputs) -> list[str]:
        failures = []
        for spec, got in zip(items, outputs):
            want = oracle.expected_sweep(spec)
            if spec[0] in ("affine", "dihedral"):
                # On Z_n the orbit of 1 has the full multiplicative order.
                terms = [tuple(map(int, term.split("^"))) for term in got[1].split()]
                if max(terms)[0] != got[2] or not got[3] or sum(l * m for l, m in terms) != spec[1]:
                    failures.append(f"{spec}: degree, Hayashi or total wrong in {got}")
                    continue
            if tuple(got) != want:
                failures.append(f"{spec}: got {got}, expected {want}")
        return failures


class Check(Workload):
    """``rackq check`` on table files of order 30..200, a tenth invalid.

    The orders are fixed, since validation is cubic in them: 30 valid files
    spread log-uniformly over 30..170 and 6 in 190..199, so the slowest
    items sit on a plateau of near-equal cost, and four invalid files, one
    each with an R1, R2, out-of-range and bad-syntax defect.  The seed picks
    each table's family and multiplier, the defect positions and the order
    of the files.
    """

    name = "check"
    DEFECTS = ("R1", "R2", "range", "syntax")
    items_per_pass = 40

    def make_inputs(self, seed: int, workdir: str) -> list[tuple]:
        rng = _rng(self.name, seed)
        plan = [(round(30 * (170 / 30) ** ((i + 0.5) / 30)), None) for i in range(30)]
        plan += [(n, None) for n in (190, 192, 193, 195, 197, 199)]
        plan += list(zip((36, 61, 104, 176), self.DEFECTS))
        rng.shuffle(plan)
        os.makedirs(workdir, exist_ok=True)
        items = []
        for index, (n, kind) in enumerate(plan):
            family = "affine" if kind else rng.choices(("affine", "dihedral", "cyclic"), (6, 3, 1))[0]
            if family == "affine":
                a = rng.choice([a for a in range(2, n) if math.gcd(a, n) == 1])
                rt = rq.affine(rq.AffineSpec((n,), ((a,),)))
                name = f"affine Z_{n} alpha={a}"
            elif family == "dihedral":
                rt, name = rq.dihedral(n), f"dihedral {n}"
            else:
                rt, name = rq.cyclic_rack(n), f"cyclic {n}"
            defect = None
            if kind in ("R1", "R2"):
                row, col, other = rng.randrange(n), *rng.sample(range(n), 2)
                rows = [list(r) for r in rt.rows]
                if kind == "R1":
                    rows[row][col] = rows[row][other]
                    defect = ("R1", row)
                else:
                    rows[row][col], rows[row][other] = rows[row][other], rows[row][col]
                rt = rq.RackTable(n, tuple(map(tuple, rows)))
            text = rq.emit_table(rt, name=name)
            if kind in ("range", "syntax"):
                row, col = rng.randrange(n), rng.randrange(n)
                token = str(n + 1 + rng.randrange(5)) if kind == "range" else \
                    rng.choice(("x", "3.5", "-2", "1e3", "seven"))
                lines = text.split("\n")
                entries = lines[row + 2].split(" ")
                entries[col] = token
                lines[row + 2] = " ".join(entries)
                text = "\n".join(lines)
                defect = (kind, row, col, int(token) if kind == "range" else token)
            path = os.path.join(workdir, f"table_{index:03d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            items.append((path, defect))
        return items

    def run(self, item):
        return _call_cli(["check", item[0]])

    def check(self, items, outputs) -> list[str]:
        failures = []
        for (path, defect), got in zip(items, outputs):
            with open(path, encoding="utf-8") as fh:
                want = oracle.expected_check(fh.read(), defect)
            if tuple(got) != want:
                failures.append(f"{os.path.basename(path)} {defect}: got {got[0]} "
                                f"{got[2].strip()!r}, expected {want[0]} {want[2].strip()!r}")
        return failures


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def _divisor_closed_candidates() -> dict[int, list[int]]:
    """N with 8..16 divisors above 1, keyed by that count."""
    limit = 5000
    counts = [0] * limit
    for d in range(2, limit):
        for multiple in range(d, limit, d):
            counts[multiple] += 1
    by_count: dict[int, list[int]] = {k: [] for k in range(8, 17)}
    for n in range(2, limit):
        if counts[n] in by_count:
            by_count[counts[n]].append(n)
    for p in (2, 3, 5, 7):  # p**k has k divisors above 1
        for k in range(8, 17):
            if limit <= p**k <= 2**32:
                by_count[k].append(p**k)
    return by_count


class Obstruct(Workload):
    """Profile queries as ``rackq obstruct`` makes them, minus argparse.

    Per pass: 1900 short random profiles (most end in Prop35), 100 length
    triples that reach Prop315, and 60 divisor-closed length sets of 8..16
    lengths that run the whole Cor34 sweep, fewer of the longer ones.
    """

    name = "obstruct"
    LONG_PLAN = {8: 14, 9: 12, 10: 10, 11: 8, 12: 6, 13: 4, 14: 3, 15: 2, 16: 1}
    SHORT, TRIPLES = 1900, 100
    items_per_pass = SHORT + TRIPLES + sum(LONG_PLAN.values())
    COPRIME = (2, 3, 4, 5, 7, 9, 11, 13)

    @staticmethod
    def _render(rng, m0: int, lengths, mults) -> str:
        terms = [str(l) if m == 1 and rng.random() < 0.5 else f"{l}^{m}"
                 for l, m in zip(lengths, mults)]
        if m0:
            terms.append(f"1^{m0}")
        rng.shuffle(terms)
        return rng.choice((".", " ")).join(terms)

    def make_inputs(self, seed: int, workdir: str) -> list[tuple]:
        rng = _rng(self.name, seed)
        items = []
        for _ in range(self.SHORT):
            lengths = sorted(rng.sample(range(2, 61), rng.randint(1, 4)))
            mults = [rng.randint(1, 4) for _ in lengths]
            items.append((lengths, mults, rng.choice((0, 0, 1, 2, 5)), False))
        for _ in range(self.TRIPLES):
            while True:
                a, b, c = sorted(rng.sample(self.COPRIME, 3))
                if math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1:
                    break
            scale = rng.choice((1, 2, 3))
            lengths = sorted(scale * x for x in (a * b, a * c, b * c))
            items.append((lengths, [1, 1, 1], rng.randint(0, 3), False))
        candidates = _divisor_closed_candidates()
        for k, count in self.LONG_PLAN.items():
            for _ in range(count):
                n = rng.choice(candidates[k])
                lengths = _divisors(n)[1:]
                items.append((lengths, [rng.randint(1, 3) for _ in lengths], rng.randint(0, 2), True))
        rng.shuffle(items)
        return [(self._render(rng, m0, ls, ms), ls, ms, closed) for ls, ms, m0, closed in items]

    def run(self, item):
        profile = rq.parse_profile(item[0])
        return (rq.emit_report(rq.full_verdict(profile, "racks")),
                rq.emit_report(rq.full_verdict(profile, "crossed-sets")))

    def check(self, items, outputs) -> list[str]:
        failures = []
        for (text, lengths, mults, closed), got in zip(items, outputs):
            want = oracle.expected_verdicts(lengths, mults, closed)
            if tuple(got) != want:
                failures.append(f"{text!r}: got {got}, expected {want}")
        return failures

    def counters(self, items, outputs) -> dict:
        kinds = [(_json_or_none(report) or {}).get("kind") for pair in outputs for report in pair]
        return {f"obstructions.verdicts.{kind}": kinds.count(kind) for kind in oracle.VERDICT_KINDS}


WORKLOADS = {w.name: w for w in (Census, Sweep, Check, Obstruct)}
