"""Decision procedures on abstract cycle profiles.

Profiles are :class:`~rackq.perm.CycleProfile` values; the rules read only
their lengths >= 2 and the multiplicities of those.  Three exclusion rules
are implemented; their wire identifiers are

* ``Prop35``  - some contiguous split of the sorted lengths has prefix and
  suffix lcms that do not divide each other (excludes all racks);
* ``Cor34``   - generalized, non-contiguous bipartition form of the same
  lcm test (excludes all racks; an extension, reported separately);
* ``Prop315`` - the three-length, multiplicity-one exclusion for crossed
  sets, with its prime-exponent length decomposition as witness.

Verdicts serialize to JSON as {kind, scope, witness, rules_consulted}.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import RackError
from .perm import MAX_LENGTH, CycleProfile

SCOPE_RACKS = "racks"
SCOPE_CROSSED_SETS = "crossed-sets"
SCOPES = (SCOPE_RACKS, SCOPE_CROSSED_SETS)

EXCLUDED_PROP35 = "ExcludedProp35"
EXCLUDED_COR34 = "ExcludedCor34"
EXCLUDED_PROP315 = "ExcludedProp315"
NOT_EXCLUDED = "NotExcluded"
NOT_APPLICABLE = "NotApplicable"


class ProfileError(RackError):
    """A refused profile string; the message names the bad term, if any."""


_SEPARATOR = re.compile(r"[.\s]+")
_TERM = re.compile(r"([0-9]+)(?:\^([0-9]+))?\Z")


def parse_profile(text: str) -> CycleProfile:
    """Parse "1^2.2^2.3^4.6^4" or "1^1 2 3" style profile strings.

    Terms are separated by dots or whitespace; each term is ``L`` or
    ``L^M``.  At most one term may have L=1, and it populates m0.  A
    numeral too long for ``int()`` is reported with its term's position.
    """
    terms = [t for t in _SEPARATOR.split(text.strip()) if t]
    if not terms:
        raise ProfileError("empty profile")
    by_length: dict[int, int] = {}
    for k, term in enumerate(terms, start=1):
        m = _TERM.match(term)
        if not m:
            raise ProfileError(f"bad profile term {term!r}")
        try:
            length, mult = map(int, m.groups("1"))
        except ValueError:
            raise ProfileError(
                f"term {k} has a numeral of {max(map(len, m.groups('')))} digits, too many to read"
            ) from None
        if length < 1 or mult < 1:
            raise ProfileError(f"lengths and multiplicities must be >= 1: {term!r}")
        if length > MAX_LENGTH:
            raise ProfileError(f"term {k}: lengths are capped at 2^32")
        if length in by_length:
            if length == 1:
                raise ProfileError("more than one length-1 term")
            raise ProfileError(f"length {length} appears more than once")
        by_length[length] = mult
    return CycleProfile(tuple(sorted(by_length.items())))


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of applying exclusion rules to one profile."""

    kind: str
    scope: str
    witness: object
    rules_consulted: tuple[str, ...]

    @property
    def excluded(self) -> bool:
        return self.kind.startswith("Excluded")


def prop35_verdict(pf: CycleProfile) -> ObstructionVerdict:
    """Contiguous-split lcm exclusion over the sorted lengths.

    Excluded if for some split index i the lcm of the first i lengths and
    the lcm of the rest do not divide each other.  The witness records the
    first such split.  Linear in the number of lengths: the suffix lcms
    are built once and the prefix lcm is carried along.
    """
    ls = pf.moving_lengths()
    suffix = list(ls)
    for i in range(len(ls) - 2, 0, -1):
        suffix[i] = math.lcm(suffix[i], suffix[i + 1])
    p = 1
    for i in range(1, len(ls)):
        p = math.lcm(p, ls[i - 1])
        q = suffix[i]
        if q % p != 0 and p % q != 0:
            return ObstructionVerdict(
                EXCLUDED_PROP35, SCOPE_RACKS, {"i": i, "P": p, "Q": q}, ("Prop35",)
            )
    return ObstructionVerdict(NOT_EXCLUDED, SCOPE_RACKS, None, ("Prop35",))


def _upper_sets(ls: tuple[int, ...]) -> list[int]:
    """Distinct index sets {j : q divides ls[j]} over prime powers q > 1,
    as bitmasks (bit j for ls[j]), in ascending numeric order."""
    masks: dict[int, int] = {}
    for j, length in enumerate(ls):
        for prime, e in _factorize(length):
            q = 1
            for _ in range(e):
                q *= prime
                masks[q] = masks.get(q, 0) | 1 << j
    return sorted(set(masks.values()))


def cor34_verdict(pf: CycleProfile) -> ObstructionVerdict:
    """Bipartition lcm exclusion over the length set.

    Generalizes the contiguous split: excluded if some bipartition of the
    lengths into non-empty S, T has lcms P, Q that do not divide each
    other.  Then some length of T does not divide P and some length of S
    does not divide Q, so neither fixed set can be the whole carrier.

    Decided in polynomial time.  P fails to divide Q exactly when, for
    some prime power p^e, S holds every length that p^e divides (an upper
    set lies in S); likewise Q fails to divide P exactly when an upper set
    lies in T.  So an exclusion exists exactly when two non-empty upper
    sets are disjoint.  The witness is the first bipartition in mask order
    (bit j puts the j-th length in S; the last length stays in T).  Every
    qualifying S contains an upper set that avoids the last length and is
    disjoint from another one, and that upper set qualifies as S by
    itself, so the first S is the smallest such upper set.
    """
    ls = pf.moving_lengths()
    if len(ls) > 1:
        uppers = _upper_sets(ls)
        last = 1 << (len(ls) - 1)
        for mask in uppers:
            if mask < last and any(mask & other == 0 for other in uppers):
                s_side = [l for j, l in enumerate(ls) if mask >> j & 1]
                t_side = [l for j, l in enumerate(ls) if not mask >> j & 1]
                p, q = math.lcm(*s_side), math.lcm(*t_side)
                witness = {"S": s_side, "T": t_side, "P": p, "Q": q}
                return ObstructionVerdict(EXCLUDED_COR34, SCOPE_RACKS, witness, ("Cor34",))
    return ObstructionVerdict(NOT_EXCLUDED, SCOPE_RACKS, None, ("Cor34",))


@lru_cache(maxsize=4096)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@dataclass(frozen=True)
class LengthDecomposition:
    """Prime-exponent bookkeeping for a strictly increasing length triple.

    Each shared prime is classified by the shape of its exponent triple
    (a, b, c) across (l1, l2, l3):

    * ``A``: c == b > a    * ``B``: a == c > b
    * ``C``: a == b > c    * ``D``: a == b == c
    * ``none``: any other shape (blocks the crossed-set rule).

    p, q, r, s collect the large exponents of classes C, B, A, D; the
    primed values collect the small ones, so p' | p, q' | q, r' | r and
    when every prime classifies, (p*q*r'*s, p*q'*r*s, p'*q*r*s)
    reconstructs the triple.
    """

    lengths: tuple[int, int, int]
    primes: tuple[int, ...]
    exponents: tuple[tuple[int, int, int], ...]
    classes: tuple[str, ...]
    p: int
    q: int
    r: int
    s: int
    p_prime: int
    q_prime: int
    r_prime: int

    @property
    def all_classified(self) -> bool:
        return "none" not in self.classes

    def class_sets(self) -> dict[str, tuple[int, ...]]:
        out: dict[str, tuple[int, ...]] = {}
        for name in ("A", "B", "C", "D", "none"):
            out[name] = tuple(p for p, c in zip(self.primes, self.classes) if c == name)
        return out

    def reconstruction(self) -> tuple[int, int, int]:
        return (
            self.p * self.q * self.r_prime * self.s,
            self.p * self.q_prime * self.r * self.s,
            self.p_prime * self.q * self.r * self.s,
        )


def decompose_lengths(l1: int, l2: int, l3: int) -> LengthDecomposition:
    """Classify the primes of a triple 2 <= l1 < l2 < l3 and take products."""
    if not 2 <= l1 < l2 < l3:
        raise RackError(f"need 2 <= l1 < l2 < l3, got ({l1}, {l2}, {l3})")
    fa, fb, fc = dict(_factorize(l1)), dict(_factorize(l2)), dict(_factorize(l3))
    primes = tuple(sorted(set(fa) | set(fb) | set(fc)))
    exponents = []
    classes = []
    p = q = r = s = 1
    p_prime = q_prime = r_prime = 1
    for prime in primes:
        a, b, c = fa.get(prime, 0), fb.get(prime, 0), fc.get(prime, 0)
        exponents.append((a, b, c))
        if a == b == c:
            classes.append("D")
            s *= prime**a
        elif c == b > a:
            classes.append("A")
            r *= prime**b
            r_prime *= prime**a
        elif a == c > b:
            classes.append("B")
            q *= prime**a
            q_prime *= prime**b
        elif a == b > c:
            classes.append("C")
            p *= prime**a
            p_prime *= prime**c
        else:
            classes.append("none")
    return LengthDecomposition(
        lengths=(l1, l2, l3),
        primes=primes,
        exponents=tuple(exponents),
        classes=tuple(classes),
        p=p,
        q=q,
        r=r,
        s=s,
        p_prime=p_prime,
        q_prime=q_prime,
        r_prime=r_prime,
    )


def prop315_verdict(pf: CycleProfile) -> ObstructionVerdict:
    """Three-length crossed-set exclusion.

    Applies only to profiles with exactly three lengths, all of
    multiplicity one.  With l1 < l2 < l3, the profile is excluded for
    crossed sets when no length divides a later one but every length
    divides the lcm of the other two.  When mutual non-division holds but
    some length fails the lcm condition, the contiguous-split verdict is
    returned instead; it can be ``NotExcluded``, as for ``10 12 15``,
    which only the bipartition rule excludes.  ``full_verdict`` reaches
    this branch only after both of those rules have passed.
    """
    lengths = pf.moving_lengths()
    if len(lengths) != 3 or any(m != 1 for m in pf.moving_mults()):
        return ObstructionVerdict(NOT_APPLICABLE, SCOPE_CROSSED_SETS, None, ("Prop315",))
    l1, l2, l3 = lengths
    mutual_nondivision = l2 % l1 != 0 and l3 % l1 != 0 and l3 % l2 != 0
    each_divides_other_lcm = all(
        math.lcm(lengths[(k + 1) % 3], lengths[(k + 2) % 3]) % lengths[k] == 0 for k in range(3)
    )
    if mutual_nondivision and each_divides_other_lcm:
        witness = decompose_lengths(l1, l2, l3)
        return ObstructionVerdict(EXCLUDED_PROP315, SCOPE_CROSSED_SETS, witness, ("Prop315",))
    if mutual_nondivision:
        v = prop35_verdict(pf)
        return ObstructionVerdict(v.kind, v.scope, v.witness, ("Prop315", "Prop35"))
    return ObstructionVerdict(NOT_EXCLUDED, SCOPE_CROSSED_SETS, None, ("Prop315",))


def hayashi_check(pf: CycleProfile) -> bool:
    """True if every length >= 2 divides the largest one."""
    lengths = pf.moving_lengths()
    return not lengths or all(lengths[-1] % l == 0 for l in lengths)


def full_verdict(pf: CycleProfile, scope: str = SCOPE_RACKS) -> ObstructionVerdict:
    """Apply the scope's exclusion rules in order and return the first hit.

    Rule order: contiguous split, then bipartition, then (for crossed-set
    scope only) the three-length rule.  The returned verdict records every
    rule consulted along the way.  The three-length rule never defers to
    a contiguous-split exclusion here, as that rule already passed.
    """
    if scope not in SCOPES:
        raise RackError(f"scope must be one of {SCOPES}, got {scope!r}")
    rules = [prop35_verdict, cor34_verdict]
    if scope == SCOPE_CROSSED_SETS:
        rules.append(prop315_verdict)
    consulted: list[str] = []
    for rule in rules:
        v = rule(pf)
        consulted.append(v.rules_consulted[0])
        if v.excluded:
            return ObstructionVerdict(v.kind, v.scope, v.witness, tuple(consulted))
    return ObstructionVerdict(NOT_EXCLUDED, scope, None, tuple(consulted))
