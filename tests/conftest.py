from itertools import combinations

import pytest
from hypothesis import settings

import rackq as rq

# Property tests draw the same examples on every run, so a pass or a failure
# is reproducible and the suite's time is bounded.
settings.register_profile("deterministic", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def rack_reps():
    """Canonical representatives of every rack of order 1..5."""
    return {n: list(rq.enumerate_racks(n)) for n in range(1, 6)}


@pytest.fixture(scope="session")
def rack_reps6():
    """Canonical representatives of every rack of order 6 (353 tables)."""
    return list(rq.enumerate_racks(6))


@pytest.fixture(scope="session")
def census7():
    """The census of racks of order 7 (2,080 classes), run once."""
    return rq.census(7)


@pytest.fixture(scope="session")
def family_tables():
    """A spread of constructed tables used by the cross-family suites."""
    tables = {
        "trivial(1)": rq.trivial(1),
        "trivial(4)": rq.trivial(4),
        "cyclic(2)": rq.cyclic_rack(2),
        "cyclic(7)": rq.cyclic_rack(7),
        "cyclic(64)": rq.cyclic_rack(64),
        "dihedral(3)": rq.dihedral(3),
        "dihedral(9)": rq.dihedral(9),
        "dihedral(12)": rq.dihedral(12),
        "dihedral(63)": rq.dihedral(63),
        "affine(5,2)": rq.affine(rq.AffineSpec((5,), ((2,),))),
        "affine(15,2)": rq.affine(rq.AffineSpec((15,), ((2,),))),
        "affine(64,3)": rq.affine(rq.AffineSpec((64,), ((3,),))),
        "affine(3x3,swap)": rq.affine(rq.AffineSpec((3, 3), ((0, 1), (1, 0)))),
        "affine(2x2,[[0,1],[1,1]])": rq.affine(rq.AffineSpec((2, 2), ((0, 1), (1, 1)))),
        "conj(S3 transpositions)": rq.conjugation_class_quandle(3, (1, 0, 2)),
        "conj(S4 transpositions)": rq.conjugation_class_quandle(4, (1, 0, 2, 3)),
        "conj(S4 3-cycles)": rq.conjugation_class_quandle(4, (1, 2, 0, 3)),
    }
    return tables


@pytest.fixture(scope="session")
def decomposable_tables():
    """Racks of several orbits, on which validate checks several rows:
    affine quandles on Z_n with 4, 3, 2 and 16 orbits (4, 3, 2 and 12 rows
    checked), and 20 copies of dihedral(3) that act trivially on each other
    (20 orbits, 40 rows checked)."""
    d3 = rq.dihedral(3).rows
    union = tuple(
        tuple(x // 3 * 3 + d3[x % 3][y % 3] if x // 3 == y // 3 else y for y in range(60))
        for x in range(60)
    )
    tables = {
        f"affine({n},{a})": rq.affine(rq.AffineSpec((n,), ((a,),)))
        for n, a in ((192, 5), (147, 10), (78, 5), (192, 17))
    }
    tables["20 x dihedral(3)"] = rq.RackTable(60, union)
    return tables


@pytest.fixture(scope="session")
def profile_sweep():
    """Every set of one to three lengths in 2..15, with no fixed point and
    with one, then the four-length sets in 2..12, the three-length sets with
    multiplicities (1, 2, 1), and the divisor-closed sets of 60, 120 and 360
    (full Cor34 runs): 1,635 profiles on which the verdicts of both scopes
    reach all four kinds of ``full_verdict`` and ``prop315_verdict`` also
    reaches ``NotApplicable``."""
    sets = [c for k in (1, 2, 3) for c in combinations(range(2, 16), k)]
    profiles = [rq.CycleProfile(fixed + tuple((l, 1) for l in ls))
                for ls in sets for fixed in ((), ((1, 1),))]
    profiles += [rq.CycleProfile(tuple((l, 1) for l in ls)) for ls in combinations(range(2, 13), 4)]
    profiles += [rq.CycleProfile(tuple(zip(ls, (1, 2, 1)))) for ls in combinations(range(2, 16), 3)]
    for n in (60, 120, 360):
        profiles.append(rq.CycleProfile(tuple((d, 1) for d in range(2, n + 1) if n % d == 0)))
    return profiles
