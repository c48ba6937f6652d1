import pytest

import rackq as rq


@pytest.fixture(scope="session")
def rack_reps():
    """Canonical representatives of every rack of order 1..5."""
    return {n: list(rq.enumerate_racks(n)) for n in range(1, 6)}


@pytest.fixture(scope="session")
def rack_reps6():
    """Canonical representatives of every rack of order 6 (353 tables)."""
    return list(rq.enumerate_racks(6))


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
