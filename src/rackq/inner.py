"""Inner-group orbit analysis: connectivity, rack profiles, degree.

The inner group of a rack is generated by its left translations.  Because
every translation has finite order, its inverse is a positive power of it,
so orbit computations close under the generators alone.  Translations in
one orbit are conjugate, r_{r_a(x)} = r_a r_x r_a⁻¹, so they share a cycle
type; that is what gives an indecomposable rack its profile.  Every function
here reads the table's :attr:`~rackq.core.RackTable.orbits` and
:attr:`~rackq.core.RackTable.patterns`, which are computed once per table.
"""
from __future__ import annotations

import math
from itertools import chain

from .core import ClassFlags, RackTable, is_braided, is_crossed_set, is_quandle
from .errors import RackError
from .obstructions import hayashi_check
from .perm import CycleProfile


class NotIndecomposable(RackError):
    """Raised by operations that are only defined on indecomposable racks."""


def is_indecomposable(r: RackTable) -> bool:
    """True if the inner group acts transitively on the carrier."""
    return len(r.orbits) == 1


def rack_profile(r: RackTable) -> CycleProfile:
    """The common cycle pattern of all translations.

    Only defined for indecomposable racks.  All translations are then
    conjugate, r_{r_a(x)} = r_a r_x r_a⁻¹, so the pattern is that of the
    translation by 0.
    """
    if not is_indecomposable(r):
        raise NotIndecomposable(
            "rack is decomposable, so it has no single profile; "
            "use RackTable.patterns for the pattern of every translation"
        )
    return r.patterns[0]


def degree(r: RackTable) -> int:
    """Order of any translation of an indecomposable rack."""
    if not is_indecomposable(r):
        raise NotIndecomposable("degree is only defined for indecomposable racks")
    return math.lcm(*r.patterns[0].moving_lengths())


def hayashi_holds_for(r: RackTable) -> bool:
    """True if every non-trivial profile length divides the largest one."""
    return hayashi_check(rack_profile(r))


def classify(r: RackTable) -> ClassFlags:
    """Evaluate every classification predicate on one table."""
    profiles = set(r.patterns)
    return ClassFlags(
        is_quandle=is_quandle(r),
        is_crossed_set=is_crossed_set(r),
        is_braided=is_braided(r),
        is_indecomposable=is_indecomposable(r),
        degree=math.lcm(*chain.from_iterable(p.moving_lengths() for p in profiles)),
    )
