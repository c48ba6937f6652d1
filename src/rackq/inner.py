"""Inner-group orbit analysis: connectivity, rack profiles, degree.

The inner group of a rack is generated by its left translations.  Because
every translation has finite order, its inverse is a positive power of it,
so orbit computations close under the generators alone.  Every function
here reads the table's :attr:`~rackq.core.RackTable.analysis`, which is
computed once per table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .core import ClassFlags, RackTable, is_braided, is_crossed_set, is_quandle
from .errors import RackError
from .obstructions import hayashi_check
from .perm import CycleProfile


class NotIndecomposable(RackError):
    """Raised by operations that are only defined on indecomposable racks."""


class ProfileConstancyError(RackError):
    """Internal consistency failure: translation patterns differ.

    On an indecomposable rack all translations are conjugate, so a
    mismatch indicates a bug or a decomposable input slipping past the
    connectivity check.
    """


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of the carrier under the inner group, sorted by minimum."""

    orbits: tuple[frozenset[int], ...]


def orbit_partition(r: RackTable) -> OrbitPartition:
    """Partition the carrier into inner-group orbits."""
    return OrbitPartition(r.analysis.orbits)


def is_indecomposable(r: RackTable) -> bool:
    """True if the inner group acts transitively on the carrier."""
    return len(r.analysis.orbits) == 1


def per_point_patterns(r: RackTable) -> tuple[tuple[int, CycleProfile], ...]:
    """Cycle pattern of every translation, in carrier order."""
    return tuple(
        (x, CycleProfile.from_cycle_lengths(lengths))
        for x, lengths in enumerate(r.analysis.row_lengths)
    )


def rack_profile(r: RackTable) -> CycleProfile:
    """The common cycle pattern of all translations.

    Only defined for indecomposable racks; conjugacy makes the pattern
    independent of the chosen point, but this is re-verified across the
    whole carrier rather than trusted, and a mismatch raises
    :class:`ProfileConstancyError`.
    """
    if not is_indecomposable(r):
        raise NotIndecomposable(
            "rack is decomposable, so it has no single profile; "
            "use per_point_patterns for the pattern of every translation"
        )
    reference, *others = r.analysis.row_lengths
    for x, lengths in enumerate(others, start=1):
        if lengths != reference:
            raise ProfileConstancyError(
                f"translation patterns differ between points 0 and {x}"
            )
    return CycleProfile.from_cycle_lengths(reference)


def degree(r: RackTable) -> int:
    """Order of any translation of an indecomposable rack."""
    if not is_indecomposable(r):
        raise NotIndecomposable("degree is only defined for indecomposable racks")
    return math.lcm(*r.analysis.row_lengths[0])


def hayashi_holds_for(r: RackTable) -> bool:
    """True if every non-trivial profile length divides the largest one."""
    return hayashi_check(rack_profile(r))


def classify(r: RackTable) -> ClassFlags:
    """Evaluate every classification predicate on one table."""
    return ClassFlags(
        is_quandle=is_quandle(r),
        is_crossed_set=is_crossed_set(r),
        is_braided=is_braided(r),
        is_indecomposable=is_indecomposable(r),
        degree=math.lcm(*chain.from_iterable(r.analysis.row_lengths)),
    )
