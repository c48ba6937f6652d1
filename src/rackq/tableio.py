"""Plain-text table files and JSON report serialization.

Table files are 1-based for compatibility with published quandle
matrices: lines starting with '#' are comments, the first non-comment
line is the order n, and the next n lines hold n whitespace-separated
entries each, line x giving the images of 1..n under x.  Body lines go
through one lookup of the numerals per order; a line it misses (a leading
zero, say) is read token by token.  Internally everything is 0-based.

Reports serialize to JSON with a fixed field order, so identical inputs
always produce identical bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from itertools import repeat
from operator import itemgetter, sub

from .core import RackTable, _checked_rack, check_carrier_size, validate
from .enumeration import CensusReport
from .errors import RackError
from .obstructions import ObstructionVerdict
from .perm import CycleProfile


class TableParseError(RackError):
    """A table file failed to parse; carries the 1-based location."""

    def __init__(self, message: str, line: int, col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}" if col is None else f"line {line}, column {col}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class TableDocument:
    """A parsed table file: 1-based rows plus optional annotations."""

    order: int
    rows: tuple[tuple[int, ...], ...]
    name: str | None = None
    source: str | None = None

    def to_rack(self) -> RackTable:
        """Shift to 0-based and run full axiom validation.

        A row is one gather over a dict of 1..n, so an n x n table comes out
        as ints in 0..n-1 and goes straight to the axiom check, past
        :func:`validate`'s input gate.  A hand-built table with an entry
        outside 1..n, of the wrong shape or of order 1 (a scalar gather) is
        shifted entry by entry, so :func:`validate` reports the fault.
        """
        n, rows = self.order, self.rows
        if 1 < n == len(rows):
            shift = dict(zip(range(1, n + 1), range(n)))
            try:
                square = set(map(len, rows)) == {n}
                shifted = tuple(itemgetter(*row)(shift) for row in rows)
            except (KeyError, TypeError):
                square = False
            if square:
                return _checked_rack(n, shifted)
        return validate(n, [tuple(map(sub, row, repeat(1))) for row in rows])


def parse_table(text: str) -> TableDocument:
    """Parse the plain-text table format into a document.

    Recognizes '# name:' and '# source:' comments as annotations; other
    comments and blank lines are ignored.  The order goes through
    :func:`rackq.core.check_carrier_size`.  After the row count, a lookup
    of the numerals "1".."n" reads each body line; a line it misses goes
    token by token, which accepts leading zeros and locates a bad entry.
    """
    name = None
    source = None
    data: list[tuple[int, str]] = []
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
        raise TableParseError("missing order line", line=1)
    head_line, head = data[0]
    if not (head.isascii() and head.isdigit()):
        raise TableParseError(f"order line must be a positive integer, got {head!r}", head_line)
    digits = head.lstrip("0") or "0"
    try:
        check_carrier_size(n := int(digits))
    except RackError as exc:  # below 1, or over the table budget
        raise TableParseError(str(exc), head_line) from None
    except ValueError:  # more digits than int() reads
        raise TableParseError(
            f"order line has {len(digits)} digits, too many to read", head_line
        ) from None
    body = data[1:]
    if len(body) != n:
        reported = body[-1][0] if body else head_line
        raise TableParseError(f"expected {n} table rows, found {len(body)}", reported)
    lookup = {str(v): v for v in range(1, n + 1)}
    width = len(str(n))
    rows = []
    for lineno, line in body:
        tokens = line.split()
        if len(tokens) != n:
            raise TableParseError(f"expected {n} entries, found {len(tokens)}", lineno)
        # One gather reads the line; at order 1 it would return a scalar.
        if n > 1:
            try:
                rows.append(itemgetter(*tokens)(lookup))
                continue
            except KeyError:
                pass
        entries = []
        for col, token in enumerate(tokens, start=1):
            if not (token.isascii() and token.isdigit()):
                raise TableParseError(f"bad integer {token!r}", lineno, col)
            # Without its leading zeros, a numeral wider than n's is out of
            # range; it is reported without int(), which refuses numerals
            # of thousands of digits.
            digits = token.lstrip("0") or "0"
            if len(digits) > width or not 1 <= (value := int(digits)) <= n:
                raise TableParseError(f"entry {digits} outside 1..{n}", lineno, col)
            entries.append(value)
        rows.append(tuple(entries))
    return TableDocument(n, tuple(rows), name, source)


def load_table(text: str) -> RackTable:
    """Parse and validate in one step."""
    return parse_table(text).to_rack()


def emit_table(table, name: str | None = None, source: str | None = None) -> str:
    """Render a table (RackTable or TableDocument) in the file format.

    ``name`` and ``source`` are written stripped, and left out when
    nothing is left; one that spans lines raises :class:`RackError`.  The
    output round-trips exactly through :func:`parse_table`.  A rack's rows
    go through a dict of its numerals, so an unvalidated entry outside
    0..n-1 raises KeyError rather than writing another point's numeral.
    """
    if isinstance(table, TableDocument):
        doc = table
        name = name if name is not None else doc.name
        source = source if source is not None else doc.source
        rows = (map(str, row) for row in doc.rows)
        n = doc.order
    else:
        n = table.n
        numerals = dict(zip(range(n), map(str, range(1, n + 1))))
        rows = (map(numerals.__getitem__, row) for row in table.rows)
    lines = []
    for key, value in (("name", name), ("source", source)):
        value = (value or "").strip()
        if len(value.splitlines()) > 1:
            raise RackError(f"table {key} must fit on one line, got {value!r}")
        if value:
            lines.append(f"# {key}: {value}")
    lines.append(str(n))
    lines.extend(map(" ".join, rows))
    return "\n".join(lines) + "\n"


def report_object(value):
    """One level of a domain value as JSON data.

    A dataclass becomes an object of its fields in declaration order; verdicts,
    and the types whose JSON is not their fields, have a branch of their own.
    :func:`emit_report` hands this to the shared encoder, which calls it for
    each value it cannot encode itself and encodes what it returns.
    """
    if isinstance(value, ObstructionVerdict):
        return {"kind": value.kind, "scope": value.scope, "witness": value.witness,
                "rules_consulted": value.rules_consulted}
    if isinstance(value, CycleProfile):
        return {
            "m0": value.m0,
            "lengths": list(value.moving_lengths()),
            "mults": list(value.moving_mults()),
        }
    if isinstance(value, CensusReport):
        filt = value.filters
        return {
            "order": value.order,
            "filters": {
                "quandle": filt.require_quandle,
                "crossed_set": filt.require_crossed_set,
                "braided": filt.require_braided,
                "indecomposable": filt.require_indecomposable,
            },
            "total_up_to_iso": value.total_up_to_iso,
            "total_labelled": value.total_labelled,
            "histogram": {k: value.histogram[k] for k in sorted(value.histogram)},
        }
    if isinstance(value, frozenset):
        return sorted(value)
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_ENCODER = json.JSONEncoder(default=report_object, separators=(",", ":"))  # json.dumps's settings


def emit_report(value) -> str:
    """Serialize a domain value as compact JSON with stable field order."""
    return _ENCODER.encode(value)
