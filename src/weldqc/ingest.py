"""File-based ingestion of raw weld inspection exports.

The expected input is a delimited text table (comma by default, tab
selectable) with a header row naming at least these seven columns (any
others are ignored):

    operator_id, weld_kind, schedule, nps, material, project_type,
    inspection_status

Inspection status coding: 0 = not inspected, 1 = inspected and passed,
2 = inspected and failed.  Parsing is permissive (bad rows are reported,
not dropped); `clean` enforces the invariants and reports every rejection.
Every required column is categorical, so an export repeats a few distinct
lines many times.  Ingest therefore carries a row count per distinct
WeldRecord (a NamedTuple of the seven required cells, in REQUIRED_COLUMNS
order), not one entry per row: one counting pass over the rows, then
`parse_records`, `clean`, `filter_records` and `summarize` all do work that
grows with the number of distinct records.  A distinct line costs one split
and one `_parse_row`, about 5.5 µs of Python on a 2-vCPU Xeon VM (with an
extra column such as a weld ID, csv reads the rows and each distinct set of
required cells is parsed once).  Lines are split directly up to the chunk
of lines that holds the first quote character, inner line break or line
longer than the csv field limit; from that chunk's first line on `csv`
reads the rest of the table, since a quoted field may span lines.  It reads
strictly: a quote left open at the end of the table, or text after a
closing quote, is a malformed table rather than rows run together into one
field.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from itertools import chain, compress, count, islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .errors import SchemaError, checked

REQUIRED_COLUMNS = (
    "operator_id",
    "weld_kind",
    "schedule",
    "nps",
    "material",
    "project_type",
    "inspection_status",
)

VALID_STATUSES = (0, 1, 2)

#: canonical key field order: NPS, schedule, material, weld kind (then operator)
KEY_FIELDS = ("nps", "schedule", "material", "weld_kind", "operator_id")

DEFAULT_GROUP_BY = ("nps", "schedule", "material", "weld_kind")

#: an export is read in chunks of lines of about this many bytes, or of rows
CHUNK_BYTES = 1 << 16
CHUNK_ROWS = 1 << 11


def normalize_nps(raw: str) -> str:
    """Treat NPS as a category label: '4.00' and '4' are the same size class."""
    text = raw.strip()
    if "." in text:
        try:
            float(text)
        except ValueError:
            return text
        text = text.rstrip("0").rstrip(".")
        if text in ("", "-"):
            text = "0"
    return text


class WeldRecord(NamedTuple):
    operator_id: str
    weld_kind: str
    schedule: str
    nps: str
    material: str
    project_type: str
    inspection_status: int | str  # raw token survives until `clean` validates it


class ParseIssue(NamedTuple):
    line: int
    message: str


class ParseResult(NamedTuple):
    counts: Counter  # rows per distinct WeldRecord, in first-seen order
    issues: list[ParseIssue]

    @property
    def records(self) -> list[WeldRecord]:
        """One record per row, grouped by record rather than in row order."""
        return list(self.counts.elements())


class RejectionReport(NamedTuple):
    """Counts of rows dropped by `clean`, keyed by reason."""

    reasons: Counter

    @property
    def dropped(self) -> int:
        return sum(self.reasons.values())


class GroupKey(NamedTuple):
    """A group's key fields, in KEY_FIELDS order; a field not grouped by is None."""

    nps: str | None = None
    schedule: str | None = None
    material: str | None = None
    weld_kind: str | None = None
    operator_id: str | None = None

    def as_dict(self) -> dict[str, str]:
        return {f: v for f, v in self._asdict().items() if v is not None}

    def sort_key(self) -> tuple[str, ...]:
        return tuple(v or "" for v in self)


@checked
class GroupSummary(NamedTuple):
    key: GroupKey
    total_welds: int
    inspected_welds: int
    repaired_welds: int

    def _check(self) -> None:
        if not (0 <= self.repaired_welds <= self.inspected_welds <= self.total_welds):
            raise SchemaError(
                f"summary counts out of order for {self.key}: "
                f"{self.repaired_welds} repaired, {self.inspected_welds} inspected, "
                f"{self.total_welds} total"
            )


@contextmanager
def open_table(source, name: str = "input") -> Iterator[TextIO]:
    """A text handle on `source`, with read and decode failures as SchemaError.

    A path is opened and closed here; a text handle the caller passes in
    stays open.  `name` says what the table is in the error messages.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8", newline="") as handle:
                yield handle
        else:
            yield source
    except OSError as exc:
        raise SchemaError(f"cannot read {name} {source}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{name} is not a valid UTF-8 table: {exc}")
    except csv.Error as exc:
        raise SchemaError(f"{name} is a malformed table: {exc}")


def parse_records(source, delimiter: str = ",") -> ParseResult:
    """Parse a delimited export into row counts per distinct WeldRecord.

    Structural problems (wrong field count) and non-integer status tokens are
    reported with their 1-based line numbers, in line order; the affected
    rows are kept so that `clean` can account for them explicitly.
    """
    with open_table(source) as handle:
        return _parse_rows(handle, delimiter)


def _parse_row(*cells: str) -> tuple[WeldRecord, str | None]:
    """One row's record, from its cells in REQUIRED_COLUMNS order, and its problem if any."""
    operator_id, weld_kind, schedule, nps, material, project_type, status = map(str.strip, cells)
    try:
        code, problem = int(status), None
    except ValueError:
        code, problem = status, f"unparseable inspection_status {status!r}"
    nps = normalize_nps(nps)
    return WeldRecord(operator_id, weld_kind, schedule, nps, material, project_type, code), problem


def _parse_rows(handle: TextIO, delimiter: str) -> ParseResult:
    header = next(csv.reader(handle, delimiter=delimiter, strict=True), None)
    if header is None:
        raise SchemaError("input is empty: expected a header row")
    names = [h.strip() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in names]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    width = len(names)
    required_cells = itemgetter(*(names.index(c) for c in REQUIRED_COLUMNS))
    limit = csv.field_size_limit()

    # Rows are counted per key, a value that fixes the row's outcome: the raw
    # line while only required columns are present, else the required cells
    # (so an extra unique column, a weld ID or a date, does not make every row
    # distinct), None for a blank row, or the field count of a short row.
    counts: Counter = Counter()
    records: dict = {}  # key -> its WeldRecord, or None
    problems: dict = {}  # key -> its ParseIssue message
    issues: list[ParseIssue] = []
    row_no = 2
    # required cells with some text (so not a blank row's), one object each
    seen: dict[tuple[str, ...], tuple[str, ...]] = {}

    def row_key(row: list[str]):
        if len(row) >= width and (cells := seen.get(required_cells(row))) is not None:
            return cells
        if not "".join(row).strip():
            return None
        if len(row) < width:
            return len(row)
        cells = required_cells(row)
        # blank cells may be a blank row's, so they do not go into `seen`
        return seen.setdefault(cells, cells) if "".join(cells).strip() else cells

    def outcome(key) -> tuple[WeldRecord | None, str | None]:
        if isinstance(key, str):  # a raw line: one split, and its cells need no interning
            row = key.rstrip("\r\n").split(delimiter)
            if not "".join(row).strip():
                return None, None
            key = required_cells(row) if len(row) >= width else len(row)
        if key is None:
            return None, None
        if isinstance(key, int):
            return None, f"expected {width} fields, got {key}"
        return _parse_row(*key)

    def plain(line: str) -> bool:
        """Whether a split reads the line as csv does (no quote, inner break or oversized field)."""
        text = line.rstrip("\r\n")
        return not ('"' in line or "\r" in text or "\n" in text or len(line) > limit)

    def tally(keys: list) -> bool:
        """Count `keys`; if one is a new raw line that csv must read, count none
        and return False, so csv reads them all."""
        nonlocal counts, row_no
        before = len(counts)
        counts.update(keys)
        fresh = list(islice(reversed(counts), len(counts) - before))
        if any(isinstance(key, str) and not plain(key) for key in fresh):
            counts -= Counter(keys)
            return False
        for key in fresh:
            records[key], problem = outcome(key)
            if problem is not None:
                problems[key] = problem
        if problems:
            for number in compress(count(row_no), map(problems.__contains__, keys)):
                issues.append(ParseIssue(number, problems[keys[number - row_no]]))
        row_no += len(keys)
        return True

    # one pass in bounded chunks, since a caller's handle need not be seekable
    lines: Iterable[str] = handle
    if set(names) <= set(REQUIRED_COLUMNS):
        for chunk in iter(lambda: handle.readlines(CHUNK_BYTES), []):
            if not tally(chunk):
                lines = chain(chunk, handle)
                break
    # csv reads a table with extra columns, or the rest from a chunk it must read
    reader = csv.reader(lines, delimiter=delimiter, strict=True)
    while keys := list(map(row_key, islice(reader, CHUNK_ROWS))):
        tally(keys)

    parsed: Counter = Counter()
    for key, rows in counts.items():
        if (record := records[key]) is not None:
            parsed[record] = parsed.get(record, 0) + rows
    return ParseResult(parsed, issues)


def _fields_getter(names: Sequence[str]):
    """A record's named fields as one tuple (attrgetter needs a name, and returns one field bare)."""
    if not names:
        return lambda record: ()
    getter = attrgetter(*names)
    return getter if len(names) > 1 else lambda record: (getter(record),)


def clean(counts: Mapping[WeldRecord, int]) -> tuple[Counter, RejectionReport]:
    """Drop records with blank key fields or a status outside {0, 1, 2}.

    Takes and returns row counts per distinct record.  Nothing is dropped
    silently: every rejected row increments a reason counter in the returned
    report.  Idempotent by construction.
    """
    kept = Counter(counts)
    reasons: Counter = Counter()
    for record, rows in counts.items():
        if not (record.schedule and record.nps and record.material):
            reasons["blank_field"] += rows
        elif record.inspection_status not in VALID_STATUSES:
            reasons["invalid_status"] += rows
        else:
            continue
        del kept[record]
    return kept, RejectionReport(reasons)


def filter_records(counts: Mapping[WeldRecord, int], **criteria: str) -> Counter:
    """Keep the row counts of records whose named fields equal the given values.

    Exposed for dataset-specific selections (e.g. project_type == '0' for
    fabrication work, weld_kind == 'BW') rather than hard-coding any of them.
    """
    unknown = set(criteria) - set(REQUIRED_COLUMNS)
    if unknown:
        raise SchemaError(f"unknown record field(s): {', '.join(sorted(unknown))}")

    values_of, wanted = _fields_getter(tuple(criteria)), tuple(criteria.values())
    return Counter({
        record: rows for record, rows in counts.items() if tuple(map(str, values_of(record))) == wanted
    })


def summarize(
    counts: Mapping[WeldRecord, int],
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
) -> list[GroupSummary]:
    """Aggregate row counts of cleaned records into one summary per group key.

    total = all rows in the group, inspected = rows with status 1 or 2,
    repaired = rows with status 2.  Output is sorted by key, so equal inputs
    in any order produce identical summaries.
    """
    bad = set(group_by) - set(KEY_FIELDS)
    if bad:
        raise SchemaError(f"cannot group by non-key field(s): {', '.join(sorted(bad))}")
    key_of = _fields_getter(group_by)
    groups: dict[tuple, list[int]] = {}
    for record, rows in counts.items():
        tally = groups.setdefault(key_of(record), [0, 0, 0])
        tally[0] += rows
        if record.inspection_status in (1, 2):
            tally[1] += rows
        if record.inspection_status == 2:
            tally[2] += rows
    summaries = [
        GroupSummary(GroupKey(**dict(zip(group_by, values))), *tally)
        for values, tally in groups.items()
    ]
    return sorted(summaries, key=lambda summary: summary.key.sort_key())


def filter_summaries(
    summaries: Iterable[GroupSummary], min_inspected: int = 0
) -> list[GroupSummary]:
    """Keep the summaries with at least `min_inspected` inspections."""
    if min_inspected < 0:
        raise SchemaError(f"min_inspected must be >= 0, got {min_inspected}")
    return [summary for summary in summaries if summary.inspected_welds >= min_inspected]
