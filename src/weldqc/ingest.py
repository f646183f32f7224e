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
lines many times.  Each distinct line is split and parsed once (with an
extra column such as a weld ID, each distinct set of required cells is
parsed once), and its repeats share one WeldRecord, which `summarize`
counts by identity.  Lines are split directly up to the first quote
character, inner carriage return or line longer than the csv field limit;
from there on `csv` reads the rest of the table, since a quoted field may
span lines.
"""

from __future__ import annotations

import csv
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import SchemaError

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


@dataclass(frozen=True)
class WeldRecord:
    operator_id: str
    weld_kind: str
    schedule: str
    nps: str
    material: str
    project_type: str
    inspection_status: int | str  # raw token survives until `clean` validates it


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


@dataclass
class ParseResult:
    records: list[WeldRecord]
    issues: list[ParseIssue] = field(default_factory=list)


@dataclass
class RejectionReport:
    """Counts of rows dropped by `clean`, keyed by reason."""

    reasons: Counter = field(default_factory=Counter)

    @property
    def dropped(self) -> int:
        return sum(self.reasons.values())

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self.reasons.items()))


@dataclass(frozen=True, order=True)
class GroupKey:
    nps: str | None = None
    schedule: str | None = None
    material: str | None = None
    weld_kind: str | None = None
    operator_id: str | None = None

    def as_dict(self) -> dict[str, str]:
        return {f: v for f in KEY_FIELDS if (v := getattr(self, f)) is not None}

    def sort_key(self) -> tuple[str, ...]:
        return tuple(getattr(self, f) or "" for f in KEY_FIELDS)


@dataclass(frozen=True)
class GroupSummary:
    key: GroupKey
    total_welds: int
    inspected_welds: int
    repaired_welds: int

    def __post_init__(self) -> None:
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
    """Parse a delimited export into WeldRecords, preserving row order.

    Structural problems (wrong field count) and non-integer status tokens are
    reported with their 1-based line numbers; the affected rows are kept so
    that `clean` can account for them explicitly.
    """
    with open_table(source) as handle:
        return _parse_rows(handle, delimiter)


def _parse_row(*cells: str) -> tuple[WeldRecord, str | None]:
    """One row's record, from its cells in REQUIRED_COLUMNS order, and its problem if any."""
    operator_id, weld_kind, schedule, nps, material, project_type, status = (c.strip() for c in cells)
    fields = (operator_id, weld_kind, schedule, normalize_nps(nps), material, project_type)
    try:
        code = int(status)
    except ValueError:
        return WeldRecord(*fields, status), f"unparseable inspection_status {status!r}"
    return WeldRecord(*fields, code), None


def _parse_rows(handle: TextIO, delimiter: str) -> ParseResult:
    lines = iter(handle)
    header = next(csv.reader(lines, delimiter=delimiter), None)
    if header is None:
        raise SchemaError("input is empty: expected a header row")
    names = [h.strip() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in names]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    required_cells = itemgetter(*(names.index(c) for c in REQUIRED_COLUMNS))

    # keyed on the required cells only, so an extra unique column (a weld ID,
    # a date) does not make every row distinct
    parsed: dict[tuple[str, ...], tuple[WeldRecord, str | None]] = {}

    def outcome(row: list[str]) -> tuple[WeldRecord | None, str | None]:
        """A row's record (None for a blank or short row) and its problem if any."""
        if len(row) >= len(names):
            cells = required_cells(row)
            found = parsed.get(cells)
            if found is not None:
                return found
        if not "".join(row).strip():
            return None, None
        if len(row) < len(names):
            return None, f"expected {len(names)} fields, got {len(row)}"
        found = _parse_row(*cells)
        # a row is blank when all its cells are, so only cells with some text
        # decide the outcome on their own
        if "".join(cells).strip():
            parsed[cells] = found
        return found

    # A line fixes its outcome, so with only required columns the raw line is
    # the key; with an extra unique column almost every line is distinct and
    # the line cache would only grow, so it stays empty.
    by_line: dict[str, tuple[WeldRecord | None, str | None]] = {}
    keyed = set(names) <= set(REQUIRED_COLUMNS)
    limit = csv.field_size_limit()

    def outcomes() -> Iterator[tuple[WeldRecord | None, str | None]]:
        for line in lines:
            result = by_line.get(line)
            if result is None:
                text = line.rstrip("\r\n")
                # csv would split these differently: a quoted field may span
                # lines, an inner line break is an error, so is an oversized field
                if '"' in line or "\r" in text or "\n" in text or len(line) > limit:
                    break
                result = outcome(text.split(delimiter))
                if keyed:
                    by_line[line] = result
            yield result
        else:
            return
        for row in csv.reader(chain([line], lines), delimiter=delimiter):
            yield outcome(row)

    records: list[WeldRecord] = []
    issues: list[ParseIssue] = []
    for line_no, (record, problem) in enumerate(outcomes(), start=2):
        if problem is not None:
            issues.append(ParseIssue(line_no, problem))
        if record is not None:
            records.append(record)
    return ParseResult(records=records, issues=issues)


def clean(records: Iterable[WeldRecord]) -> tuple[list[WeldRecord], RejectionReport]:
    """Drop rows with blank key fields or a status outside {0, 1, 2}.

    Nothing is dropped silently: every rejection increments a reason counter
    in the returned report.  Idempotent by construction.
    """
    kept: list[WeldRecord] = []
    report = RejectionReport()
    for record in records:
        if not (record.schedule and record.nps and record.material):
            report.reasons["blank_field"] += 1
            continue
        if record.inspection_status not in VALID_STATUSES:
            report.reasons["invalid_status"] += 1
            continue
        kept.append(record)
    return kept, report


def filter_records(records: Iterable[WeldRecord], **criteria: str) -> list[WeldRecord]:
    """Keep records whose named fields equal the given values.

    Exposed for dataset-specific selections (e.g. project_type == '0' for
    fabrication work, weld_kind == 'BW') rather than hard-coding any of them.
    """
    unknown = set(criteria) - set(REQUIRED_COLUMNS)
    if unknown:
        raise SchemaError(f"unknown record field(s): {', '.join(sorted(unknown))}")
    out = list(records)
    for fname, value in criteria.items():
        out = [r for r in out if str(getattr(r, fname)) == value]
    return out


def summarize(
    records: Iterable[WeldRecord],
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
) -> list[GroupSummary]:
    """Aggregate cleaned records into one summary per distinct group key.

    total = all rows in the group, inspected = rows with status 1 or 2,
    repaired = rows with status 2.  Output is sorted by key, so equal inputs
    in any order produce identical summaries.  Records are counted by
    identity first, so past one pass the work grows with the number of
    distinct record objects.
    """
    bad = set(group_by) - set(KEY_FIELDS)
    if bad:
        raise SchemaError(f"cannot group by non-key field(s): {', '.join(sorted(bad))}")
    records = list(records)
    by_id = dict(zip(map(id, records), records))
    groups: dict[tuple, list[int]] = {}
    # parsed repeats share one object, so counting identities (not hashing
    # every dataclass) finds the distinct records; equal records that are
    # separate objects still land in the same group
    for ident, count in Counter(map(id, records)).items():
        record = by_id[ident]
        counts = groups.setdefault(tuple(getattr(record, f) for f in group_by), [0, 0, 0])
        counts[0] += count
        if record.inspection_status in (1, 2):
            counts[1] += count
        if record.inspection_status == 2:
            counts[2] += count
    summaries = [
        GroupSummary(GroupKey(**dict(zip(group_by, values))), *counts)
        for values, counts in groups.items()
    ]
    return sorted(summaries, key=lambda summary: summary.key.sort_key())


def filter_summaries(
    summaries: Iterable[GroupSummary],
    key_filter: Mapping[str, str] | None = None,
    min_inspected: int = 0,
) -> list[GroupSummary]:
    """Keep summaries matching the key filter with at least `min_inspected` inspections."""
    if min_inspected < 0:
        raise SchemaError(f"min_inspected must be >= 0, got {min_inspected}")
    key_filter = key_filter or {}
    unknown = set(key_filter) - set(KEY_FIELDS)
    if unknown:
        raise SchemaError(f"unknown key field(s): {', '.join(sorted(unknown))}")
    out = []
    for summary in summaries:
        if summary.inspected_welds < min_inspected:
            continue
        if all(getattr(summary.key, f) == v for f, v in key_filter.items()):
            out.append(summary)
    return out
