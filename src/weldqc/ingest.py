"""File-based ingestion of raw weld inspection exports.

The expected input is a delimited text table (comma by default, tab
selectable) with a header row naming exactly these seven columns:

    operator_id, weld_kind, schedule, nps, material, project_type,
    inspection_status

Inspection status coding: 0 = not inspected, 1 = inspected and passed,
2 = inspected and failed.  Parsing is permissive (bad rows are reported,
not dropped); `clean` enforces the invariants and reports every rejection.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
class TableSchema:
    delimiter: str = ","


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


def _open_source(source):
    """A context that closes the handle only when it was opened here."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    if isinstance(source, bytes):
        return io.StringIO(source.decode("utf-8"))
    if isinstance(source, io.TextIOBase):
        return nullcontext(source)
    # binary file object
    return nullcontext(io.TextIOWrapper(source, encoding="utf-8", newline=""))


def parse_records(source, schema: TableSchema = TableSchema()) -> ParseResult:
    """Parse a delimited export into WeldRecords, preserving row order.

    Structural problems (wrong field count) and non-integer status tokens are
    reported with their 1-based line numbers; the affected rows are kept so
    that `clean` can account for them explicitly.  A path is opened and
    closed here; a handle the caller passes in stays open.
    """
    try:
        with _open_source(source) as handle:
            return _parse_rows(handle, schema)
    except OSError as exc:
        raise SchemaError(f"cannot read input {source}: {exc.strerror}")
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"input is not a valid UTF-8 table: {exc}")


def _parse_rows(handle: io.TextIOBase, schema: TableSchema) -> ParseResult:
    reader = csv.reader(handle, delimiter=schema.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input is empty: expected a header row")
    names = [h.strip() for h in header]
    missing = [c for c in REQUIRED_COLUMNS if c not in names]
    if missing:
        raise SchemaError(f"missing required column(s): {', '.join(missing)}")
    index = {c: names.index(c) for c in REQUIRED_COLUMNS}

    records: list[WeldRecord] = []
    issues: list[ParseIssue] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(names):
            issues.append(ParseIssue(line_no, f"expected {len(names)} fields, got {len(row)}"))
            continue
        raw_status = row[index["inspection_status"]].strip()
        try:
            status: int | str = int(raw_status)
        except ValueError:
            status = raw_status
            issues.append(ParseIssue(line_no, f"unparseable inspection_status {raw_status!r}"))
        records.append(
            WeldRecord(
                operator_id=row[index["operator_id"]].strip(),
                weld_kind=row[index["weld_kind"]].strip(),
                schedule=row[index["schedule"]].strip(),
                nps=normalize_nps(row[index["nps"]]),
                material=row[index["material"]].strip(),
                project_type=row[index["project_type"]].strip(),
                inspection_status=status,
            )
        )
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
    in any order produce identical summaries.
    """
    bad = set(group_by) - set(KEY_FIELDS)
    if bad:
        raise SchemaError(f"cannot group by non-key field(s): {', '.join(sorted(bad))}")
    groups: dict[GroupKey, list[int]] = {}
    for record in records:
        key = GroupKey(**{f: getattr(record, f) for f in group_by})
        counts = groups.setdefault(key, [0, 0, 0])
        counts[0] += 1
        if record.inspection_status in (1, 2):
            counts[1] += 1
        if record.inspection_status == 2:
            counts[2] += 1
    return [
        GroupSummary(key, total, inspected, repaired)
        for key, (total, inspected, repaired) in sorted(
            groups.items(), key=lambda item: item[0].sort_key()
        )
    ]


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
