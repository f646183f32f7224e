import csv
import io
import random
from collections import Counter
from operator import itemgetter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldqc import cli, ingest
from weldqc.errors import SchemaError
from weldqc.report import round_floats
from weldqc.ingest import (
    GroupKey,
    GroupSummary,
    clean,
    filter_records,
    filter_summaries,
    normalize_nps,
    parse_records,
    summarize,
    WeldRecord,
)

HEADER = "operator_id,weld_kind,schedule,nps,material,project_type,inspection_status"


def table(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join([HEADER, *rows]) + "\n")


def record(status=1, **overrides) -> WeldRecord:
    fields = dict(
        operator_id="7",
        weld_kind="BW",
        schedule="STD",
        nps="2",
        material="Material A",
        project_type="0",
        inspection_status=status,
    )
    fields.update(overrides)
    return WeldRecord(**fields)


class TestParse:
    def test_well_formed(self):
        result = parse_records(table("7,BW,STD,2,Material A,0,1", "8,BW,XS,4,Material A,0,2"))
        assert result.counts == Counter([record(status=1), record(operator_id="8", schedule="XS", nps="4", status=2)])
        assert result.issues == []
        assert len(result.records) == 2

    def test_header_only(self):
        result = parse_records(table())
        assert result.counts == Counter() and result.records == []

    def test_missing_column(self):
        bad = io.StringIO("operator_id,weld_kind\n7,BW\n")
        with pytest.raises(SchemaError, match="schedule"):
            parse_records(bad)

    def test_out_of_range_status_kept_for_cleaning(self):
        result = parse_records(table("7,BW,STD,2,Material A,0,3"))
        assert result.counts == Counter([record(status=3)])

    def test_unparseable_status_reported_with_line(self):
        result = parse_records(table("7,BW,STD,2,Material A,0,1", "8,BW,STD,2,Material A,0,oops"))
        assert result.counts.total() == 2
        assert [issue.line for issue in result.issues] == [3]

    def test_tab_delimiter(self):
        text = HEADER.replace(",", "\t") + "\n" + "7\tBW\tSTD\t2\tMaterial A\t0\t1\n"
        result = parse_records(io.StringIO(text), delimiter="\t")
        assert result.counts == Counter([record()])

    def test_nps_normalized(self):
        result = parse_records(table("7,BW,STD,4.00,Material A,0,1"))
        assert list(result.counts) == [record(nps="4")]


def test_record_contract():
    """A record holds the required cells in order, is immutable, and equal cells hash equal."""
    assert WeldRecord._fields == ingest.REQUIRED_COLUMNS
    with pytest.raises(AttributeError):
        record().nps = "4"
    cells = ("7", "BW", "STD", "4.00", "Material A", "0", "1")
    (first, _), (second, _) = ingest._parse_row(*cells), ingest._parse_row(*(f" {c} " for c in cells))
    assert first == second == record(nps="4") and hash(first) == hash(second)


class TestDistinctRows:
    """Each distinct row is parsed once, and its repeats are counted, not listed."""

    ROWS = ("7,BW,STD,2,Material A,0,1", "7,BW,STD,2,Material A,0,2", "8,SW,XS,4.0,Material B,0,0")

    def test_repeated_malformed_row_reported_on_each_line(self):
        good, bad = "7,BW,STD,2,Material A,0,1", "7,BW,STD,2,Material A,0,oops"
        result = parse_records(table(good, bad, good, bad, good, good, good, bad))
        assert [issue.line for issue in result.issues] == [3, 5, 9]
        assert {issue.message for issue in result.issues} == {"unparseable inspection_status 'oops'"}
        assert result.counts.total() == 8

    def test_repeats_share_one_record(self, monkeypatch):
        calls = []
        parse_row = ingest._parse_row
        monkeypatch.setattr(ingest, "_parse_row", lambda *cells: calls.append(cells) or parse_row(*cells))
        rows = [self.ROWS[i % 3] for i in range(3000)]
        result = parse_records(table(*rows))
        assert len(calls) == 3
        per_row = [
            record(operator_id=op, weld_kind=kind, schedule=sch, nps=normalize_nps(nps),
                   material=mat, project_type=pt, status=int(status))
            for op, kind, sch, nps, mat, pt, status in (row.split(",") for row in rows)
        ]
        assert result.counts == Counter(per_row)
        assert list(result.counts) == per_row[:3]  # first-seen order
        assert result.records == sorted(per_row, key=per_row.index)  # grouped by record
        (first, second) = summarize(result.counts)
        assert (first.total_welds, first.inspected_welds, first.repaired_welds) == (2000, 2000, 1000)
        assert (second.total_welds, second.inspected_welds, second.repaired_welds) == (1000, 0, 0)

    def test_extra_unique_column_ignored(self):
        rows = [*self.ROWS, "9,BW,STD,2,Material A,0,bad", ",BW,STD,2,Material A,0,1"] * 20
        plain = parse_records(table(*rows))
        text = f"weld_id,{HEADER}\n" + "".join(f"W{i},{row}\n" for i, row in enumerate(rows))
        with_ids = parse_records(io.StringIO(text))
        assert with_ids.counts == plain.counts
        assert list(with_ids.counts) == list(plain.counts)
        assert with_ids.issues == plain.issues
        assert len(with_ids.counts) == 5
        assert summarize(clean(with_ids.counts)[0]) == summarize(clean(plain.counts)[0])

    def test_blank_rows(self):
        text = HEADER + ",comment\n" + " , ,\t, , , , , \n" + ",,,,,,,note\n"
        result = parse_records(io.StringIO(text))
        assert result.counts.total() == 1
        assert [issue.line for issue in result.issues] == [3]
        kept, report = clean(result.counts)
        assert kept == Counter() and report.reasons == {"blank_field": 1}

    @pytest.mark.parametrize("chunk_bytes", [1, 40, 1 << 20])
    def test_chunk_size_does_not_matter(self, monkeypatch, chunk_bytes):
        rows = [self.ROWS[i % 3] for i in range(40)] + ["7,BW", "7,BW,STD,2,Material A,0,x"] * 3
        rows += ['7,BW,STD,2,"Material A",0,1', *self.ROWS]  # csv reads from the quote on
        text = f"weld_id,{HEADER}\n" + "".join(f"W{i},{row}\n" for i, row in enumerate(rows))
        expected = parse_records(io.StringIO(text)), parse_records(table(*rows))
        monkeypatch.setattr(ingest, "CHUNK_BYTES", chunk_bytes)
        monkeypatch.setattr(ingest, "CHUNK_ROWS", max(1, chunk_bytes // 40))
        assert (parse_records(io.StringIO(text)), parse_records(table(*rows))) == expected
        assert [issue.line for issue in expected[0].issues] == [42, 43, 44, 45, 46, 47]


def csv_loop_parse(source, delimiter=","):
    """The csv row loop the line-keyed parser replaced, kept as its oracle."""
    with ingest.open_table(source) as handle:
        reader = csv.reader(handle, delimiter=delimiter, strict=True)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("input is empty: expected a header row")
        names = [h.strip() for h in header]
        missing = [c for c in ingest.REQUIRED_COLUMNS if c not in names]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        required_cells = itemgetter(*(names.index(c) for c in ingest.REQUIRED_COLUMNS))
        records, issues = [], []
        for line_no, row in enumerate(reader, start=2):
            if not "".join(row).strip():
                continue
            if len(row) < len(names):
                issues.append((line_no, f"expected {len(names)} fields, got {len(row)}"))
                continue
            record, problem = ingest._parse_row(*required_cells(row))
            if problem is not None:
                issues.append((line_no, problem))
            records.append(tuple(record))
        return records, issues


def small_chunks(size: int):
    """Read exports `size` bytes of lines (or size // 32 rows) at a time."""
    rows = max(1, size // 32)
    return patch.multiple(ingest, CHUNK_BYTES=size, CHUNK_ROWS=min(rows, ingest.CHUNK_ROWS))


def outcome(parse, source, delimiter):
    """Row counts per record tuple and issues as (line, message), or the SchemaError message."""
    try:
        result = parse(source, delimiter)
    except SchemaError as exc:
        return "error", str(exc)
    if isinstance(result, ingest.ParseResult):
        counts = Counter({tuple(r): rows for r, rows in result.counts.items()})
        return counts, [(i.line, i.message) for i in result.issues]
    records, issues = result
    return Counter(records), issues


@st.composite
def export_tables(draw):
    """(text, delimiter, field size limit) of a table that csv and a plain split may read differently."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    terminators = st.sampled_from(["\n", "\r\n", "\r"])
    cell = st.sampled_from([
        "7", " 8 ", "BW", "STD", "4.00", "Material A", "0", "1", "2", "oops", "", " ",
        "a\x00b", f'"M{delimiter}A"', '"two\nlines"', '"q""q"', 'a"b', "x" * 25,
        # int() and normalize_nps read these unlike a string shortcut would
        "+2", "1_0", "\u0662", "\uff10", "4.", "04.50", "-0.0",
    ])
    width = len(ingest.REQUIRED_COLUMNS)
    # an extra column's ID goes into every "row", so blank required cells
    # there make a row that is not blank; "blank" rows stay blank
    kinds = st.one_of(
        st.lists(cell, min_size=width, max_size=width + 1).map(lambda cells: ("row", cells)),
        st.lists(cell, max_size=width - 1).map(lambda cells: ("row", cells)),
        st.just(("row", [" "] * width)),
        st.sampled_from([[], [" "], [""] * width, [" "] * (width + 1), [" ", "\t "]]).map(
            lambda cells: ("blank", cells)
        ),
    )
    distinct = draw(st.lists(st.tuples(kinds, terminators), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=40))
    names = list(ingest.REQUIRED_COLUMNS)
    extra = draw(st.none() | st.integers(0, width))
    if extra is not None:
        names.insert(extra, "weld_id")
    lines = [delimiter.join(names) + draw(terminators)]
    for number, pick in enumerate(picks):
        (kind, cells), terminator = distinct[pick]
        if extra is not None and kind == "row":
            cells = [*cells[:extra], f"W{number}", *cells[extra:]]
        lines.append(delimiter.join(cells) + terminator)
    if draw(st.booleans()):  # the last line may end without a terminator
        lines[-1] = lines[-1].rstrip("\r\n")
    limit = draw(st.sampled_from([csv.field_size_limit(), 20]))
    return "".join(lines), delimiter, limit


class TestLineKeyedParse:
    """parse_records counts every table's rows and reports its issues as the csv row loop does."""

    @settings(max_examples=300, deadline=None)
    @given(
        table=export_tables(),
        source=st.sampled_from(["path", "stringio", "stringio-raw", "handle-cr"]),
        chunk=st.sampled_from([1, 64, ingest.CHUNK_BYTES]),
    )
    def test_equals_csv_loop(self, table, source, chunk, tmp_path_factory):
        text, delimiter, limit = table
        path = tmp_path_factory.mktemp("export") / "export.csv"
        path.write_bytes(text.encode("utf-8"))

        def parsed(parse):
            if source == "path":
                return outcome(parse, path, delimiter)
            if source == "handle-cr":  # lines end at "\r" only, so a "\n" can sit inside one
                with open(path, encoding="utf-8", newline="\r") as handle:
                    return outcome(parse, handle, delimiter)
            newline = "" if source == "stringio-raw" else "\n"
            return outcome(parse, io.StringIO(text, newline=newline), delimiter)

        previous = csv.field_size_limit(limit)
        try:
            with small_chunks(chunk):
                assert parsed(parse_records) == parsed(csv_loop_parse)
        finally:
            csv.field_size_limit(previous)

    @pytest.mark.parametrize("row,error", [
        ('7,BW,"STD,2,Material A,0,1', "unexpected end of data"),
        ('7,BW,"STD" ,2,Material A,0,1', "',' expected after '\"'"),
    ])
    def test_bad_quoting_is_a_malformed_table(self, row, error):
        """A quote left open would otherwise run every later row into one field."""
        rows = ["7,BW,STD,2,Material A,0,1"] * 3
        with pytest.raises(SchemaError, match=f"input is a malformed table: {error}"):
            parse_records(table(rows[0], row, *rows))

    def test_field_over_limit_is_a_malformed_table(self):
        text = table("7,BW,STD,2," + "x" * (csv.field_size_limit() + 1) + ",0,1")
        with pytest.raises(SchemaError, match="input is a malformed table: field larger than field limit"):
            parse_records(text)


@pytest.mark.parametrize(
    "raw,expected",
    [("4.00", "4"), ("12.0", "12"), ("0.75", "0.75"), ("2", "2"), ("STD", "STD"), (" 3.50 ", "3.5")],
)
def test_normalize_nps(raw, expected):
    assert normalize_nps(raw) == expected


class TestClean:
    def test_blank_field_dropped(self):
        kept, report = clean(Counter({record(schedule=""): 3}))
        assert kept == Counter()
        assert report.reasons == {"blank_field": 3}

    def test_failed_status_kept(self):
        kept, report = clean(Counter([record(status=2)]))
        assert kept.total() == 1 and report.dropped == 0

    def test_invalid_status_dropped(self):
        kept, report = clean(Counter({record(status=3): 2, record(status="oops"): 1}))
        assert kept == Counter()
        assert report.reasons == {"invalid_status": 3}

    def test_identity_on_valid_input(self):
        counts = Counter({record(status=s): s + 1 for s in (0, 1, 2)})
        kept, report = clean(counts)
        assert kept == counts and list(kept) == list(counts) and report.dropped == 0

    def test_idempotent(self):
        counts = Counter({record(): 4, record(nps=""): 2, record(status=9): 1})
        once, report = clean(counts)
        twice, second_report = clean(once)
        assert twice == once == Counter({record(): 4}) and report.dropped == 3
        assert second_report.dropped == 0


class TestSummarize:
    def test_status_definitions(self):
        (summary,) = summarize(Counter({record(status=0): 3, record(status=1): 2, record(status=2): 1}))
        assert (summary.total_welds, summary.inspected_welds, summary.repaired_welds) == (6, 3, 1)

    def test_uninspected_group(self):
        summaries = summarize(Counter({record(status=0): 4}))
        assert summaries[0].total_welds == 4
        assert summaries[0].inspected_welds == 0
        assert summaries[0].repaired_welds == 0

    def test_operator_grouping(self):
        counts = Counter([record(operator_id="a"), record(operator_id="b")])
        summaries = summarize(counts, group_by=("nps", "schedule", "material", "weld_kind", "operator_id"))
        assert len(summaries) == 2

    def test_permutation_invariance(self):
        counts = [
            (record(status=s, nps=n, operator_id=op), 1 + s)
            for s in (0, 1, 2)
            for n in ("2", "4")
            for op in ("a", "b", "c")
        ]
        shuffled = counts[:]
        random.Random(5).shuffle(shuffled)
        assert summarize(Counter(dict(counts))) == summarize(Counter(dict(shuffled)))

    def test_totals_partition_the_records(self):
        counts = Counter(record(nps=n, status=s) for n in ("2", "4", "6") for s in (0, 1, 2, 1))
        summaries = summarize(counts)
        assert sum(s.total_welds for s in summaries) == counts.total() == 12

    def test_one_or_no_group_field(self):
        counts = Counter({record(nps="2"): 2, record(nps="4", status=2): 1})
        by_nps = summarize(counts, group_by=("nps",))
        assert [(s.key, s.total_welds) for s in by_nps] == [(GroupKey(nps="2"), 2), (GroupKey(nps="4"), 1)]
        (overall,) = summarize(counts, group_by=())
        assert (overall.key, overall.total_welds, overall.repaired_welds) == (GroupKey(), 3, 1)

    def test_rejects_unknown_group_field(self):
        with pytest.raises(SchemaError):
            summarize(Counter([record()]), group_by=("nope",))

    def test_count_invariant_enforced(self):
        with pytest.raises(SchemaError):
            GroupSummary(GroupKey(nps="2"), total_welds=1, inspected_welds=2, repaired_welds=0)


@settings(max_examples=50)
@given(
    statuses=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=60),
    nps=st.sampled_from(["2", "4", "6"]),
)
def test_summary_counts_are_consistent(statuses, nps):
    (summary,) = summarize(Counter(record(status=s, nps=nps) for s in statuses))
    assert summary.repaired_welds <= summary.inspected_welds <= summary.total_welds
    assert summary.total_welds == len(statuses)
    assert summary.inspected_welds == sum(1 for s in statuses if s in (1, 2))
    assert summary.repaired_welds == statuses.count(2)


class TestFilters:
    def test_filter_records_by_field(self):
        counts = Counter({record(project_type="0"): 3, record(project_type="1"): 2, record(status=2): 1})
        assert filter_records(counts, project_type="0") == Counter({record(): 3, record(status=2): 1})
        assert filter_records(counts, project_type="0", inspection_status="2") == Counter([record(status=2)])
        assert filter_records(counts) == counts

    def test_filter_records_unknown_field(self):
        with pytest.raises(SchemaError):
            filter_records(Counter([record()]), colour="red")

    def test_min_inspected_threshold(self):
        summaries = summarize(
            Counter({record(operator_id="a"): 100, record(operator_id="b"): 99}),
            group_by=("nps", "schedule", "material", "weld_kind", "operator_id"),
        )
        surviving = filter_summaries(summaries, min_inspected=100)
        assert [s.key.operator_id for s in surviving] == ["a"]

    def test_threshold_zero_is_identity(self):
        summaries = summarize(Counter([record()]))
        assert filter_summaries(summaries, min_inspected=0) == summaries

    def test_unreachable_threshold(self):
        assert filter_summaries(summarize(Counter([record()])), min_inspected=10) == []

    def test_key_filter(self):
        # a key is selected on the records, before they are summarized
        kept = summarize(filter_records(Counter([record(nps="2"), record(nps="4")]), nps="2"))
        assert len(kept) == 1 and kept[0].key.nps == "2"


@st.composite
def loaded_exports(draw):
    """(text, --where pairs, group_by) of an export with repeats, blank, short and bad rows."""
    width = len(ingest.REQUIRED_COLUMNS)
    cells = [
        ["7", " 8 ", "9"], ["BW", "SW"], ["STD", "", "XS"], ["2", "4.00", "4", ""],
        ["Material A", " "], ["0", "1"], ["0", "1", "2", "9", "x"],
    ]
    full = st.tuples(*(st.sampled_from(c) for c in cells)).map(list)
    kinds = st.one_of(
        full.map(lambda row: ("row", row)),
        full.map(lambda row: ("row", row[: len(row) - 3])),  # short
        st.sampled_from([[], [" "], [""] * width]).map(lambda row: ("blank", row)),
    )
    distinct = draw(st.lists(kinds, min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=60))
    names = list(ingest.REQUIRED_COLUMNS)
    extra = draw(st.none() | st.integers(0, width))
    if extra is not None:
        names.insert(extra, "weld_id")
    lines = [",".join(names)]
    for number, pick in enumerate(picks):
        kind, row = distinct[pick]
        if extra is not None and kind == "row":
            row = [*row[:extra], f"W{number}", *row[extra:]]
        lines.append(",".join(row))
    fields = st.sampled_from(["nps", "schedule", "operator_id", "inspection_status", "project_type"])
    values = st.sampled_from(["2", "4.0", "STD", "7", " 8 ", "1", "0"])
    where = draw(st.dictionaries(fields, values, max_size=2))
    group_by = draw(st.sampled_from([
        ingest.DEFAULT_GROUP_BY, (*ingest.DEFAULT_GROUP_BY, "operator_id"), ("nps",),
        ("operator_id", "material"),
    ]))
    return "\n".join(lines) + "\n", [f"{f}={v}" for f, v in where.items()], group_by


def per_row_load(text, where, group_by):
    """What _load_summaries reports, from a plain loop over the rows."""
    header, *rows = list(csv.reader(io.StringIO(text)))
    names = [h.strip() for h in header]
    wanted = {}
    for pair in where:
        field, value = (part.strip() for part in pair.split("="))
        wanted[field] = normalize_nps(value) if field == "nps" else value
    issues, rejections, groups = [], Counter(), {}
    parsed = kept = 0
    for line, row in enumerate(rows, start=2):
        if not "".join(row).strip():
            continue
        if len(row) < len(names):
            issues.append({"line": line, "message": f"expected {len(names)} fields, got {len(row)}"})
            continue
        values = {name: row[names.index(name)].strip() for name in ingest.REQUIRED_COLUMNS}
        values["nps"] = normalize_nps(values["nps"])
        parsed += 1
        status = values["inspection_status"]
        if status not in ("0", "1", "2", "9"):
            issues.append({"line": line, "message": f"unparseable inspection_status {status!r}"})
        if not (values["schedule"] and values["nps"] and values["material"]):
            rejections["blank_field"] += 1
        elif status not in ("0", "1", "2"):
            rejections["invalid_status"] += 1
        elif all(values[field] == value for field, value in wanted.items()):
            kept += 1
            tally = groups.setdefault(tuple(values[f] for f in group_by), [0, 0, 0])
            tally[0] += 1
            tally[1] += status in ("1", "2")
            tally[2] += status == "2"
    summaries = [(dict(zip(group_by, key)), *tally) for key, tally in groups.items()]
    summaries.sort(key=lambda s: tuple(s[0].get(f, "") for f in ingest.KEY_FIELDS))
    info = {
        "rows_parsed": parsed,
        "parse_issues": issues,
        "rejections": dict(sorted(rejections.items())),
        "rows_kept": kept,
    }
    return summaries, info


@settings(max_examples=150, deadline=None)
@given(export=loaded_exports(), chunk=st.sampled_from([1, 64, ingest.CHUNK_BYTES]))
def test_load_summaries_equals_per_row_loop(export, chunk):
    text, where, group_by = export
    resolved = {
        "input": io.StringIO(text, newline=""), "delimiter": ",",
        "where": cli._where(where), "group_by": list(group_by),
    }
    with small_chunks(chunk):
        summaries, info = cli._load_summaries(resolved)
    expected_summaries, expected_info = per_row_load(text, where, group_by)
    # as written: ParseIssue records as mappings, the reasons Counter as a dict
    assert round_floats(info) == expected_info
    got = [(s.key.as_dict(), s.total_welds, s.inspected_welds, s.repaired_welds) for s in summaries]
    assert got == expected_summaries
