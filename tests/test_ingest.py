import csv
import io
import random
from dataclasses import astuple
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldqc import ingest
from weldqc.errors import SchemaError
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
        assert len(result.records) == 2
        assert result.issues == []
        assert result.records[0].inspection_status == 1

    def test_header_only(self):
        assert parse_records(table()).records == []

    def test_missing_column(self):
        bad = io.StringIO("operator_id,weld_kind\n7,BW\n")
        with pytest.raises(SchemaError, match="schedule"):
            parse_records(bad)

    def test_out_of_range_status_kept_for_cleaning(self):
        result = parse_records(table("7,BW,STD,2,Material A,0,3"))
        assert len(result.records) == 1
        assert result.records[0].inspection_status == 3

    def test_unparseable_status_reported_with_line(self):
        result = parse_records(table("7,BW,STD,2,Material A,0,1", "8,BW,STD,2,Material A,0,oops"))
        assert len(result.records) == 2
        assert [issue.line for issue in result.issues] == [3]

    def test_tab_delimiter(self):
        text = HEADER.replace(",", "\t") + "\n" + "7\tBW\tSTD\t2\tMaterial A\t0\t1\n"
        result = parse_records(io.StringIO(text), delimiter="\t")
        assert len(result.records) == 1

    def test_nps_normalized(self):
        result = parse_records(table("7,BW,STD,4.00,Material A,0,1"))
        assert result.records[0].nps == "4"


class TestDistinctRows:
    """Each distinct row is parsed once; its repeats share one record."""

    ROWS = ("7,BW,STD,2,Material A,0,1", "7,BW,STD,2,Material A,0,2", "8,SW,XS,4.0,Material B,0,0")

    def test_repeated_malformed_row_reported_on_each_line(self):
        good, bad = "7,BW,STD,2,Material A,0,1", "7,BW,STD,2,Material A,0,oops"
        result = parse_records(table(good, bad, good, bad, good, good, good, bad))
        assert [issue.line for issue in result.issues] == [3, 5, 9]
        assert {issue.message for issue in result.issues} == {"unparseable inspection_status 'oops'"}
        assert len(result.records) == 8

    def test_repeats_share_one_record(self, monkeypatch):
        calls = []
        parse_row = ingest._parse_row
        monkeypatch.setattr(ingest, "_parse_row", lambda *cells: calls.append(cells) or parse_row(*cells))
        rows = [self.ROWS[i % 3] for i in range(3000)]
        records = parse_records(table(*rows)).records
        assert len(records) == 3000
        assert len({id(r) for r in records}) == 3
        assert len(calls) == 3
        per_row = [
            record(operator_id=op, weld_kind=kind, schedule=sch, nps=normalize_nps(nps),
                   material=mat, project_type=pt, status=int(status))
            for op, kind, sch, nps, mat, pt, status in (row.split(",") for row in rows)
        ]
        assert records == per_row
        operator_key = ("nps", "schedule", "material", "weld_kind", "operator_id")
        for group_by in (("nps",), operator_key):
            assert summarize(records, group_by) == summarize(per_row, group_by)
        (first, second) = summarize(records)
        assert (first.total_welds, first.inspected_welds, first.repaired_welds) == (2000, 2000, 1000)
        assert (second.total_welds, second.inspected_welds, second.repaired_welds) == (1000, 0, 0)

    def test_extra_unique_column_ignored(self):
        rows = [*self.ROWS, "9,BW,STD,2,Material A,0,bad", ",BW,STD,2,Material A,0,1"] * 20
        plain = parse_records(table(*rows))
        text = f"weld_id,{HEADER}\n" + "".join(f"W{i},{row}\n" for i, row in enumerate(rows))
        with_ids = parse_records(io.StringIO(text))
        assert with_ids.records == plain.records
        assert with_ids.issues == plain.issues
        assert len({id(r) for r in with_ids.records}) == 5
        assert summarize(clean(with_ids.records)[0]) == summarize(clean(plain.records)[0])

    def test_blank_rows(self):
        text = HEADER + ",comment\n" + " , ,\t, , , , , \n" + ",,,,,,,note\n"
        result = parse_records(io.StringIO(text))
        assert len(result.records) == 1
        assert [issue.line for issue in result.issues] == [3]
        kept, report = clean(result.records)
        assert kept == [] and report.as_dict() == {"blank_field": 1}


def csv_loop_parse(source, delimiter=","):
    """The csv row loop the line-keyed parser replaced, kept as its oracle."""
    with ingest.open_table(source) as handle:
        reader = csv.reader(handle, delimiter=delimiter)
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
            records.append(astuple(record))
        return records, issues


def outcome(parse, source, delimiter):
    """Records as tuples and issues as (line, message), or the SchemaError message."""
    try:
        result = parse(source, delimiter)
    except SchemaError as exc:
        return "error", str(exc)
    if isinstance(result, ingest.ParseResult):
        return [astuple(r) for r in result.records], [(i.line, i.message) for i in result.issues]
    return result


@st.composite
def export_tables(draw):
    """(text, delimiter, field size limit) of a table that csv and a plain split may read differently."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    terminators = st.sampled_from(["\n", "\r\n", "\r"])
    cell = st.sampled_from([
        "7", " 8 ", "BW", "STD", "4.00", "Material A", "0", "1", "2", "oops", "", " ",
        "a\x00b", f'"M{delimiter}A"', '"two\nlines"', '"q""q"', 'a"b', "x" * 25,
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
    """parse_records reads every table exactly as the csv row loop does."""

    @settings(max_examples=300, deadline=None)
    @given(
        table=export_tables(),
        source=st.sampled_from(["path", "stringio", "stringio-raw", "handle-cr"]),
    )
    def test_equals_csv_loop(self, table, source, tmp_path_factory):
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
            assert parsed(parse_records) == parsed(csv_loop_parse)
        finally:
            csv.field_size_limit(previous)

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
        kept, report = clean([record(schedule="")])
        assert kept == []
        assert report.as_dict() == {"blank_field": 1}

    def test_failed_status_kept(self):
        kept, report = clean([record(status=2)])
        assert len(kept) == 1 and report.dropped == 0

    def test_invalid_status_dropped(self):
        kept, report = clean([record(status=3), record(status="oops")])
        assert kept == []
        assert report.as_dict() == {"invalid_status": 2}

    def test_identity_on_valid_input(self):
        records = [record(status=s) for s in (0, 1, 2)]
        kept, report = clean(records)
        assert kept == records and report.dropped == 0

    def test_idempotent(self):
        records = [record(), record(nps=""), record(status=9)]
        once, _ = clean(records)
        twice, second_report = clean(once)
        assert twice == once and second_report.dropped == 0


class TestSummarize:
    def test_status_definitions(self):
        records = [record(status=0), record(status=1), record(status=2)]
        (summary,) = summarize(records)
        assert (summary.total_welds, summary.inspected_welds, summary.repaired_welds) == (3, 2, 1)

    def test_uninspected_group(self):
        summaries = summarize([record(status=0)] * 4)
        assert summaries[0].inspected_welds == 0
        assert summaries[0].repaired_welds == 0

    def test_operator_grouping(self):
        records = [record(operator_id="a"), record(operator_id="b")]
        summaries = summarize(records, group_by=("nps", "schedule", "material", "weld_kind", "operator_id"))
        assert len(summaries) == 2

    def test_permutation_invariance(self):
        records = [
            record(status=s, nps=n, operator_id=op)
            for s in (0, 1, 2)
            for n in ("2", "4")
            for op in ("a", "b", "c")
        ]
        shuffled = records[:]
        random.Random(5).shuffle(shuffled)
        assert summarize(records) == summarize(shuffled)

    def test_totals_partition_the_records(self):
        records = [record(nps=n, status=s) for n in ("2", "4", "6") for s in (0, 1, 2, 1)]
        summaries = summarize(records)
        assert sum(s.total_welds for s in summaries) == len(records)

    def test_rejects_unknown_group_field(self):
        with pytest.raises(SchemaError):
            summarize([record()], group_by=("nope",))

    def test_count_invariant_enforced(self):
        with pytest.raises(SchemaError):
            GroupSummary(GroupKey(nps="2"), total_welds=1, inspected_welds=2, repaired_welds=0)


@settings(max_examples=50)
@given(
    statuses=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=60),
    nps=st.sampled_from(["2", "4", "6"]),
)
def test_summary_counts_are_consistent(statuses, nps):
    records = [record(status=s, nps=nps) for s in statuses]
    (summary,) = summarize(records)
    assert summary.repaired_welds <= summary.inspected_welds <= summary.total_welds
    assert summary.total_welds == len(statuses)
    assert summary.inspected_welds == sum(1 for s in statuses if s in (1, 2))
    assert summary.repaired_welds == statuses.count(2)


class TestFilters:
    def test_filter_records_by_field(self):
        records = [record(project_type="0"), record(project_type="1")]
        assert len(filter_records(records, project_type="0")) == 1

    def test_filter_records_unknown_field(self):
        with pytest.raises(SchemaError):
            filter_records([record()], colour="red")

    def test_min_inspected_threshold(self):
        summaries = summarize(
            [record(operator_id="a")] * 100 + [record(operator_id="b")] * 99,
            group_by=("nps", "schedule", "material", "weld_kind", "operator_id"),
        )
        surviving = filter_summaries(summaries, min_inspected=100)
        assert [s.key.operator_id for s in surviving] == ["a"]

    def test_threshold_zero_is_identity(self):
        summaries = summarize([record()])
        assert filter_summaries(summaries, min_inspected=0) == summaries

    def test_unreachable_threshold(self):
        assert filter_summaries(summarize([record()]), min_inspected=10) == []

    def test_key_filter(self):
        summaries = summarize([record(nps="2"), record(nps="4")])
        kept = filter_summaries(summaries, key_filter={"nps": "2"})
        assert len(kept) == 1 and kept[0].key.nps == "2"
