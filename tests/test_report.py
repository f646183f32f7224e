import json
import os
import stat
import tracemalloc
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weldqc import report
from weldqc.bayes import BetaParams, CredibleInterval
from weldqc.errors import ConfigError
from weldqc.render import boxplot_svg, control_chart_svg, dendrogram_svg, histogram_svg
from weldqc.streams import check_seed, derive_seed, substream


def _cell_text(value) -> str:
    """The text a cell is written as: JSON words, six-decimal floats, else str,
    and a str holding a comma, a quote or a line break quoted as RFC 4180 does."""
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, -1e300]),
    # values whose seventh decimal decides the rounding of the sixth
    st.integers(-10**9, 10**9).map(lambda n: n / 10**6 + 5e-7),
    st.integers(-10**9, 10**9).map(lambda n: n / 10**7),
)
_CELL = st.one_of(
    # codec="utf-8", as st.text() draws by default: UTF-8 holds no lone surrogate
    st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=8),
    st.integers(),
    _FLOATS,
    st.booleans(),
    st.none(),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_ROW = st.lists(_CELL, max_size=8)

_MATRIX_CELLS = st.one_of(
    st.floats(),
    st.floats(0.0, 10.0),
    st.floats(10.0, 1e20),
    st.sampled_from([
        float("nan"), float("inf"), -float("inf"), -0.0, 0.0, -4e-7, 5e-7, 1e-300,
        9.9999994999, 9.9999995, 10.0, 1e15,
    ]),
    # k/128 is a six-decimal tie held exactly in binary for odd k
    st.integers(0, 1300).map(lambda k: k / 128),
    st.integers(0, 10**7).map(lambda n: n / 10**6 + 5e-7),
)
_LABEL = st.one_of(st.text(max_size=6), st.sampled_from(["a,b", 'say "hi"', "two\nlines", "\r"]))


class TestFormatting:
    def test_fmt_fixes_six_decimals(self):
        assert report.fmt(0.1) == "0.100000"
        assert report.fmt(1 / 3) == "0.333333"
        assert report.fmt(12) == "12"
        assert report.fmt("label") == "label"
        assert report.fmt(None) == "null"
        assert report.fmt(True) == "true"
        # only float subclasses take six decimals; numpy's bool is not a bool
        assert report.fmt(np.float64(1 / 3)) == "0.333333"
        assert report.fmt(np.float32(0.5)) == "0.5"
        assert report.fmt(np.int64(7)) == "7"
        assert report.fmt(np.bool_(True)) == "True"

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_ROW, max_size=6), as_generator=st.booleans())
    def test_written_rows_match_per_cell_text(self, tmp_path_factory, rows, as_generator):
        path = tmp_path_factory.mktemp("rows") / "t.csv"
        info = report.meta("demo", {}, seed=None)
        given_rows = (iter(row) for row in rows) if as_generator else rows
        report.write_table(path, ["h"], given_rows, info)
        lines = path.read_bytes().decode().split("\n")
        assert lines[5:] == [",".join(map(report.fmt, row)) for row in rows] + [""]
        assert lines[5:-1] == [",".join(map(_cell_text, row)) for row in rows]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), block_cells=st.integers(1, 40))
    def test_matrix_lines_match_format_row(self, data, block_cells):
        shape = data.draw(st.tuples(st.integers(0, 6), st.integers(1, 6)))
        values = data.draw(arrays(np.float64, shape, elements=_MATRIX_CELLS))
        labels = data.draw(st.lists(_LABEL, min_size=shape[0], max_size=shape[0]))
        # small blocks, so one matrix spans several
        with mock.patch.object(report, "_BLOCK_CELLS", block_cells):
            lines = list(report.matrix_lines(labels, values))
        assert lines == [
            report._format_row([label] + row.tolist()) for label, row in zip(labels, values)
        ]

    def test_round_floats_recurses(self):
        payload = {"a": 0.1234567891, "b": [1.00000049, {"c": 2.5}], "d": "x"}
        rounded = report.round_floats(payload)
        assert rounded["a"] == 0.123457
        assert rounded["b"][0] == 1.0
        assert rounded["b"][1]["c"] == 2.5

    def test_round_floats_keeps_record_field_names(self):
        assert report.round_floats({"prior": BetaParams(0.5, 2.5)}) == {"prior": {"a": 0.5, "b": 2.5}}
        nested = [CredibleInterval(0.1234567891, 0.5, 0.95), (1.00000049, "x")]
        assert report.round_floats(nested) == [
            {"lower": 0.123457, "upper": 0.5, "level": 0.95}, [1.0, "x"]
        ]


class TestWriters:
    def test_table_meta_lines(self, tmp_path):
        info = report.meta("demo", {"alpha": 0.05, "input": "x.csv"}, seed=3)
        path = tmp_path / "t.csv"
        report.write_table(path, ["a", "b"], [[1, 0.5]], info)
        lines = path.read_text().splitlines()
        assert lines[0] == "# command: demo"
        assert json.loads(lines[1].removeprefix("# config: ")) == {"alpha": 0.05, "input": "x.csv"}
        assert lines[2] == "# seed: 3"
        assert lines[4] == "a,b"
        assert lines[5] == "1,0.500000"

    def test_unencodable_cell_leaves_no_file(self, tmp_path):
        info = report.meta("demo", {}, seed=None)
        with pytest.raises(UnicodeEncodeError):
            report.write_table(tmp_path / "t.csv", ["h"], [["\ud800"]], info)
        assert list(tmp_path.iterdir()) == []

    def test_json_meta_and_rounding(self, tmp_path):
        info = report.meta("demo", {}, seed=None)
        path = tmp_path / "t.json"
        report.write_json(path, {"value": 0.12345678}, info)
        payload = json.loads(path.read_text())
        assert payload["meta"]["command"] == "demo"
        assert payload["value"] == 0.123457

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        report.write_text(path, "hello")
        report.write_text(path, "world")
        assert path.read_text() == "world"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_atomic_write_respects_umask(self, tmp_path):
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            path = tmp_path / f"out{umask:o}.txt"
            previous = os.umask(umask)
            try:
                report.write_text(path, "hello")
            finally:
                os.umask(previous)
            assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_atomic_write_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # the umask is process-wide: setting it, even briefly, races other threads
        def umask(mask):
            raise AssertionError("write_text must not set the umask")

        monkeypatch.setattr(os, "umask", umask)
        report.write_text(tmp_path / "out.txt", "hello")
        assert (tmp_path / "out.txt").read_text() == "hello"

    def test_svg_carries_meta_comment(self, tmp_path):
        # single hyphens, as in "a-b" and -1, are written as they are
        info = report.meta("demo", {"k": "a-b", "n": -1}, seed=0)
        path = tmp_path / "t.svg"
        report.write_svg(path, "<svg/>", info)
        assert path.read_text() == (
            '<!-- command: demo | config: {"k":"a-b","n":-1} | seed: 0 | '
            f"version: {report.__version__} -->\n<svg/>"
        )


    def test_matrix_table_memory_is_bounded_by_its_text(self, tmp_path):
        n = 300
        values = np.random.default_rng(9).random((n, n))
        labels = [str(i) for i in range(n)]
        path = tmp_path / "m.csv"
        info = report.meta("demo", {}, seed=None)
        tracemalloc.start()
        try:
            report.write_table(path, ["label"] + labels, report.matrix_lines(labels, values), info)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the text is held three times at most (its lines, their join and its
        # encoding); an n x n float temporary alone would add n * n * 8 bytes
        assert peak < 3.5 * path.stat().st_size

    def test_svg_comment_escapes_double_hyphens(self, tmp_path):
        config = {"out_dir": "a--b", "where": ["material=x---y"]}
        path = tmp_path / "t.svg"
        report.write_svg(path, "<svg/>", report.meta("demo", config, seed=0))
        text = path.read_text()
        ElementTree.fromstring(text)
        comment = text[len("<!-- ") : text.index(" -->")]
        assert "--" not in comment
        assert json.loads(comment.split(" | ")[1].removeprefix("config: ")) == config


class TestRenderings:
    def test_boxplot(self):
        from weldqc.mcmc import FiveNumberSummary

        svg = boxplot_svg(
            ["a", "b"],
            [
                FiveNumberSummary(0.1, 0.2, 0.3, 0.4, 0.5, (0.05, 0.6)),
                FiveNumberSummary(0.2, 0.3, 0.4, 0.5, 0.6),
            ],
        )
        assert svg.count("<rect") == 2
        assert svg.count("<circle") == 2

    def test_histogram(self):
        rng = np.random.default_rng(0)
        svg = histogram_svg(rng.normal(size=500), bins=10)
        assert svg.count("<rect") == 10

    def test_control_chart(self):
        from weldqc.rework import ControlChartSeries, ControlLimits, StatePoint

        series = ControlChartSeries(
            limits=ControlLimits(cl=3.0, ucl=5.0, lcl=2.0),
            points=(
                StatePoint(0, 3.1, 2.5, 4.0, 0.0, "in_control"),
                StatePoint(1, 5.5, 5.1, 6.0, 1.0, "above_ucl"),
            ),
        )
        svg = control_chart_svg(series)
        assert "UCL" in svg and "LCL" in svg
        assert svg.count("<circle") == 2

    def test_dendrogram(self):
        from weldqc.bayes import BetaParams
        from weldqc.complexity import agglomerative_cluster, distance_matrix

        tree = agglomerative_cluster(
            distance_matrix([BetaParams(2.5, 98.5), BetaParams(4.5, 94.5), BetaParams(2.5, 48.5)])
        )
        svg = dendrogram_svg(tree)
        assert svg.count("<line") == 6  # two merges, three segments each


class TestStreams:
    def test_substream_deterministic(self):
        a = substream(7, 1, 2).random(4)
        b = substream(7, 1, 2).random(4)
        assert np.array_equal(a, b)

    def test_substream_paths_differ(self):
        assert substream(7, 1).random() != substream(7, 2).random()
        assert substream(7).random() != substream(8).random()
        # a trailing zero in the path names a stream of its own
        assert substream(7, 1).random() != substream(7, 1, 0).random()
        assert derive_seed(7) != derive_seed(7, 0)

    def test_check_seed(self):
        assert check_seed(np.int64(5)) == 5
        for bad in (-1, 0.5, True, "7"):
            with pytest.raises(ConfigError):
                check_seed(bad)
