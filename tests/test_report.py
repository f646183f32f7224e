import json
import os
import stat

import numpy as np
import pytest

from weldqc import report
from weldqc.errors import ConfigError
from weldqc.render import boxplot_svg, control_chart_svg, dendrogram_svg, histogram_svg
from weldqc.streams import check_seed, substream


class TestFormatting:
    def test_fmt_fixes_six_decimals(self):
        assert report.fmt(0.1) == "0.100000"
        assert report.fmt(1 / 3) == "0.333333"
        assert report.fmt(12) == "12"
        assert report.fmt("label") == "label"
        assert report.fmt(None) == "null"

    def test_round_floats_recurses(self):
        payload = {"a": 0.1234567891, "b": [1.00000049, {"c": 2.5}], "d": "x"}
        rounded = report.round_floats(payload)
        assert rounded["a"] == 0.123457
        assert rounded["b"][0] == 1.0
        assert rounded["b"][1]["c"] == 2.5


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
        path = tmp_path / "out.txt"
        previous = os.umask(0o022)
        try:
            report.write_text(path, "hello")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_svg_carries_meta_comment(self, tmp_path):
        info = report.meta("demo", {"k": 1}, seed=0)
        path = tmp_path / "t.svg"
        report.write_svg(path, "<svg/>", info)
        text = path.read_text()
        assert text.startswith("<!-- command: demo")
        assert text.endswith("<svg/>")


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

    def test_check_seed(self):
        assert check_seed(np.int64(5)) == 5
        for bad in (-1, 0.5, True, "7"):
            with pytest.raises(ConfigError):
                check_seed(bad)
