import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weldqc import ab, report
from weldqc.cli import COMMANDS, build_parser, main
from weldqc.ingest import DEFAULT_GROUP_BY

from refdata import (
    EIGHT_PRODUCT_COUNTS,
    REWORK_EST_HOURS,
    REWORK_HISTORY,
    REWORK_SCENARIOS,
)

HEADER = "operator_id,weld_kind,schedule,nps,material,project_type,inspection_status"


@pytest.fixture()
def records_csv(tmp_path):
    rows = [HEADER]
    # two operators on one product type, one on another, plus junk rows
    rows += ["11,BW,STD,2,Material A,0,1"] * 60 + ["11,BW,STD,2,Material A,0,2"] * 6
    rows += ["22,BW,STD,2,Material A,0,1"] * 50 + ["22,BW,STD,2,Material A,0,2"] * 2
    rows += ["33,BW,XS,4,Material A,0,1"] * 5
    rows += ["44,BW,,2,Material A,0,1", "55,BW,STD,2,Material A,0,7"]
    path = tmp_path / "records.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def read_meta_and_rows(path):
    lines = path.read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return meta, body


class TestSummarize:
    def test_outputs(self, records_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["summarize", "--input", str(records_csv), "--out-dir", str(out)])
        assert code == 0
        meta, body = read_meta_and_rows(out / "summary.csv")
        assert any("command: summarize" in l for l in meta)
        assert body[0].startswith("nps,schedule,material,weld_kind")
        assert len(body) == 3  # header + two groups
        rejections = json.loads((out / "rejections.json").read_text())
        assert rejections["rejections"] == {"blank_field": 1, "invalid_status": 1}

    def test_missing_column_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("operator_id,weld_kind\n1,BW\n")
        assert main(["summarize", "--input", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_missing_input_is_config_error(self, tmp_path):
        assert main(["summarize", "--out-dir", str(tmp_path)]) == 3

    def test_where_filter(self, records_csv, tmp_path):
        out = tmp_path / "filtered"
        main([
            "summarize", "--input", str(records_csv), "--out-dir", str(out),
            "--where", "nps=2",
        ])
        _, body = read_meta_and_rows(out / "summary.csv")
        assert len(body) == 2

    def test_where_nps_is_normalized(self, records_csv, tmp_path):
        """Ingest stores NPS 4.00 as 4, so --where nps=4.00 selects those rows."""
        bodies = []
        for value in ("4", "4.00", " 4.0 "):
            out = tmp_path / value.strip()
            argv = ["summarize", "--input", str(records_csv), "--out-dir", str(out)]
            assert main(argv + ["--where", f"nps={value}", "--where", "weld_kind=BW"]) == 0
            bodies.append(read_meta_and_rows(out / "summary.csv")[1])
            rejections = json.loads((out / "rejections.json").read_text())
            assert rejections["rows_kept"] == 5 and rejections["rows_parsed"] == 125
        assert bodies[0] == bodies[1] == bodies[2] and bodies[0][1] == "4,XS,Material A,BW,5,5,0"


class TestInterval:
    def test_worked_example(self, tmp_path):
        code = main([
            "interval", "--failed", "10", "--inspected", "100",
            "--alpha", "0.05", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "interval.json").read_text())
        assert payload["credible_interval"]["lower"] == pytest.approx(0.0526, abs=5e-4)
        assert payload["credible_interval"]["upper"] == pytest.approx(0.1701, abs=5e-4)
        assert payload["meta"]["version"]

    def test_classical_block(self, tmp_path):
        main([
            "interval", "--failed", "1", "--inspected", "3", "--classical",
            "--out-dir", str(tmp_path),
        ])
        payload = json.loads((tmp_path / "interval.json").read_text())
        assert payload["classical_intervals"]["wald"]["lower"] < 0

    def test_prior_only(self, tmp_path):
        main(["interval", "--failed", "0", "--inspected", "0", "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "interval.json").read_text())
        assert payload["posterior"] == {"a": 0.5, "b": 0.5}

    def test_reproducible_byte_for_byte(self, tmp_path):
        argv = ["interval", "--failed", "10", "--inspected", "100", "--out-dir", str(tmp_path)]
        main(argv)
        first = (tmp_path / "interval.json").read_bytes()
        main(argv)
        assert (tmp_path / "interval.json").read_bytes() == first

    def test_bad_counts_exit_code(self, tmp_path):
        assert main([
            "interval", "--failed", "5", "--inspected", "3", "--out-dir", str(tmp_path)
        ]) == 4


class TestOperators:
    def test_ranked_table_and_matrix(self, records_csv, tmp_path):
        out = tmp_path / "ops"
        code = main([
            "operators", "--input", str(records_csv),
            "--nps", "2", "--schedule", "STD", "--material", "Material A",
            "--weld-kind", "BW", "--min-inspected", "50",
            "--iterations", "2000", "--resamples", "10000",
            "--seed", "7", "--out-dir", str(out),
        ])
        assert code == 0
        _, body = read_meta_and_rows(out / "operators.csv")
        assert len(body) == 3  # header + 2 operators
        # operator 11 has the higher failure rate and must rank first
        assert body[1].startswith("11,")
        _, matrix = read_meta_and_rows(out / "ab_matrix.csv")
        assert matrix[0] == "operator_id,11,22"
        assert matrix[1].split(",")[1] == "0.500000"
        assert (out / "operators_boxplot.svg").read_text().startswith("<!--")

    def test_nps_flag_is_normalized(self, records_csv, tmp_path):
        bodies = []
        for value in ("2", "2.00"):
            out = tmp_path / value
            assert main([
                "operators", "--input", str(records_csv), "--nps", value, "--min-inspected", "50",
                "--iterations", "300", "--resamples", "10", "--out-dir", str(out),
            ]) == 0
            bodies.append(read_meta_and_rows(out / "operators.csv")[1])
        assert bodies[0] == bodies[1] and len(bodies[0]) == 3

    def test_no_match_is_config_error(self, records_csv, tmp_path):
        assert main([
            "operators", "--input", str(records_csv), "--nps", "99",
            "--min-inspected", "1", "--out-dir", str(tmp_path),
        ]) == 3

    def test_key_flags_select_records_as_where_does(self, records_csv, tmp_path):
        # the schedule is no grouping key here, and still selects operators 11 and 22
        bodies = []
        selections = {"flag": ["--schedule", "STD"], "where": ["--where", "schedule=STD"]}
        for name, selection in selections.items():
            out = tmp_path / name
            assert main([
                "operators", "--input", str(records_csv), "--group-by", "operator_id,nps",
                "--min-inspected", "1", "--iterations", "300", "--resamples", "10",
                "--out-dir", str(out), *selection,
            ]) == 0
            bodies.append(read_meta_and_rows(out / "operators.csv")[1])
        assert bodies[0] == bodies[1]
        assert [row.split(",")[0] for row in bodies[0][1:]] == ["11", "22"]

    def test_key_flag_contradicting_where_is_config_error(self, records_csv, tmp_path, capsys):
        assert main([
            "operators", "--input", str(records_csv), "--where", "nps=4", "--nps", "2",
            "--min-inspected", "1", "--out-dir", str(tmp_path / "out"),
        ]) == 3
        assert "contradicts" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.fixture()
    def matrix_calls(self, monkeypatch):
        """(function name, chains) of every A/B matrix the command computes."""
        calls = []
        for name in ("exact_matrix", "pairwise_matrix"):
            original = getattr(ab, name)

            def spy(chains, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, list(chains)))
                return _original(chains, *args, **kwargs)

            monkeypatch.setattr(ab, name, spy)
        return calls

    @pytest.mark.parametrize("resamples", [None, 1000])
    def test_matrix_is_exact_unless_resampled(self, records_csv, tmp_path, matrix_calls, resamples):
        out = tmp_path / "ops"
        argv = [
            "operators", "--input", str(records_csv), "--min-inspected", "50",
            "--iterations", "2000", "--seed", "7", "--out-dir", str(out),
        ]
        if resamples is not None:
            argv += ["--resamples", str(resamples)]
        assert main(argv) == 0
        [(name, chains)] = matrix_calls
        if resamples is None:
            assert name == "exact_matrix"
            expected = ab.exact_matrix(chains)
        else:
            assert name == "pairwise_matrix"
            expected = ab.pairwise_matrix(chains, n=resamples, seed=7)
        assert [c.counts.inspected for c in chains] == [66, 52]
        meta, body = read_meta_and_rows(out / "ab_matrix.csv")
        written = [row.split(",")[1:] for row in body[1:]]
        assert written == [[report.fmt(float(v)) for v in row] for row in expected]
        config = json.loads(next(l for l in meta if l.startswith("# config: "))[10:])
        assert config["resamples"] == resamples

    @pytest.mark.parametrize("sizes", [
        ["--iterations", "100000000000000"],
        ["--iterations", "300", "--burn-in", "10", "--resamples", "100000000000000"],
    ])
    def test_impossible_size_exits_3(self, records_csv, tmp_path, capsys, sizes):
        # numpy refuses an array past the address space at once: nothing is allocated
        out = tmp_path / "ops"
        assert main([
            "operators", "--input", str(records_csv), "--min-inspected", "1",
            *sizes, "--out-dir", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate memory: ") and err.count("\n") == 1
        assert not out.exists()

    def test_single_operator(self, records_csv, tmp_path):
        out = tmp_path / "single"
        main([
            "operators", "--input", str(records_csv), "--nps", "4",
            "--min-inspected", "1", "--iterations", "1000", "--resamples", "1000",
            "--out-dir", str(out),
        ])
        _, matrix = read_meta_and_rows(out / "ab_matrix.csv")
        assert matrix[1].split(",")[1] == "0.500000"


class TestComplexity:
    @pytest.fixture()
    def counts_csv(self, tmp_path):
        lines = ["label,inspected,repaired,total"]
        for i, (n, x) in enumerate(EIGHT_PRODUCT_COUNTS, start=1):
            lines.append(f"product-{i},{n},{x},{n}")
        path = tmp_path / "counts.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_scores_and_clusters(self, counts_csv, tmp_path):
        out = tmp_path / "cplx"
        code = main([
            "complexity", "--counts", str(counts_csv), "--clusters", "4",
            "--out-dir", str(out),
        ])
        assert code == 0
        _, body = read_meta_and_rows(out / "complexity_scores.csv")
        scores = {row.split(",")[0]: float(row.split(",")[5]) for row in body[1:]}
        assert scores["product-4"] == pytest.approx(10.0, abs=0.1)
        assert scores["product-5"] == pytest.approx(0.0, abs=0.1)
        dendrogram = json.loads((out / "dendrogram.json").read_text())
        assert len(dendrogram["merges"]) == 7
        _, clusters = read_meta_and_rows(out / "clusters.csv")
        assert len(clusters) == 5
        assert clusters[1].startswith("A,")
        assert "business_share" in clusters[0]

    def test_top_one_single_cluster(self, counts_csv, tmp_path):
        out = tmp_path / "one"
        main(["complexity", "--counts", str(counts_csv), "--top", "1", "--out-dir", str(out)])
        _, clusters = read_meta_and_rows(out / "clusters.csv")
        assert len(clusters) == 2 and clusters[1].startswith("A,")

    def test_requires_some_input(self, tmp_path):
        assert main(["complexity", "--out-dir", str(tmp_path)]) == 3

    def test_large_counts_row(self, tmp_path):
        # Beta(1e6 + 1/2, 1e7 + 1/2) posterior quantiles need a long continued fraction
        path = tmp_path / "counts.csv"
        path.write_text("label,inspected,repaired\nbig,11000000,1000000\nsmall,10,1\n")
        out = tmp_path / "big"
        assert main(["complexity", "--counts", str(path), "--out-dir", str(out)]) == 0
        _, body = read_meta_and_rows(out / "complexity_scores.csv")
        medians = {row.split(",")[0]: float(row.split(",")[3]) for row in body[1:]}
        assert medians["big"] == pytest.approx(1 / 11, abs=1e-6)


    def test_duplicate_rows_write_unsigned_zeros(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("label,inspected,repaired\na,200,5\nb,200,5\nc,5000,40\nd,5000,40\n")
        out = tmp_path / "dup"
        assert main(["complexity", "--counts", str(path), "--out-dir", str(out)]) == 0
        _, body = read_meta_and_rows(out / "hellinger_matrix.csv")
        cells = [cell for row in body[1:] for cell in row.split(",")[1:]]
        assert cells.count("0.000000") == 8 and "-0.000000" not in cells

class TestForecast:
    @pytest.fixture()
    def design_json(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text(json.dumps({
            "types": {"t1": {"failed": 10, "inspected": 100}},
            "welds": [{"key": "t1", "count": 5}],
        }))
        return path

    def test_quantile_row(self, design_json, tmp_path):
        out = tmp_path / "fc"
        code = main([
            "forecast", "--design", str(design_json), "--iterations", "200",
            "--seed", "3", "--out-dir", str(out),
        ])
        assert code == 0
        _, body = read_meta_and_rows(out / "forecast_quantiles.csv")
        assert body[0] == "0%,10%,20%,30%,40%,50%,60%,70%,80%,90%,100%"
        values = [float(v) for v in body[1].split(",")]
        assert all(values[i] <= values[i + 1] for i in range(10))
        payload = json.loads((out / "forecast.json").read_text())
        assert len(payload["samples"]) == 200

    def test_no_samples_flag(self, design_json, tmp_path):
        out = tmp_path / "fc2"
        main([
            "forecast", "--design", str(design_json), "--iterations", "50",
            "--no-samples", "--out-dir", str(out),
        ])
        payload = json.loads((out / "forecast.json").read_text())
        assert "samples" not in payload

    def test_agreeing_inline_counts_are_accepted(self, design_json, tmp_path):
        inline = tmp_path / "inline.json"
        inline.write_text(json.dumps({
            "types": {"t1": {"failed": 10, "inspected": 100}},
            "welds": [
                {"key": "t1", "count": 3},
                {"key": "t1", "count": 2, "failed": 10, "inspected": 100},
            ],
        }))
        # inline counts on an earlier weld define the key for later welds
        defining = tmp_path / "defining.json"
        defining.write_text(json.dumps({
            "welds": [
                {"key": "t1", "count": 3, "failed": 10, "inspected": 100},
                {"key": "t1", "count": 2},
            ],
        }))
        bodies = []
        for design in (design_json, inline, defining):
            out = tmp_path / design.stem
            assert main([
                "forecast", "--design", str(design), "--iterations", "200",
                "--seed", "3", "--out-dir", str(out),
            ]) == 0
            bodies.append(read_meta_and_rows(out / "forecast_quantiles.csv")[1])
        assert bodies[0] == bodies[1] == bodies[2]

    @pytest.mark.parametrize("mode", ["average", "mixture"])
    def test_key_listed_twice_is_one_type(self, tmp_path, mode):
        types = {"a": {"failed": 10, "inspected": 100}}
        designs = {
            "split": [{"key": "a", "count": 2}, {"key": "a", "count": 3}],
            "whole": [{"key": "a", "count": 5}],
        }
        runs = {}
        for name, welds in designs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"types": types, "welds": welds}))
            out = tmp_path / name
            assert main([
                "forecast", "--design", str(path), "--iterations", "200", "--mode", mode,
                "--seed", "3", "--out-dir", str(out),
            ]) == 0
            payload = json.loads((out / "forecast.json").read_text())
            runs[name] = read_meta_and_rows(out / "forecast_quantiles.csv")[1], payload
        assert runs["split"][0] == runs["whole"][0]
        assert (runs["split"][1]["n_types"], runs["split"][1]["n_welds"]) == (1, 5)

    def test_draw_budget_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "types": {"t1": {"failed": 10, "inspected": 100}},
            "welds": [{"key": "t1", "count": 1_000_000_000}],
        }))
        out = tmp_path / "huge"
        assert main([
            "forecast", "--design", str(path), "--iterations", "1", "--out-dir", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1 iterations x 1000000000 welds" in err
        assert not out.exists()

    def test_unresolved_type(self, tmp_path, capsys):
        path = tmp_path / "bad_design.json"
        path.write_text(json.dumps({"welds": [{"key": "ghost", "count": 2}]}))
        assert main(["forecast", "--design", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "'ghost'" in capsys.readouterr().err


class TestRework:
    @pytest.fixture()
    def specs_json(self, tmp_path):
        products = [
            {
                "key": f"type-{i + 1}",
                "estimated_hours": hours,
                "efficiency": 1.2,
                "failed": x,
                "inspected": n,
            }
            for i, ((n, x), hours) in enumerate(zip(REWORK_HISTORY, REWORK_EST_HOURS))
        ]
        path = tmp_path / "specs.json"
        path.write_text(json.dumps({"products": products}))
        return path

    def test_planning_estimate(self, specs_json, tmp_path):
        out = tmp_path / "rw"
        code = main([
            "rework", "--specs", str(specs_json), "--iterations", "1000",
            "--seed", "0", "--out-dir", str(out),
        ])
        assert code == 0
        _, body = read_meta_and_rows(out / "rework_quantiles.csv")
        median = float(body[1].split(",")[5])
        assert median == pytest.approx(3.4, abs=0.2)
        chart = json.loads((out / "control_chart.json").read_text())
        assert len(chart["points"]) == 1  # planning state only

    def test_scenario_chart(self, specs_json, tmp_path):
        hours, results = REWORK_SCENARIOS["over_control"]
        actuals = tmp_path / "actuals.json"
        actuals.write_text(json.dumps({"hours": hours, "results": results}))
        out = tmp_path / "rw3"
        main([
            "rework", "--specs", str(specs_json), "--actuals", str(actuals),
            "--iterations", "2000", "--seed", "0", "--out-dir", str(out),
        ])
        chart = json.loads((out / "control_chart.json").read_text())
        by_state = {p["state"]: p for p in chart["points"]}
        assert by_state[10]["median"] == pytest.approx(5.4)
        assert by_state[10]["band_low"] == by_state[10]["band_high"]
        assert by_state[6]["flag"] == "above_ucl"
        _, body = read_meta_and_rows(out / "control_chart.csv")
        assert body[0] == "state,median,band_low,band_high,accrued_actual_hours,flag"
        assert (out / "control_chart.svg").exists()

    def test_impossible_iterations_exit_3(self, specs_json, tmp_path, capsys):
        # numpy refuses an array past the address space at once: nothing is allocated
        out = tmp_path / "rw"
        assert main([
            "rework", "--specs", str(specs_json), "--iterations", "100000000000000",
            "--out-dir", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot allocate memory: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_specs(self, tmp_path):
        assert main(["rework", "--out-dir", str(tmp_path)]) == 3


class TestConfigAndEnv:
    def test_config_file_supplies_values(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"failed": 10, "inspected": 100, "out_dir": str(tmp_path)}))
        assert main(["interval", "--config", str(config)]) == 0
        payload = json.loads((tmp_path / "interval.json").read_text())
        assert payload["meta"]["config"]["failed"] == 10

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"failed": 10, "inspected": 100, "alpha": 0.5}))
        main(["interval", "--config", str(config), "--alpha", "0.05", "--out-dir", str(tmp_path)])
        payload = json.loads((tmp_path / "interval.json").read_text())
        assert payload["meta"]["config"]["alpha"] == 0.05
        assert payload["credible_interval"]["level"] == 0.95

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"failed": 1, "inspected": 2, "bogus": True}))
        assert main(["interval", "--config", str(config), "--out-dir", str(tmp_path)]) == 3

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WELDQC_OUT", str(tmp_path / "envout"))
        main(["interval", "--failed", "1", "--inspected", "10"])
        assert (tmp_path / "envout" / "interval.json").exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_dir_that_is_a_file(self, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "sub" if under else taken
        argv = ["interval", "--failed", "1", "--inspected", "10", "--out-dir", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {out / 'interval.json'}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert taken.read_text() == "keep"

    def test_artifact_name_taken_by_a_directory(self, tmp_path, capsys):
        (tmp_path / "interval.json").mkdir()
        argv = ["interval", "--failed", "1", "--inspected", "10", "--out-dir", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / 'interval.json'}: ")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["interval.json"]

    def test_later_artifact_taken_by_a_directory_writes_nothing(
        self, records_csv, tmp_path, capsys
    ):
        # summary.csv comes before summary.json, so a writer that stops at
        # the failing name would already have written it
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        argv = ["summarize", "--input", str(records_csv), "--out-dir", str(out)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out / 'summary.json'}: Is a directory\n"
        assert captured.out == ""
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert list((out / "summary.json").iterdir()) == []


def _json_bytes(document) -> bytes:
    return json.dumps(document).encode()


_EXPORT = "\n".join([HEADER] + ["11,BW,STD,2,Material A,0,1"] * 9 + ["11,BW,STD,2,Material A,0,2"])
_COUNTS = b"label,inspected,repaired\na,10,1\nb,20,4\n"
_DESIGN = _json_bytes({"types": {"t1": {"failed": 1, "inspected": 10}}, "welds": [{"key": "t1"}]})
_PRODUCT = {"failed": 1, "inspected": 10, "estimated_hours": 2.0}
_SPECS = _json_bytes({"products": [_PRODUCT]})

# (files to write, argv with file names standing for their paths, exit code,
#  text the error message must contain)
MALFORMED_INPUTS = {
    "counts-inspected-not-integer": (
        {"counts.csv": b"label,inspected,repaired\na,10x,1\n"},
        ["complexity", "--counts", "counts.csv"], 2, "counts row 1",
    ),
    "design-type-without-inspected": (
        {"design.json": _json_bytes({"types": {"t1": {"failed": 1}}, "welds": [{"key": "t1"}]})},
        ["forecast", "--design", "design.json"], 2, "inspected",
    ),
    "design-weld-count-text": (
        {"design.json": _json_bytes({
            "types": {"t1": {"failed": 1, "inspected": 10}},
            "welds": [{"key": "t1", "count": "two"}],
        })},
        ["forecast", "--design", "design.json"], 2, "weld #1",
    ),
    "design-weld-counts-conflict-with-type": (
        {"design.json": _json_bytes({
            "types": {"t1": {"failed": 1, "inspected": 10}},
            "welds": [{"key": "t1"}, {"key": "t1", "failed": 9, "inspected": 10}],
        })},
        ["forecast", "--design", "design.json"], 2, "weld #2",
    ),
    "design-weld-counts-conflict-inline": (
        {"design.json": _json_bytes({"welds": [
            {"key": "k", "count": 10, "failed": 1, "inspected": 1000},
            {"key": "k", "failed": 900, "inspected": 1000},
        ]})},
        ["forecast", "--design", "design.json"], 2, "weld #2",
    ),
    "design-weld-unresolved-type": (
        {"design.json": _json_bytes({"welds": [
            {"key": "k", "failed": 1, "inspected": 10}, {"key": "ghost"},
        ]})},
        ["forecast", "--design", "design.json"], 2, "weld #2",
    ),
    "design-weld-not-object": (
        {"design.json": _json_bytes({"welds": [1]})},
        ["forecast", "--design", "design.json"], 2, "weld #1",
    ),
    "specs-hours-text": (
        {"specs.json": _json_bytes({"products": [{**_PRODUCT, "estimated_hours": "abc"}]})},
        ["rework", "--specs", "specs.json"], 2, "product #1",
    ),
    "specs-efficiency-text": (
        {"specs.json": _json_bytes({"products": [{**_PRODUCT, "efficiency": "x"}]})},
        ["rework", "--specs", "specs.json"], 2, "product #1",
    ),
    "specs-hours-nan": (
        {"specs.json": _json_bytes({"products": [_PRODUCT, {**_PRODUCT, "estimated_hours": float("nan")}]})},
        ["rework", "--specs", "specs.json"], 2, "product #2",
    ),
    "specs-efficiency-infinite": (
        {"specs.json": _json_bytes({"products": [{**_PRODUCT, "efficiency": float("inf")}]})},
        ["rework", "--specs", "specs.json"], 2, "product #1",
    ),
    "actuals-hours-negative": (
        {"specs.json": _SPECS, "actuals.json": _json_bytes({"hours": [-1.5], "results": [0]})},
        ["rework", "--specs", "specs.json", "--actuals", "actuals.json"], 2, "actuals",
    ),
    "specs-json-list": (
        {"specs.json": b"[]"}, ["rework", "--specs", "specs.json"], 2, "JSON object",
    ),
    "actuals-hours-list": (
        {"specs.json": _SPECS, "actuals.json": _json_bytes({"hours": ["a"], "results": [0]})},
        ["rework", "--specs", "specs.json", "--actuals", "actuals.json"], 2, "actuals",
    ),
    "export-missing": ({}, ["summarize", "--input", "export.csv"], 2, "cannot read input"),
    "export-unterminated-quote": (
        {"export.csv": (_EXPORT + '\n11,BW,"STD,2,Material A,0,1\n' + _EXPORT.split("\n")[1]).encode()},
        ["summarize", "--input", "export.csv"], 2, "unexpected end of data",
    ),
    "export-field-over-csv-limit": (
        {"export.csv": (_EXPORT + "\n11,BW,STD,2," + "x" * 200_000 + ",0,1\n").encode()},
        ["summarize", "--input", "export.csv"], 2, "field limit",
    ),
    "export-not-utf8": (
        {"export.csv": (_EXPORT + "\n11,BW,STD,2,Mat\xe9rial A,0,1\n").encode("latin-1")},
        ["summarize", "--input", "export.csv"], 2, "UTF-8",
    ),
    "counts-repaired-above-inspected": (
        {"counts.csv": b"label,inspected,repaired\na,10,1\nb,10,11\n"},
        ["complexity", "--counts", "counts.csv"], 2, "counts row 2",
    ),
    "design-type-failed-above-inspected": (
        {"design.json": _json_bytes({
            "types": {"t1": {"failed": 5, "inspected": 3}}, "welds": [{"key": "t1"}],
        })},
        ["forecast", "--design", "design.json"], 2, "design type 't1'",
    ),
    "specs-failed-above-inspected": (
        {"specs.json": _json_bytes({"products": [_PRODUCT, {**_PRODUCT, "failed": 5, "inspected": 3}]})},
        ["rework", "--specs", "specs.json"], 2, "product #2",
    ),
    "counts-missing": ({}, ["complexity", "--counts", "counts.csv"], 2, "cannot read counts file"),
    "counts-not-utf8": (
        {"counts.csv": _COUNTS + "c,30,3\nMat\xe9rial,40,4\n".encode("latin-1")},
        ["complexity", "--counts", "counts.csv"], 2, "counts file is not a valid UTF-8 table",
    ),
    "config-iterations-text": (
        {"design.json": _DESIGN, "config.json": _json_bytes({"iterations": "abc"})},
        ["forecast", "--design", "design.json", "--config", "config.json"], 3, "iterations",
    ),
    "config-top-text": (
        {"counts.csv": _COUNTS, "config.json": _json_bytes({"top": "x"})},
        ["complexity", "--counts", "counts.csv", "--config", "config.json"], 3, "top",
    ),
    "config-prior-one-value": (
        {"config.json": _json_bytes({"prior": [1]})},
        ["interval", "--failed", "1", "--inspected", "10", "--config", "config.json"], 3, "prior",
    ),
    "config-flag-not-boolean": (
        {"config.json": _json_bytes({"classical": "no"})},
        ["interval", "--failed", "1", "--inspected", "10", "--config", "config.json"], 3,
        "classical",
    ),
    "config-delimiter-two-characters": (
        {"counts.csv": _COUNTS, "config.json": _json_bytes({"delimiter": "ab"})},
        ["complexity", "--counts", "counts.csv", "--config", "config.json"], 3, "delimiter",
    ),
    "config-not-utf8": (
        {"config.json": b"\xff\xfe{}"},
        ["interval", "--failed", "1", "--inspected", "10", "--config", "config.json"], 3,
        "config",
    ),
    "operators-negative-seed": (
        {"export.csv": _EXPORT.encode()},
        ["operators", "--input", "export.csv", "--min-inspected", "1",
         "--iterations", "300", "--resamples", "10", "--seed", "-1"], 3, "seed",
    ),
    "flag-resamples-zero": (
        {"export.csv": _EXPORT.encode()},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--resamples", "0"], 3,
        "resamples",
    ),
    "config-resamples-negative": (
        {"export.csv": _EXPORT.encode(), "config.json": _json_bytes({"resamples": -5})},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--config", "config.json"],
        3, "resamples",
    ),
    "rework-negative-seed": (
        {"specs.json": _SPECS}, ["rework", "--specs", "specs.json", "--seed", "-1"], 3, "seed",
    ),
    "forecast-negative-seed": (
        {"design.json": _DESIGN}, ["forecast", "--design", "design.json", "--seed", "-1"], 3,
        "seed",
    ),
    "flag-seed-text": (
        {"design.json": _DESIGN}, ["forecast", "--design", "design.json", "--seed", "abc"], 3,
        "seed",
    ),
    "flag-iterations-text": (
        {"specs.json": _SPECS}, ["rework", "--specs", "specs.json", "--iterations", "x"], 3,
        "iterations",
    ),
    "flag-mode-unknown": (
        {"design.json": _DESIGN}, ["forecast", "--design", "design.json", "--mode", "bogus"], 3,
        "mode",
    ),
    # a flag error stops the run before the export is opened (export.csv is
    # never written, so reading it first would exit 2)
    "flag-where-unknown-field": (
        {}, ["summarize", "--input", "export.csv", "--where", "nope=1"], 3,
        "unknown record field 'nope'",
    ),
    "flag-where-repeated-field": (
        {}, ["summarize", "--input", "export.csv", "--where", "nps=2", "--where", "nps=4"], 3,
        "field 'nps' is given more than once",
    ),
    "flag-where-without-value": (
        {}, ["operators", "--input", "export.csv", "--where", "nps"], 3, "expected field=value",
    ),
    "config-where-unknown-field": (
        {"config.json": _json_bytes({"where": ["colour=red"]})},
        ["complexity", "--input", "export.csv", "--config", "config.json"], 3, "'colour'",
    ),
    "flag-group-by-unknown-field": (
        {}, ["summarize", "--input", "export.csv", "--group-by", "nope"], 3,
        "cannot group by non-key field(s): nope",
    ),
    "flag-group-by-non-key-field": (
        {}, ["complexity", "--input", "export.csv", "--group-by", "nps,project_type"], 3,
        "cannot group by non-key field(s): project_type",
    ),
    "flag-operators-group-by-unknown-field": (
        {}, ["operators", "--input", "export.csv", "--group-by", "nope,operator_id"], 3,
        "cannot group by non-key field(s): nope",
    ),
    "config-operators-group-by-without-operator": (
        {"export.csv": _EXPORT.encode(), "config.json": _json_bytes(
            {"group_by": ["nps", "schedule", "material", "weld_kind"]}
        )},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--config", "config.json"],
        3, "group_by",
    ),
    "config-operators-alpha": (
        {"export.csv": _EXPORT.encode(), "config.json": _json_bytes({"alpha": 0.5})},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--config", "config.json"],
        3, "alpha",
    ),
    "flag-top-zero": (
        {"counts.csv": _COUNTS}, ["complexity", "--counts", "counts.csv", "--top", "0"], 3, "top",
    ),
    "flag-clusters-zero": (
        {"counts.csv": _COUNTS}, ["complexity", "--counts", "counts.csv", "--clusters", "0"], 3,
        "clusters",
    ),
    "flag-clusters-above-product-types": (
        {"counts.csv": _COUNTS}, ["complexity", "--counts", "counts.csv", "--clusters", "5"], 3,
        "clusters (5) must not exceed the product types (2)",
    ),
    "flag-clusters-above-top": (
        {"counts.csv": _COUNTS},
        ["complexity", "--counts", "counts.csv", "--top", "1", "--clusters", "2"], 3,
        "clusters (2) must not exceed the product types (1)",
    ),
    "config-min-inspected-negative": (
        {"export.csv": _EXPORT.encode(), "config.json": _json_bytes({"min_inspected": -1})},
        ["summarize", "--input", "export.csv", "--config", "config.json"], 3, "min_inspected",
    ),
    "config-top-fraction": (
        {"counts.csv": _COUNTS, "config.json": _json_bytes({"top": 2.9})},
        ["complexity", "--counts", "counts.csv", "--config", "config.json"], 3, "top",
    ),
    "config-clusters-boolean": (
        {"counts.csv": _COUNTS, "config.json": _json_bytes({"clusters": True})},
        ["complexity", "--counts", "counts.csv", "--config", "config.json"], 3, "clusters",
    ),
    "config-interval-failed-fraction": (
        {"config.json": _json_bytes({"failed": 2.7, "inspected": True})},
        ["interval", "--config", "config.json"], 3, "failed",
    ),
    "specs-failed-fraction": (
        {"specs.json": _json_bytes({"products": [{**_PRODUCT, "failed": 1.9, "inspected": 10.5}]})},
        ["rework", "--specs", "specs.json"], 2, "product #1",
    ),
    "actuals-results-fraction": (
        {"specs.json": _SPECS, "actuals.json": _json_bytes({"hours": [0.0], "results": [0.9]})},
        ["rework", "--specs", "specs.json", "--actuals", "actuals.json"], 2, "actuals",
    ),
    "actuals-result-not-binary": (
        {"specs.json": _SPECS, "actuals.json": _json_bytes({"hours": [0.0], "results": [2]})},
        ["rework", "--specs", "specs.json", "--actuals", "actuals.json"], 2, "actuals file",
    ),
    "actuals-lengths-differ": (
        {"specs.json": _SPECS, "actuals.json": _json_bytes({"hours": [0.0, 1.0], "results": [1]})},
        ["rework", "--specs", "specs.json", "--actuals", "actuals.json"], 2, "actuals file",
    ),
    "actuals-more-than-products": (
        {"specs.json": _SPECS,
         "actuals.json": _json_bytes({"hours": [0.0, 1.0], "results": [0, 1]})},
        ["rework", "--specs", "specs.json", "--actuals", "actuals.json"], 2, "actuals file",
    ),
    "interval-inspected-beyond-the-solver": (
        {}, ["interval", "--failed", "3", "--inspected", str(10**30)], 4, "sum to at most",
    ),
    "design-welds-empty": (
        {"design.json": _json_bytes({"types": {"t1": {"failed": 1, "inspected": 10}}, "welds": []})},
        ["forecast", "--design", "design.json"], 2, "design file",
    ),
    "specs-efficiency-zero": (
        {"specs.json": _json_bytes({"products": [{**_PRODUCT, "efficiency": 0}]})},
        ["rework", "--specs", "specs.json"], 2, "product #1",
    ),
    "counts-total-negative": (
        {"counts.csv": b"label,inspected,repaired,total\na,10,1,-3\n"},
        ["complexity", "--counts", "counts.csv"], 2, "counts row 1",
    ),
    "counts-total-below-inspected": (
        {"counts.csv": b"label,inspected,repaired,total\na,10,1,10\nb,20,4,19\n"},
        ["complexity", "--counts", "counts.csv"], 2, "counts row 2",
    ),
    "design-weld-count-zero": (
        {"design.json": _json_bytes({
            "types": {"t1": {"failed": 1, "inspected": 10}},
            "welds": [{"key": "t1", "count": 2}, {"key": "t1", "count": 0}],
        })},
        ["forecast", "--design", "design.json"], 2, "weld #2",
    ),
    "design-weld-count-huge-float": (
        {"design.json": _json_bytes({
            "types": {"t1": {"failed": 1, "inspected": 10}},
            "welds": [{"key": "t1", "count": 1e300}],
        })},
        ["forecast", "--design", "design.json"], 2, "weld #1",
    ),
    "design-weld-count-2-pow-63": (
        {"design.json": _json_bytes({
            "types": {"t1": {"failed": 1, "inspected": 10}},
            "welds": [{"key": "t1", "count": 2**63}],
        })},
        ["forecast", "--design", "design.json"], 2, "weld #1",
    ),
    "design-weld-count-total-2-pow-63": (
        {"design.json": _json_bytes({
            "types": {"t1": {"failed": 1, "inspected": 10}, "t2": {"failed": 2, "inspected": 10}},
            "welds": [{"key": "t1", "count": 2**62}, {"key": "t2", "count": 2**62}],
        })},
        ["forecast", "--design", "design.json", "--mode", "mixture"], 2, "weld #2",
    ),
    # no input file is written: the check comes before any file is read
    "flag-burn-in-not-below-iterations": (
        {}, ["operators", "--input", "export.csv", "--iterations", "100", "--burn-in", "100"], 3,
        "burn_in (100) must be below iterations (100)",
    ),
    "config-burn-in-not-below-iterations": (
        {"export.csv": _EXPORT.encode(),
         "config.json": _json_bytes({"iterations": 50, "burn_in": 80})},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--config", "config.json"],
        3, "burn_in (80) must be below iterations (50)",
    ),
    "flag-iterations-zero": (
        {"design.json": _DESIGN}, ["forecast", "--design", "design.json", "--iterations", "0"], 3,
        "iterations",
    ),
    "config-iterations-zero": (
        {"specs.json": _SPECS, "config.json": _json_bytes({"iterations": 0})},
        ["rework", "--specs", "specs.json", "--config", "config.json"], 3, "iterations",
    ),
    "flag-operators-iterations-zero": (
        {"export.csv": _EXPORT.encode()},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--iterations", "0"], 3,
        "iterations",
    ),
    "flag-burn-in-negative": (
        {"export.csv": _EXPORT.encode()},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--burn-in", "-1"], 3,
        "burn_in",
    ),
    "config-burn-in-negative": (
        {"export.csv": _EXPORT.encode(), "config.json": _json_bytes({"burn_in": -5})},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--config", "config.json"],
        3, "burn_in",
    ),
    "flag-alpha-nan": (
        {}, ["interval", "--failed", "1", "--inspected", "10", "--alpha", "nan"], 3, "alpha",
    ),
    "config-alpha-one": (
        {"config.json": _json_bytes({"alpha": 1})},
        ["interval", "--failed", "1", "--inspected", "10", "--config", "config.json"], 3, "alpha",
    ),
    "flag-prior-zero": (
        {}, ["interval", "--failed", "1", "--inspected", "10", "--prior", "0", "1"], 3, "prior",
    ),
    "config-prior-infinite": (
        {"design.json": _DESIGN, "config.json": _json_bytes({"prior": [1, float("inf")]})},
        ["forecast", "--design", "design.json", "--config", "config.json"], 3, "prior",
    ),
    "flag-proposal-sd-negative": (
        {"export.csv": _EXPORT.encode()},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--proposal-sd", "-1"], 3,
        "proposal_sd",
    ),
    "config-proposal-sd-nan": (
        {"export.csv": _EXPORT.encode(), "config.json": _json_bytes({"proposal_sd": float("nan")})},
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--config", "config.json"],
        3, "proposal_sd",
    ),
    # JSON may hold a lone surrogate, which no file system path can encode
    "config-out-dir-lone-surrogate": (
        {"specs.json": _SPECS, "config.json": _json_bytes({"out_dir": "\ud800"})},
        ["rework", "--specs", "specs.json", "--config", "config.json"], 3, "out_dir",
    ),
    "config-input-lone-surrogate": (
        {"config.json": _json_bytes({"input": "\ud800"})},
        ["summarize", "--config", "config.json"], 3, "input",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_maps_to_exit_code(case, tmp_path, capsys, monkeypatch):
    files, argv, expected_code, needle = MALFORMED_INPUTS[case]
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    out = tmp_path / "out"
    argv = [str(tmp_path / arg) if arg.endswith((".csv", ".json")) else arg for arg in argv]
    # the out dir comes from the environment, so a config file's out_dir still applies
    monkeypatch.setenv("WELDQC_OUT", str(out))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == expected_code
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err
    assert not out.exists() or not any(out.iterdir())


# argv of a run of each command (file names stand for their paths) and the
# sorted names of every file it writes to --out-dir
WRITTEN_FILES = {
    "summarize": (
        ["summarize", "--input", "export.csv"],
        ["rejections.json", "summary.csv", "summary.json"],
    ),
    "interval": (["interval", "--failed", "1", "--inspected", "10"], ["interval.json"]),
    "operators": (
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--iterations", "300"],
        ["ab_matrix.csv", "operators.csv", "operators_boxplot.svg"],
    ),
    "complexity": (
        ["complexity", "--counts", "counts.csv"],
        ["clusters.csv", "complexity_scores.csv", "dendrogram.json", "dendrogram.svg",
         "hellinger_matrix.csv"],
    ),
    "forecast": (
        ["forecast", "--design", "design.json", "--iterations", "100"],
        ["forecast.json", "forecast_histogram.svg", "forecast_quantiles.csv"],
    ),
    "rework": (
        ["rework", "--specs", "specs.json", "--iterations", "100"],
        ["control_chart.csv", "control_chart.json", "control_chart.svg", "rework.json",
         "rework_quantiles.csv"],
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_written_files_are_pinned_and_reproducible(command, tmp_path):
    inputs = {"export.csv": _EXPORT.encode(), "counts.csv": _COUNTS,
              "design.json": _DESIGN, "specs.json": _SPECS}
    for name, content in inputs.items():
        (tmp_path / name).write_bytes(content)
    argv, expected = WRITTEN_FILES[command]
    out = tmp_path / "out"
    argv = [str(tmp_path / arg) if arg in inputs else arg for arg in argv]
    runs = []
    for _ in range(2):
        assert main(argv + ["--out-dir", str(out)]) == 0
        runs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert sorted(runs[0]) == expected
    assert runs[1] == runs[0]


# labels and key values that hold the delimiter, quotes and XML markup
_TRICKY = ("a, b", 'say "hi"', "A&B", "<x>")


def _tricky_lines(rest: str) -> str:
    """One CSV line per tricky label: the label quoted, then `rest`."""
    return "".join('"' + label.replace('"', '""') + '"' + rest + "\n" for label in _TRICKY)


_TRICKY_INPUTS = {
    "export.csv": (HEADER + "\n" + _tricky_lines(",BW,STD,2,Material A,0,1") * 3
                   + _tricky_lines(",BW,STD,2,Material A,0,2")
                   + '11,BW,STD,2,"Material, A",0,2\n').encode(),
    "counts.csv": ("label,inspected,repaired\n" + _tricky_lines(",100,10")).encode(),
    "design.json": _DESIGN,
    "specs.json": _SPECS,
}


def _run_written(command, out) -> None:
    """Run the WRITTEN_FILES argv of `command` on _TRICKY_INPUTS into `out`."""
    for name, content in _TRICKY_INPUTS.items():
        (out.parent / name).write_bytes(content)
    argv = [str(out.parent / arg) if arg in _TRICKY_INPUTS else arg for arg in WRITTEN_FILES[command][0]]
    assert main(argv + ["--out-dir", str(out)]) == 0


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_tables_read_back(command, tmp_path):
    """Every CSV artifact reads back with csv.reader into rows as wide as its header."""
    out = tmp_path / "out"
    _run_written(command, out)
    tables = sorted(out.glob("*.csv"))
    assert [t.name for t in tables] == [n for n in WRITTEN_FILES[command][1] if n.endswith(".csv")]
    cells = set()
    for table in tables:
        _, body = read_meta_and_rows(table)
        header, *rows = csv.reader(body)
        assert rows and all(len(row) == len(header) for row in rows), table.name
        cells.update(header, *rows)
    if command in ("operators", "complexity"):
        assert set(_TRICKY) <= cells
    if command == "summarize":
        assert "Material, A" in cells


def test_svg_labels_are_escaped(tmp_path):
    """All four SVG kinds parse as XML, and labels holding &, < or > keep their text."""
    texts = set()
    svgs = []
    for command in ("operators", "complexity", "forecast", "rework"):
        out = tmp_path / command
        _run_written(command, out)
        for path in out.glob("*.svg"):
            svgs.append(path.name)
            root = ElementTree.parse(path).getroot()
            texts.update(node.text for node in root.iter("{http://www.w3.org/2000/svg}text"))
    assert sorted(svgs) == [
        "control_chart.svg", "dendrogram.svg", "forecast_histogram.svg", "operators_boxplot.svg",
    ]
    assert set(_TRICKY) <= texts


def test_svg_comment_survives_double_hyphens(tmp_path):
    """A config value holding "--" leaves every SVG parseable XML, and the SVG's
    comment decodes to the same config as the CSV header."""
    (tmp_path / "design.json").write_bytes(_DESIGN)
    (tmp_path / "export.csv").write_text("\n".join(
        [HEADER] + [f"11,BW,STD,{nps},x--y,0,{status}" for nps in (2, 4) for status in (1, 1, 2)]
    ) + "\n")
    runs = {
        "a--b": ["forecast", "--design", str(tmp_path / "design.json"), "--iterations", "100"],
        "where": ["complexity", "--input", str(tmp_path / "export.csv"), "--where", "material=x--y"],
    }
    for out, argv in runs.items():
        assert main(argv + ["--out-dir", str(tmp_path / out)]) == 0
        svgs = list((tmp_path / out).glob("*.svg"))
        assert len(svgs) == 1
        ElementTree.parse(svgs[0])
        comment = svgs[0].read_text().split(" -->", 1)[0]
        svg_config = comment.split(" | ")[1].removeprefix("config: ")
        table = next((tmp_path / out).glob("*.csv"))
        csv_config = read_meta_and_rows(table)[0][1].removeprefix("# config: ")
        assert "--" in csv_config and "--" not in svg_config
        assert json.loads(svg_config) == json.loads(csv_config)


# a value other than the default for every option: (flag arguments, config value)
OPTION_SAMPLES = {
    "input": (["--input", "export.csv"], "export.csv"),
    "counts": (["--counts", "counts.csv"], "counts.csv"),
    "design": (["--design", "design.json"], "design.json"),
    "specs": (["--specs", "specs.json"], "specs.json"),
    "actuals": (["--actuals", "actuals.json"], "actuals.json"),
    "out_dir": (["--out-dir", "out"], "out"),
    "delimiter": (["--delimiter", "\\t"], "\\t"),
    "group_by": (["--group-by", "nps,operator_id"], ["nps", "operator_id"]),
    "where": (["--where", "nps=2", "--where", "schedule=STD"], ["nps=2", "schedule=STD"]),
    "min_inspected": (["--min-inspected", "7"], 7),
    "failed": (["--failed", "3"], 3),
    "inspected": (["--inspected", "30"], "30"),
    "alpha": (["--alpha", "0.1"], 0.1),
    "prior": (["--prior", "1", "2.5"], [1, 2.5]),
    "classical": (["--classical"], True),
    "nps": (["--nps", "2"], "2"),
    "schedule": (["--schedule", "STD"], "STD"),
    "material": (["--material", "Material A"], "Material A"),
    "weld_kind": (["--weld-kind", "BW"], "BW"),
    "iterations": (["--iterations", "50"], 50),
    "burn_in": (["--burn-in", "10"], 10),
    "proposal_sd": (["--proposal-sd", "0.2"], 0.2),
    "resamples": (["--resamples", "100"], 100),
    "seed": (["--seed", "5"], 5),
    "top": (["--top", "3"], 3),
    "clusters": (["--clusters", "2"], 2),
    "cluster_on": (["--cluster-on", "hellinger"], "hellinger"),
    "mode": (["--mode", "mixture"], "mixture"),
    "keep_samples": (["--no-samples"], False),
    "update_posteriors": (["--update-posteriors"], True),
}


def _echoed_config(monkeypatch, argv):
    """The config a command would echo into its artifacts, without running it."""
    echoed = []
    _, help_text, options = COMMANDS[argv[0]]

    def capture(resolved):
        echoed.append(report.meta(argv[0], resolved, seed=None)["config"])
        return [], ""

    monkeypatch.setitem(COMMANDS, argv[0], (capture, help_text, options))
    assert main(argv) == 0
    return echoed[0]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flag_and_config_key_set_the_same_value(command, monkeypatch, tmp_path):
    _, _, options = COMMANDS[command]
    names = [*options, "out_dir"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({name: OPTION_SAMPLES[name][1] for name in names}))
    by_flag = _echoed_config(
        monkeypatch, [command] + [arg for name in names for arg in OPTION_SAMPLES[name][0]]
    )
    by_config = _echoed_config(monkeypatch, [command, "--config", str(config)])
    assert by_flag == by_config
    for name, option in options.items():
        assert by_flag[name] != option.default, name


# how the help shows the allowed values of each choice option
CHOICE_METAVARS = {
    "--delimiter": "{,,tab,;,\\\\t,\\t}",
    "--cluster-on": "{profile,hellinger}",
    "--mode": "{average,mixture}",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_every_option(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    _, _, options = COMMANDS[command]
    for name, option in options.items():
        flag = option.flag_name(name)
        assert flag in text
        if flag in CHOICE_METAVARS:
            assert f"{flag} {CHOICE_METAVARS[flag]}" in text


@pytest.mark.parametrize("argv", [
    ["interval", "--failed", "1", "--inspected", "2", "--bogus", "x"],
    ["operators", "--input", "export.csv", "--alpha", "0.5"],
])
def test_unknown_flag_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ------------------------------------------------------------ fuzzed exports

_ROWS = _EXPORT.split("\n")[1:] + ["22,BW,STD,2,Material A,0,1"] * 8 + ["22,BW,STD,2,Material A,0,2"] * 2
_INGEST_RUNS = {
    "summarize": ["summarize"],
    "operators": ["operators", "--min-inspected", "1", "--iterations", "300", "--resamples", "10"],
}


@st.composite
def mutated_exports(draw):
    """(mutation, export bytes): a valid two-operator export with one mutation at a drawn place."""
    lines = [HEADER] + _ROWS
    line = draw(st.integers(0, len(lines) - 1))
    column = draw(st.integers(0, HEADER.count(",")))
    mutation = draw(st.sampled_from([
        "empty", "header-only", "drop-column", "non-utf8", "nul", "unterminated-quote",
        "oversized-field",
    ]))
    cells = lines[line].split(",")
    if mutation == "empty":
        lines = []
    elif mutation == "header-only":
        lines = lines[:1]
    elif mutation == "drop-column":
        lines = [",".join(c for i, c in enumerate(row.split(",")) if i != column) for row in lines]
    elif mutation == "unterminated-quote":
        cells[column] = '"' + cells[column]
    elif mutation == "oversized-field":
        cells[column] = "x" * (csv.field_size_limit() + 1)
    if mutation in ("unterminated-quote", "oversized-field"):
        lines[line] = ",".join(cells)
    data = "".join(text + "\n" for text in lines).encode()
    if mutation in ("non-utf8", "nul"):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + (b"\xff" if mutation == "non-utf8" else b"\x00") + data[at:]
    return mutation, data


@pytest.mark.parametrize("command", sorted(_INGEST_RUNS))
@settings(max_examples=40, deadline=None)
@given(export=mutated_exports())
def test_mutated_export_keeps_the_exit_code_contract(command, export, tmp_path_factory):
    """A run either succeeds, or exits 2 or 3 with one error line and writes nothing."""
    mutation, data = export
    work = tmp_path_factory.mktemp("fuzz")
    (work / "export.csv").write_bytes(data)
    out = work / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(_INGEST_RUNS[command] + ["--input", str(work / "export.csv"), "--out-dir", str(out)])
    err = stderr.getvalue()
    if code == 0:
        assert err == "" and sorted(p.name for p in out.iterdir()) == WRITTEN_FILES[command][1]
    else:
        assert code in (2, 3)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
    # a table that cannot be read, or that holds no operator, never succeeds
    unreadable = ("empty", "drop-column", "non-utf8", "unterminated-quote", "oversized-field")
    if mutation in unreadable or (mutation, command) == ("header-only", "operators"):
        assert code != 0, mutation


# ------------------------------------------------------ fuzzed data files

#: (argv with file names standing for their paths, valid documents by file name);
#: a counts table is a list of rows by column name
_DOCUMENT_RUNS = {
    "interval": (["interval", "--config", "config.json"], {
        "config.json": {"failed": 3, "inspected": 40, "alpha": 0.1, "prior": [0.5, 0.5],
                        "classical": True},
    }),
    "complexity": (["complexity", "--counts", "counts.csv"], {
        "counts.csv": [{"label": "a", "inspected": 10, "repaired": 1, "total": 12},
                       {"label": "b", "inspected": 20, "repaired": 4, "total": 20}],
    }),
    "forecast": (["forecast", "--design", "design.json", "--iterations", "50"], {
        "design.json": {"types": {"t1": {"failed": 1, "inspected": 10}},
                        "welds": [{"key": "t1", "count": 3},
                                  {"key": "t2", "failed": 2, "inspected": 30}]},
    }),
    "rework": (["rework", "--specs", "specs.json", "--actuals", "actuals.json",
                "--iterations", "50"], {
        "specs.json": {"products": [_PRODUCT, {**_PRODUCT, "key": "t1", "efficiency": 1.5}]},
        "actuals.json": {"hours": [1.5], "results": [1]},
    }),
}


def _paths(node, path=()):
    """The path of every value below `node`, by key or list index."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _encode(name: str, document) -> bytes:
    if not name.endswith(".csv"):
        return json.dumps(document).encode()
    text = io.StringIO()
    header = list(dict.fromkeys(key for row in document for key in row))
    writer = csv.DictWriter(text, header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(document)
    return text.getvalue().encode()


@st.composite
def mutated_documents(draw, command):
    """(mutation, file name, file bytes): one data file of a valid run with one mutation."""
    name = draw(st.sampled_from(sorted(_DOCUMENT_RUNS[command][1])))
    document = json.loads(json.dumps(_DOCUMENT_RUNS[command][1][name]))
    mutation = draw(st.sampled_from([
        "drop-key", "swap-type", "nan", "infinity", "negative", "huge", "empty", "non-utf8",
    ]))
    if mutation in ("empty", "non-utf8"):
        data = b"" if mutation == "empty" else _encode(name, document)
        if mutation == "non-utf8":
            at = draw(st.integers(0, len(data)))
            data = data[:at] + b"\xff" + data[at:]
        return mutation, name, data
    if name.endswith(".csv"):  # a column of the table, in every row
        column = draw(st.sampled_from(sorted(document[0])))
        targets = [(row, column) for row in document]
    else:
        *parents, key = draw(st.sampled_from(list(_paths(document))))
        if mutation == "drop-key":
            # a key of the innermost mapping on the path
            while parents and not isinstance(key, str):
                *parents, key = parents
        container = document
        for step in parents:
            container = container[step]
        targets = [(container, key)]
    for container, key in targets:
        value = container[key]
        if mutation == "drop-key":
            del container[key]
        elif mutation == "swap-type":
            container[key] = "text" if not isinstance(value, str) else [value]
        else:
            container[key] = {"nan": math.nan, "infinity": math.inf, "huge": 10**30,
                              "negative": -abs(value) - 1 if isinstance(value, (int, float))
                              else -1}[mutation]
    return mutation, name, _encode(name, document)


@pytest.mark.parametrize("command", sorted(_DOCUMENT_RUNS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_mutated_data_file_keeps_the_exit_code_contract(command, data, tmp_path_factory):
    """A run either succeeds, or exits 2, 3 or 4 with one error line and writes nothing."""
    mutation, mutated, content = data.draw(mutated_documents(command))
    argv, documents = _DOCUMENT_RUNS[command]
    work = tmp_path_factory.mktemp("fuzz")
    for name, document in documents.items():
        (work / name).write_bytes(content if name == mutated else _encode(name, document))
    out = work / "out"
    argv = [str(work / arg) if arg in documents else arg for arg in argv]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out-dir", str(out)])
    err = stderr.getvalue()
    if code == 0:
        assert err == "" and sorted(p.name for p in out.iterdir()) == WRITTEN_FILES[command][1]
    else:
        assert code in (2, 3, 4)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and not out.exists()
    if mutation in ("empty", "non-utf8"):
        assert code != 0, mutation


def test_reused_parser_resolves_each_call_alone(monkeypatch):
    assert build_parser() is build_parser()
    first = _echoed_config(monkeypatch, [
        "summarize", "--input", "a.csv", "--where", "operator_id=11", "--group-by", "nps,schedule",
    ])
    second = _echoed_config(monkeypatch, [
        "summarize", "--input", "b.csv", "--where", "weld_kind=BW", "--where", "nps=4.0",
        "--group-by", "material",
    ])
    third = _echoed_config(monkeypatch, ["summarize", "--input", "c.csv"])
    assert (first["input"], first["where"], first["group_by"]) == (
        "a.csv", ["operator_id=11"], ["nps", "schedule"])
    assert (second["input"], second["where"], second["group_by"]) == (
        "b.csv", ["weld_kind=BW", "nps=4"], ["material"])
    assert (third["input"], third["where"], third["group_by"]) == (
        "c.csv", [], list(DEFAULT_GROUP_BY))


def test_importing_the_cli_loads_no_test_only_package():
    """numpy is the one runtime dependency: scipy, mpmath and hypothesis serve the tests."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, weldqc.cli; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    loaded = {name.partition(".")[0] for name in done.stdout.split()}
    assert "weldqc" in loaded and "numpy" in loaded
    assert not loaded & {"scipy", "mpmath", "hypothesis"}
