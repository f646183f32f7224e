import json

import pytest

from weldqc.cli import main

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

    def test_no_match_is_config_error(self, records_csv, tmp_path):
        assert main([
            "operators", "--input", str(records_csv), "--nps", "99",
            "--min-inspected", "1", "--out-dir", str(tmp_path),
        ]) == 3

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

    def test_unresolved_type(self, tmp_path):
        path = tmp_path / "bad_design.json"
        path.write_text(json.dumps({"welds": [{"key": "ghost", "count": 2}]}))
        assert main(["forecast", "--design", str(path), "--out-dir", str(tmp_path)]) == 3


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
    "specs-json-list": (
        {"specs.json": b"[]"}, ["rework", "--specs", "specs.json"], 2, "JSON object",
    ),
    "actuals-hours-list": (
        {"specs.json": _SPECS, "actuals.json": _json_bytes({"hours": ["a"], "results": [0]})},
        ["rework", "--specs", "specs.json", "--actuals", "actuals.json"], 2, "actuals",
    ),
    "export-missing": ({}, ["summarize", "--input", "export.csv"], 2, "cannot read input"),
    "export-field-over-csv-limit": (
        {"export.csv": (_EXPORT + "\n11,BW,STD,2," + "x" * 200_000 + ",0,1\n").encode()},
        ["summarize", "--input", "export.csv"], 2, "field limit",
    ),
    "export-not-utf8": (
        {"export.csv": (_EXPORT + "\n11,BW,STD,2,Mat\xe9rial A,0,1\n").encode("latin-1")},
        ["summarize", "--input", "export.csv"], 2, "UTF-8",
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
    "rework-negative-seed": (
        {"specs.json": _SPECS}, ["rework", "--specs", "specs.json", "--seed", "-1"], 3, "seed",
    ),
    "forecast-negative-seed": (
        {"design.json": _DESIGN}, ["forecast", "--design", "design.json", "--seed", "-1"], 3,
        "seed",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_maps_to_exit_code(case, tmp_path, capsys):
    files, argv, expected_code, needle = MALFORMED_INPUTS[case]
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    out = tmp_path / "out"
    argv = [str(tmp_path / arg) if arg.endswith((".csv", ".json")) else arg for arg in argv]
    code = main(argv + ["--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == expected_code
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err
    assert not out.exists() or not any(out.iterdir())
