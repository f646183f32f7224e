"""The benchmark's tracer still finds and reads every function it wraps.

`perfbench/tracing.py` wraps library functions by name and its count hooks
read their arguments and results by name, so a rename would break the traced
benchmark without failing any other test.  This runs the CLI under the tracer
on tiny inputs.
"""

import importlib.util
import json
from pathlib import Path

import weldqc.cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

ITERATIONS = 50
DESIGN = {
    "types": {"t1": {"failed": 1, "inspected": 10}, "t2": {"failed": 3, "inspected": 40}},
    "welds": [{"key": "t1", "count": 3}, {"key": "t2", "count": 1}, {"key": "t1", "count": 2}],
}
N_WELDS = 6
SPECS = {"products": [
    {"key": "t1", "failed": 1, "inspected": 10, "estimated_hours": 2.0},
    {"key": "t2", "failed": 3, "inspected": 40, "estimated_hours": 5.0},
]}
# two operators on one product type, so the A/B matrix has cells
EXPORT = "\n".join(
    ["operator_id,weld_kind,schedule,nps,material,project_type,inspection_status"]
    + ["11,BW,STD,2,Material A,0,1"] * 9 + ["11,BW,STD,2,Material A,0,2"]
    + ["22,BW,STD,2,Material A,0,1"] * 8 + ["22,BW,STD,2,Material A,0,2"] * 2
) + "\n"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_report_metrics(tmp_path):
    files = {
        "design.json": json.dumps(DESIGN).encode(),
        "specs.json": json.dumps(SPECS).encode(),
        "export.csv": EXPORT.encode(),
        "counts.csv": b"label,inspected,repaired\na,10,1\nb,20,4\nc,40,2\n",
    }
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    runs = [
        ["forecast", "--design", "design.json", "--iterations", str(ITERATIONS)],
        ["rework", "--specs", "specs.json", "--iterations", str(ITERATIONS)],
        ["operators", "--input", "export.csv", "--min-inspected", "1", "--iterations", "300",
         "--resamples", "10"],
        ["complexity", "--counts", "counts.csv"],
    ]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        for argv in runs:
            argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
            # looked up on the module, so the wrapped main runs
            assert weldqc.cli.main(argv + ["--out-dir", str(tmp_path / argv[0])]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["forecast.draws"] == ITERATIONS * N_WELDS
    assert metrics["mcmc.chains"] == 2 and metrics["ab.resamples"] == 2 * 10
    assert metrics["rework.draws"] > 0 and metrics["complexity.pairs"] == 3
    assert metrics["report.files"] == 3 + 5 + 3 + 5
    # rows, not distinct records: the export has 20 rows of 4 distinct lines
    assert metrics["ingest.rows_parsed"] == 20 and metrics["ingest.rows_rejected"] == 0
    assert json.loads((tmp_path / "forecast" / "forecast.json").read_text())["n_welds"] == N_WELDS
