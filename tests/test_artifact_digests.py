"""Every artifact of the six commands, pinned byte for byte on tiny inputs.

Each case runs one command at a fixed seed in a fresh directory, with
relative input paths and its output directory from WELDQC_OUT, so the
config echoed into the artifacts holds no temporary path.  A change to
payload assembly, formatting or a numeric kernel that moves any byte of
any artifact fails here; the digests change only with a stated reason.
"""

import hashlib
import json
from pathlib import Path

import pytest

from weldqc.cli import OUT_DIR_ENV, main

HEADER = "operator_id,weld_kind,schedule,nps,material,project_type,inspection_status"
EXPORT = "\n".join(
    [HEADER]
    + ["11,BW,STD,2,Material A,0,1"] * 40 + ["11,BW,STD,2,Material A,0,2"] * 5
    + ["22,BW,STD,2,Material A,0,1"] * 30 + ["22,BW,STD,2,Material A,0,2"]
    + ["33,BW,XS,4,Material B,0,1"] * 20 + ["33,BW,XS,4,Material B,0,2"] * 3
    + ["44,BW,,2,Material A,0,1", "55,BW,STD,2,Material A,0,7", "66,BW,STD"]
) + "\n"
COUNTS = (
    'label,inspected,repaired,total\n"elbow, 2in",120,9,400\ntee,80,2,150\n'
    "flange,300,11,900\nreducer,45,4,60\ncap,200,3,210\n"
)
DESIGN = {
    "types": {"t1": {"failed": 2, "inspected": 40}},
    "welds": [{"key": "t1", "count": 3}, {"key": "t2", "failed": 5, "inspected": 60}],
}
SPECS = {"products": [
    {"key": "p", "failed": 3, "inspected": 30, "estimated_hours": 4.0},
    {"key": "p", "failed": 3, "inspected": 30, "estimated_hours": 2.5, "efficiency": 0.8},
    {"key": "q", "failed": 1, "inspected": 50, "estimated_hours": 6.0},
    {"failed": 7, "inspected": 40, "estimated_hours": 1.5},
]}
ACTUALS = {"hours": [1.0, 0.0], "results": [1, 0]}
INPUTS = {
    "export.csv": EXPORT,
    "counts.csv": COUNTS,
    "design.json": json.dumps(DESIGN),
    "specs.json": json.dumps(SPECS),
    "actuals.json": json.dumps(ACTUALS),
}

_CHAINS = ["--min-inspected", "10", "--iterations", "600", "--burn-in", "100", "--seed", "7"]
_REWORK = ["rework", "--specs", "specs.json", "--actuals", "actuals.json", "--iterations", "500"]
CASES = {
    "summarize": ["summarize", "--input", "export.csv"],
    "interval": ["interval", "--failed", "3", "--inspected", "40", "--classical"],
    "operators": ["operators", "--input", "export.csv", *_CHAINS],
    "operators-resamples": ["operators", "--input", "export.csv", *_CHAINS, "--resamples", "500"],
    "complexity-counts": ["complexity", "--counts", "counts.csv", "--clusters", "3"],
    "complexity-hellinger": ["complexity", "--counts", "counts.csv", "--cluster-on", "hellinger"],
    "complexity-input": ["complexity", "--input", "export.csv", "--group-by", "nps,material"],
    "forecast": ["forecast", "--design", "design.json", "--iterations", "300", "--seed", "3"],
    "forecast-mixture": ["forecast", "--design", "design.json", "--mode", "mixture", "--no-samples"],
    "rework": [*_REWORK, "--seed", "5"],
    "rework-update": [*_REWORK, "--seed", "5", "--update-posteriors"],
}

#: sha256 of each artifact, by case and file name
DIGESTS = {
    "complexity-counts": {
        "clusters.csv": "dfbc176a7360e4ddd4cb3223170977015509d8e0c0947e4e92bc0f7e4872bf81",
        "complexity_scores.csv": "3c367054a21c065b1854735315b1ed2c21cb761af87e276e3e6f1d369d25cf94",
        "dendrogram.json": "4876b08ce15de47469b479c6ba548e64ee2b5953feb6cd77c2b161f1206ff012",
        "dendrogram.svg": "eb6fb16c8df89215cdd3273176d85c9aac97ed1cf022694f32229c6dc7e205ed",
        "hellinger_matrix.csv": "b6cb218c3686f086015997b83aae337499af3f12362baa4ca080629b0a6a9013",
    },
    "complexity-hellinger": {
        "clusters.csv": "5bd2867ad3f37a5c25e52a57e2b91863fbc57b330a1bdfc5b67a9742be4ae04b",
        "complexity_scores.csv": "64bdf34ddd6eef14949e593fe2a0414c75081d3fcc59c756e70da4503beb46b7",
        "dendrogram.json": "b4d12126fbe961ec9b9ecb194d237cc9369295f99ec2c8814746a51ee2f7f4dc",
        "dendrogram.svg": "b5f56b827c1a2cc2145581e7ff9d1326d3313ee8999924392406186ea164a37a",
        "hellinger_matrix.csv": "e6352a844bfb20b18354c90500699e78336c4d7bbcf8e2ac0a332f66f8ad1a3b",
    },
    "complexity-input": {
        "clusters.csv": "9f9dc9de5cef63550b2ee8f0c2b67d3601958f75253397928a9a6acb0cea1f13",
        "complexity_scores.csv": "736103f04e44990393f1dd205b89d8259c7eeb8a9b19cc96d58888d48c34e1a9",
        "dendrogram.json": "e257446789e27dea0665c795c82e24c90afdd2a8ff317742a4b80f0be01ff6e1",
        "dendrogram.svg": "8edca036edde88e2b8b27f5e7635b663aae1e306963bab420847638b02d40d33",
        "hellinger_matrix.csv": "700dae016546ef602bf198742f84b315355f058e38961a1896d69f70e8f54dfb",
    },
    "forecast": {
        "forecast.json": "f0244af4659864d854237785e6ef4502650cd809d0b6cb6270572d4e22af39a7",
        "forecast_histogram.svg": "89150eee8a416a9552d425f96a24670bd1da4010fae3c36670d422eef54f2093",
        "forecast_quantiles.csv": "96ab11a22e2aff66d76209351c1b49b7b7a01cb537cd4fc10d5f95dc14b415ec",
    },
    "forecast-mixture": {
        "forecast.json": "bb0f18e6bbdab4cd3331056743cb5518ff56365689c9d168dfc5e0a7fb6dfc4f",
        "forecast_histogram.svg": "740715a674516346bcc3a6a8fd83c7832b1f1b311b39c486567ad6b6531b748a",
        "forecast_quantiles.csv": "1fff4b454504f22261cf1fcf7712c10ae471e09b96b857f7e88965ca414f1076",
    },
    "interval": {
        "interval.json": "161ff35177b40834fec3e1b383c019b5a791746571a53670f0032d4eb7a2a2e4",
    },
    "operators": {
        "ab_matrix.csv": "2ad230eaf71e4397194253d11a48dd596ffffc59726ad788bd49933e291031e6",
        "operators.csv": "44dc9a79c91e8fe15efcf519a4387c05b9a00762deba2eff0d1b46b217f2e893",
        "operators_boxplot.svg": "adddad07066a8b0afd6e3364c69d3d8fc0927d5990914d30c288ceb3ad3e3ced",
    },
    "operators-resamples": {
        "ab_matrix.csv": "2361b65662fd3b31f7c5535a88700fa666913e21e0811a46faf368a5184f4c53",
        "operators.csv": "1d534b6d53a5c3c7c4af44e64d3baafed2ce775901829880a6b0bbbc02d52ff4",
        "operators_boxplot.svg": "cd265142f872029b514f1e4aa476d94d6c0d78e343a71b326d942df09e32923f",
    },
    "rework": {
        "control_chart.csv": "24ef9d926756bece1302a746c8fec84aabafba880cc598f9e0847d9fab37fdbd",
        "control_chart.json": "f92ee6ba83a897bd0a8e5d251749905e4e1c7886390aad4490b3f989ffd5fe8f",
        "control_chart.svg": "484e0bb068d32da31ffb58ebfa38ff77f91fc222558ad3d7d0ce7c04a6df7b06",
        "rework.json": "996b30501d16c63d9d975b850c27b4b7b510a8fb3cd01b4cc8ebdceda320b3d0",
        "rework_quantiles.csv": "4567abbfb85f55a4e921722e97eb1fdcd5a0b13231fa2db538f20ac73d406a9c",
    },
    "rework-update": {
        "control_chart.csv": "2bdd8ca7ae341a9c4926d8299acc4abe4819dcb86777401eac15661479f3d4fd",
        "control_chart.json": "798a5a7984ef43006ec613af7dfa4b68038611eb288bc39701d6a53bb1d9ee80",
        "control_chart.svg": "d8d8ca0124275496d58d255413b08c658d3abd908599e3766a3175def73ae871",
        "rework.json": "1d1ca82273bb645bdcbed54ce2e294bf929eda7b41bdcb75f3f23d897c7c0c1a",
        "rework_quantiles.csv": "875aac673f4a0cece46c0006745431b1b4f779c2d90d0c54d9283929a74c6dbe",
    },
    "summarize": {
        "rejections.json": "674ac689e2e0232a418650ec4b0dcfbee5301fd8324c648f2c12253e9d2b51de",
        "summary.csv": "b02991b7ba556be5fc979e14b6e4ae7baeca477871c40da963a3ebd1d242ee02",
        "summary.json": "5ef17bcc81acec9a9458327499c18d759fb9c896bdfbbf23c1bd702069526332",
    },
}


def run_case(case, directory, monkeypatch):
    """sha256 of each artifact file `main` writes for the case, by file name."""
    monkeypatch.chdir(directory)
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")
    monkeypatch.setenv(OUT_DIR_ENV, "out")
    assert main(CASES[case]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path("out").iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_are_byte_identical(case, tmp_path, monkeypatch):
    assert run_case(case, tmp_path, monkeypatch) == DIGESTS[case]


def test_seedless_header_writes_json_null(tmp_path, monkeypatch):
    run_case("summarize", tmp_path, monkeypatch)
    header = (tmp_path / "out" / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert "# seed: null" in header
