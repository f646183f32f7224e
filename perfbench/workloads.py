"""The three benchmark workloads: inputs, timed steps and correctness checks.

A workload writes its seeded inputs, lists its steps in the order one caller
runs them (each step starts only after the previous one returned), and checks
the artifacts of a pass afterwards, outside the timed region.  CLI steps go
through `weldqc.cli.main(argv)`; the fidelity step calls the library.

Layer modules are looked up through `sys.modules` at call time, so the
functions the tracer wraps are the ones a step reaches.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

#: criterion 03 thresholds: MAE of the lower/upper endpoints, RMSE at 1.5x
FIDELITY_MAE = (0.002, 0.003)
FIDELITY_CHAINS = 30
FORECAST_ITERATIONS = 1_000
CLUSTERS = 7
#: a mean within this many standard errors of its closed form passes
SE_LIMIT = 5.0
#: the A/B check takes the largest of 780 pair sums: 6 SE keeps false alarms below 1e-5 a run
MATRIX_SE_LIMIT = 6.0
#: artifacts hold six decimals; allow half a unit in the last place
ROUNDING = 5e-7


def weldqc(module: str):
    return sys.modules[f"weldqc.{module}"]


@dataclass
class Step:
    name: str
    run: Callable[[], object]
    calls: int = 1


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Prepared:
    """Inputs written for one workload plus what the checks need to know."""

    work: Path
    seed: int
    files: dict[str, bytes]
    facts: dict

    @property
    def sizes(self) -> dict:
        sizes = {key: value for key, value in self.facts.items() if isinstance(value, int)}
        return dict(sizes, bytes=sum(len(data) for data in self.files.values()))


def cli_call(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = weldqc("cli").main(argv)
    if code != 0:
        raise RuntimeError(f"weldqc {' '.join(argv)} exited with {code}")
    return code


def cli_step(name: str, argv: list[str]) -> Step:
    return Step(name, lambda: cli_call(argv))




def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a weldqc CSV artifact (comment lines skipped)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def out(prepared: Prepared, step: str) -> Path:
    return prepared.work / "out" / step


# -------------------------------------------------------------------- export


def export_steps(prepared: Prepared) -> list[Step]:
    source = str(prepared.work / "inputs" / "export.csv")
    busiest = prepared.facts["busiest"]
    return [
        cli_step("summarize", ["summarize", "--input", source,
                               "--out-dir", str(out(prepared, "summarize"))]),
        cli_step("operators", [
            "operators", "--input", source, "--seed", str(prepared.seed),
            "--nps", busiest["nps"], "--schedule", busiest["schedule"],
            "--material", busiest["material"], "--weld-kind", busiest["weld_kind"],
            "--out-dir", str(out(prepared, "operators")),
        ]),
    ]


def export_checks(prepared: Prepared, results: dict) -> list[Check]:
    facts = prepared.facts
    summary_dir = out(prepared, "summarize")
    ingest = read_json(summary_dir / "rejections.json")
    expected = {"blank_field": facts["blank_field"], "invalid_status": facts["invalid_status"]}
    rejected_ok = (
        ingest["rejections"] == expected
        and len(ingest["parse_issues"]) == facts["unparseable_status"]
        and ingest["rows_parsed"] == facts["rows"]
    )
    groups = read_json(summary_dir / "summary.json")["groups"]
    welds = sum(g["total_welds"] for g in groups)

    _, rows = read_table(out(prepared, "operators") / "ab_matrix.csv")
    matrix = np.array([[float(v) for v in row[1:]] for row in rows])
    size = facts["operators"]
    resamples = weldqc("ab").DEFAULT_RESAMPLES
    # each cell is a mean of Bernoulli(<= 1/2) draws; a pair sums two cells
    tolerance = MATRIX_SE_LIMIT * math.sqrt(2 * 0.25 / resamples) + 2 * ROUNDING
    square = matrix.shape == (size, size)
    deviation = float(np.abs(matrix + matrix.T - 1.0).max()) if square else math.inf
    matrix_ok = square and bool(np.all(np.diag(matrix) == 0.5)) and deviation <= tolerance
    return [
        Check("rejections_match_injected", rejected_ok,
              f"{ingest['rejections']}, {len(ingest['parse_issues'])} parse issues; "
              f"injected {expected}"),
        Check("total_welds_equal_rows_kept", welds == ingest["rows_kept"],
              f"{welds} vs {ingest['rows_kept']}"),
        Check("ab_matrix_complementary", matrix_ok,
              f"shape {matrix.shape}, max |M+M^T-1| {deviation:.5f} <= {tolerance:.5f}"),
    ]


# ----------------------------------------------------------------- portfolio

PORTFOLIO_STEPS = (("complexity_profile", "profile"), ("complexity_hellinger", "hellinger"))


def portfolio_steps(prepared: Prepared) -> list[Step]:
    counts = str(prepared.work / "inputs" / "counts.csv")
    return [
        cli_step(name, ["complexity", "--counts", counts, "--clusters", str(CLUSTERS),
                        "--cluster-on", cluster_on, "--out-dir", str(out(prepared, name))])
        for name, cluster_on in PORTFOLIO_STEPS
    ]


def _reference_partitions(prepared: Prepared) -> dict[str, set[frozenset[str]]]:
    """k-cluster partitions from scipy complete linkage; empty without scipy.

    The Hellinger matrix comes from the library; the profile distances, the
    linkage and the cut come from scipy, so the check covers the library's
    profile step, linkage and cut.
    """
    try:
        from scipy.cluster.hierarchy import fcluster, linkage
        from scipy.spatial.distance import pdist, squareform
    except ImportError:
        return {}
    bayes, complexity = weldqc("bayes"), weldqc("complexity")
    rows = [line.split(",") for line in prepared.files["counts.csv"].decode().splitlines()[1:]]
    labels = [r[0] for r in rows]
    posteriors = [bayes.posterior(bayes.CountData(int(r[2]), int(r[1]))) for r in rows]
    hellinger = complexity.distance_matrix(posteriors, labels).values
    condensed = {
        "profile": pdist(hellinger, "euclidean"),
        "hellinger": squareform(hellinger, checks=False),
    }
    partitions = {}
    for cluster_on, distances in condensed.items():
        assignment = fcluster(linkage(distances, method="complete"), CLUSTERS, "maxclust")
        clusters: dict[int, set[str]] = {}
        for label, cluster in zip(labels, assignment):
            clusters.setdefault(int(cluster), set()).add(label)
        partitions[cluster_on] = {frozenset(members) for members in clusters.values()}
    return partitions


def portfolio_checks(prepared: Prepared, results: dict) -> list[Check]:
    n = prepared.facts["types"]
    checks = []
    header, rows = read_table(out(prepared, "complexity_profile") / "hellinger_matrix.csv")
    h = np.array([[float(v) for v in row[1:]] for row in rows])
    checks.append(Check(
        "hellinger_symmetric_unit",
        h.shape == (n, n) and bool(np.all(h == h.T)) and bool(np.all(np.diag(h) == 0.0))
        and float(h.min()) >= 0.0 and float(h.max()) <= 1.0,
        f"shape {h.shape}, range [{h.min()}, {h.max()}]",
    ))
    header, rows = read_table(out(prepared, "complexity_profile") / "complexity_scores.csv")
    scaled = [float(row[header.index("scaled_score")]) for row in rows]
    checks.append(Check("scores_span_0_10", min(scaled) == 0.0 and max(scaled) == 10.0,
                        f"[{min(scaled)}, {max(scaled)}]"))
    labels = {row[0] for row in rows}
    references = _reference_partitions(prepared)
    for name, cluster_on in PORTFOLIO_STEPS:
        directory = out(prepared, name)
        _, cluster_rows = read_table(directory / "clusters.csv")
        members = [row[1].split("|") for row in cluster_rows]
        flat = [label for group in members for label in group]
        checks.append(Check(
            f"{name}_clusters_cover_types",
            len(members) == CLUSTERS and len(flat) == n and set(flat) == labels,
            f"{len(members)} clusters over {len(flat)} members",
        ))
        heights = [m["height"] for m in read_json(directory / "dendrogram.json")["merges"]]
        checks.append(Check(
            f"{name}_heights_nondecreasing",
            len(heights) == n - 1 and all(a <= b for a, b in zip(heights, heights[1:])),
            f"{len(heights)} merges",
        ))
        if cluster_on in references:
            checks.append(Check(f"{name}_matches_scipy",
                                {frozenset(group) for group in members} == references[cluster_on]))
    return checks


# ------------------------------------------------------------------ planning


def planning_steps(prepared: Prepared) -> list[Step]:
    source = prepared.work / "inputs"
    seed = ["--seed", str(prepared.seed)]
    rework = ["rework", "--specs", str(source / "specs.json"),
              "--actuals", str(source / "actuals.json"), *seed]
    return [
        cli_step("forecast", ["forecast", "--design", str(source / "design.json"),
                              "--iterations", str(FORECAST_ITERATIONS), *seed,
                              "--out-dir", str(out(prepared, "forecast"))]),
        cli_step("rework", [*rework, "--out-dir", str(out(prepared, "rework"))]),
        cli_step("rework_update", [*rework, "--update-posteriors",
                                   "--out-dir", str(out(prepared, "rework_update"))]),
    ]


def _jeffreys(failed: int, inspected: int) -> tuple[float, float]:
    return failed + 0.5, inspected - failed + 0.5


def planning_checks(prepared: Prepared, results: dict) -> list[Check]:
    checks = []
    design = json.loads(prepared.files["design.json"])
    n_welds, mean, var = 0, 0.0, 0.0
    for weld in design["welds"]:
        a, b = _jeffreys(**design["types"][weld["key"]])
        n_welds += weld["count"]
        mean += weld["count"] * a / (a + b)
        var += weld["count"] * a * b / ((a + b) ** 2 * (a + b + 1.0))
    forecast = read_json(out(prepared, "forecast") / "forecast.json")
    got = float(np.mean(forecast["samples"]))
    error = SE_LIMIT * math.sqrt(var / FORECAST_ITERATIONS) / n_welds + ROUNDING
    checks.append(Check("forecast_mean_closed_form", abs(got - mean / n_welds) <= error,
                        f"{got:.7f} vs {mean / n_welds:.7f} +- {error:.2g}"))

    products = json.loads(prepared.files["specs.json"])["products"]
    mean = var = 0.0
    for product in products:
        a, b = _jeffreys(product["failed"], product["inspected"])
        hours = product["efficiency"] * product["estimated_hours"]
        # p/(1-p) under Beta(a, b): mean a/(b-1), variance a(a+b-1)/((b-1)^2 (b-2))
        mean += hours * a / (b - 1.0)
        var += hours**2 * a * (a + b - 1.0) / ((b - 1.0) ** 2 * (b - 2.0))
    completed = prepared.facts["completed"]
    for name in ("rework", "rework_update"):
        directory = out(prepared, name)
        document = read_json(directory / "rework.json")
        error = SE_LIMIT * math.sqrt(var / document["iterations"]) + ROUNDING
        checks.append(Check(f"{name}_mean_closed_form", abs(document["mean"] - mean) <= error,
                            f"{document['mean']:.4f} vs {mean:.4f} +- {error:.2g}"))
        _, rows = read_table(directory / "control_chart.csv")
        checks.append(Check(f"{name}_chart_states", len(rows) == completed + 1,
                            f"{len(rows)} states for {completed} completed"))
    return checks


# ------------------------------------------------------------------ fidelity


def _pairs(prepared: Prepared) -> list[tuple[int, int]]:
    return [tuple(pair) for pair in json.loads(prepared.files["pairs.json"])["pairs"]]


def fidelity_run(prepared: Prepared):
    """Averaged empirical 95% intervals of 30 chains vs the analytic ones."""
    bayes, mcmc = weldqc("bayes"), weldqc("mcmc")
    numeric, analytic = [], []
    for index, (failed, inspected) in enumerate(_pairs(prepared)):
        counts = bayes.CountData(failed, inspected)
        config = mcmc.ChainConfig(seed=prepared.seed * inputs.FIDELITY_PAIRS + index)
        chains = mcmc.sample_chains(counts, bayes.JEFFREYS, config, n_chains=FIDELITY_CHAINS)
        intervals = [mcmc.empirical_interval(chain) for chain in chains]
        numeric.append(bayes.CredibleInterval(
            float(np.mean([i.lower for i in intervals])),
            float(np.mean([i.upper for i in intervals])),
            0.95,
        ))
        analytic.append(bayes.credible_interval(bayes.posterior(counts, bayes.JEFFREYS)))
    return numeric, analytic, mcmc.residual_metrics(numeric, analytic)


def fidelity_steps(prepared: Prepared) -> list[Step]:
    pairs = _pairs(prepared)
    argvs = [
        ["interval", "--failed", str(x), "--inspected", str(n), "--classical",
         "--out-dir", str(out(prepared, "interval") / f"{i:02d}")]
        for i, (x, n) in enumerate(pairs)
    ]
    return [
        Step("fidelity", lambda: fidelity_run(prepared)),
        Step("interval", lambda: [cli_call(argv) for argv in argvs], calls=len(argvs)),
    ]


def fidelity_checks(prepared: Prepared, results: dict) -> list[Check]:
    numeric, analytic, report = results["fidelity"]
    mae_lo, mae_hi = FIDELITY_MAE
    limits_ok = (
        report.mae_lower <= mae_lo and report.mae_upper <= mae_hi
        and report.rmse_lower <= 1.5 * mae_lo and report.rmse_upper <= 1.5 * mae_hi
    )
    cli_ok = True
    for i, interval in enumerate(analytic):
        written = read_json(out(prepared, "interval") / f"{i:02d}" / "interval.json")
        ci = written["credible_interval"]
        cli_ok &= (
            abs(ci["lower"] - interval.lower) <= ROUNDING
            and abs(ci["upper"] - interval.upper) <= ROUNDING
            and set(written["classical_intervals"]) == {"wald", "wilson", "agresti_coull"}
        )
    return [
        Check("mcmc_residuals_within_criterion_03", limits_ok,
              f"MAE {report.mae_lower:.5f}/{report.mae_upper:.5f}, "
              f"RMSE {report.rmse_lower:.5f}/{report.rmse_upper:.5f}"),
        Check("interval_cli_matches_library", cli_ok),
    ]


# ---------------------------------------------------------------- simulation


def simulation_steps(prepared: Prepared) -> list[Step]:
    return planning_steps(prepared) + fidelity_steps(prepared)


def simulation_checks(prepared: Prepared, results: dict) -> list[Check]:
    return planning_checks(prepared, results) + fidelity_checks(prepared, results)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[np.random.Generator], tuple[dict[str, bytes], dict]]
    steps: Callable[[Prepared], list[Step]]
    checks: Callable[[Prepared, dict], list[Check]]

    def setup(self, work: Path, seed: int) -> Prepared:
        """Generate the seeded inputs and write them under `work/inputs`."""
        files, facts = self.generate(np.random.default_rng(seed))
        target = work / "inputs"
        target.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            (target / name).write_bytes(data)
        return Prepared(work, seed, files, facts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("export", inputs.export, export_steps, export_checks),
        Workload("portfolio", inputs.portfolio, portfolio_steps, portfolio_checks),
        Workload("simulation", inputs.simulation, simulation_steps, simulation_checks),
    )
}

#: every timed step of every workload, for the per-step metrics
STEP_NAMES = (
    "summarize", "operators", "complexity_profile", "complexity_hellinger",
    "forecast", "rework", "rework_update", "fidelity", "interval",
)
