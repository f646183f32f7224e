"""Command-line surface tying the analytics modules together.

Subcommands: summarize, interval, operators, complexity, forecast, rework.
Options resolve in three layers: built-in defaults, then a JSON config file
(--config), then explicit flags.  Every stochastic command runs under an
explicit or defaulted seed that is echoed into each output file.

Exit codes: 0 success, 2 input/schema error, 3 configuration error,
4 numeric/domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from . import __version__, ab, complexity, forecast, mcmc, render, report, rework
from .bayes import BetaParams, CountData, credible_interval, posterior
from .bayes import agresti_coull_interval, wald_interval, wilson_interval
from .errors import ConfigError, SchemaError, WeldQCError
from .ingest import (
    DEFAULT_GROUP_BY,
    KEY_FIELDS,
    TableSchema,
    clean,
    filter_records,
    filter_summaries,
    parse_records,
    summarize,
)
from .streams import derive_seed

OUT_DIR_ENV = "WELDQC_OUT"


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _strings(value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a list of strings")
    return value


def _choice(*allowed: str):
    def check(value) -> str:
        if value not in allowed:
            raise ValueError(f"expected one of {allowed}")
        return value

    return check


_DELIMITER = _choice(",", "tab", ";", "\\t", "\t")


def _pair(value) -> list[float]:
    a, b = value
    return [float(a), float(b)]


_REQUIRED = object()


def _resolve(args: argparse.Namespace, options: dict, file_config: dict) -> dict:
    """defaults <- config file <- explicit CLI flags, each coerced to its type.

    `options` maps every option of a command to its (default, type); a null
    config value means the default, and a _REQUIRED default must be set.
    """
    options = {**options, "out_dir": (None, str)}
    unknown = set(file_config) - set(options)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    resolved = {}
    for key, (default, kind) in options.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_config.get(key)
        if value is None:
            value = default
        if value is _REQUIRED:
            raise ConfigError(f"{args.command} requires --{key.replace('_', '-')}")
        if value is not None:
            try:
                value = kind(value)
            except (OverflowError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad value {value!r} for {key}: {exc}")
        resolved[key] = value
    return resolved


def _read_json(path: str, what: str, error_cls: type[WeldQCError]) -> dict:
    """The JSON object in a file; any failure to get one raises error_cls."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise error_cls(f"cannot read {what} file {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error_cls(f"{what} file is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise error_cls(f"{what} file must hold a JSON object")
    return document


@contextmanager
def _fields(record: str):
    """Map a missing or mistyped field of a data-file record to a SchemaError."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"{record} has a missing or malformed field: {exc}")


def _count_data(record: dict) -> CountData:
    return CountData(int(record["failed"]), int(record["inspected"]))


def _out_dir(resolved: dict) -> Path:
    return Path(resolved.get("out_dir") or os.environ.get(OUT_DIR_ENV) or ".")


def _delimiter(resolved: dict) -> str:
    name = resolved.get("delimiter", ",")
    return "\t" if name in ("tab", "\\t", "\t") else name


def _parse_where(pairs: list[str] | None) -> dict[str, str]:
    criteria = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--where expects field=value, got {pair!r}")
        field, value = pair.split("=", 1)
        criteria[field.strip()] = value.strip()
    return criteria


def _load_summaries(resolved: dict) -> tuple[list, dict]:
    parsed = parse_records(resolved["input"], TableSchema(_delimiter(resolved)))
    records, rejections = clean(parsed.records)
    where = _parse_where(resolved.get("where"))
    if where:
        records = filter_records(records, **where)
    summaries = summarize(records, tuple(resolved["group_by"]))
    info = {
        "rows_parsed": len(parsed.records),
        "parse_issues": [
            {"line": issue.line, "message": issue.message} for issue in parsed.issues
        ],
        "rejections": rejections.as_dict(),
        "rows_kept": len(records),
    }
    return summaries, info


# ---------------------------------------------------------------- summarize


def cmd_summarize(args: argparse.Namespace, file_config: dict) -> int:
    options = {
        "input": (_REQUIRED, str),
        "delimiter": (",", _DELIMITER),
        "group_by": (list(DEFAULT_GROUP_BY), _strings),
        "where": ([], _strings),
        "min_inspected": (0, int),
    }
    resolved = _resolve(args, options, file_config)
    summaries, ingest_info = _load_summaries(resolved)
    summaries = filter_summaries(summaries, min_inspected=resolved["min_inspected"])

    out = _out_dir(resolved)
    info = report.meta("summarize", resolved, seed=None)
    key_fields = [f for f in KEY_FIELDS if f in resolved["group_by"]]
    rows = [
        [getattr(s.key, f) for f in key_fields]
        + [s.total_welds, s.inspected_welds, s.repaired_welds]
        for s in summaries
    ]
    report.write_table(
        out / "summary.csv",
        key_fields + ["total_welds", "inspected_welds", "repaired_welds"],
        rows,
        info,
    )
    report.write_json(
        out / "summary.json",
        {
            "groups": [
                {
                    "key": s.key.as_dict(),
                    "total_welds": s.total_welds,
                    "inspected_welds": s.inspected_welds,
                    "repaired_welds": s.repaired_welds,
                }
                for s in summaries
            ]
        },
        info,
    )
    report.write_json(out / "rejections.json", ingest_info, info)
    print(f"wrote {len(summaries)} group summaries to {out}")
    return 0


# ------------------------------------------------------------------ interval


def cmd_interval(args: argparse.Namespace, file_config: dict) -> int:
    options = {
        "failed": (_REQUIRED, int),
        "inspected": (_REQUIRED, int),
        "alpha": (0.05, float),
        "prior": ([0.5, 0.5], _pair),
        "classical": (False, _flag),
    }
    resolved = _resolve(args, options, file_config)
    counts = CountData(resolved["failed"], resolved["inspected"])
    prior = BetaParams(*resolved["prior"])
    alpha = resolved["alpha"]
    params = posterior(counts, prior)
    interval = credible_interval(params, alpha)

    payload = {
        "counts": asdict(counts),
        "prior": asdict(prior),
        "posterior": asdict(params),
        "credible_interval": asdict(interval),
    }
    if resolved["classical"]:
        classical = {}
        for name, func in (
            ("wald", wald_interval),
            ("wilson", wilson_interval),
            ("agresti_coull", agresti_coull_interval),
        ):
            ci = func(counts, alpha)
            classical[name] = {"lower": ci.lower, "upper": ci.upper}
        payload["classical_intervals"] = classical

    out = _out_dir(resolved)
    info = report.meta("interval", resolved, seed=None)
    report.write_json(out / "interval.json", payload, info)
    print(
        f"credible interval [{report.fmt(interval.lower)}, {report.fmt(interval.upper)}] "
        f"at level {report.fmt(interval.level)}"
    )
    return 0


# ----------------------------------------------------------------- operators


def cmd_operators(args: argparse.Namespace, file_config: dict) -> int:
    options = {
        "input": (_REQUIRED, str),
        "delimiter": (",", _DELIMITER),
        "where": ([], _strings),
        "nps": (None, str),
        "schedule": (None, str),
        "material": (None, str),
        "weld_kind": (None, str),
        "min_inspected": (100, int),
        "prior": ([0.5, 0.5], _pair),
        "alpha": (0.05, float),
        "iterations": (10_000, int),
        "burn_in": (200, int),
        "proposal_sd": (0.05, float),
        "resamples": (ab.DEFAULT_RESAMPLES, int),
        "seed": (0, int),
        "group_by": (list(DEFAULT_GROUP_BY) + ["operator_id"], _strings),
    }
    resolved = _resolve(args, options, file_config)
    summaries, _ = _load_summaries(resolved)
    key_filter = {
        f: resolved[f]
        for f in ("nps", "schedule", "material", "weld_kind")
        if resolved[f] is not None
    }
    selected = filter_summaries(
        summaries, key_filter=key_filter, min_inspected=resolved["min_inspected"]
    )
    if not selected:
        raise ConfigError("no operator matches the key filter and threshold")

    prior = BetaParams(*resolved["prior"])
    seed = resolved["seed"]
    chains = []
    for index, summary in enumerate(selected):
        counts = CountData(summary.repaired_welds, summary.inspected_welds)
        config = mcmc.ChainConfig(
            iterations=resolved["iterations"],
            burn_in=resolved["burn_in"],
            proposal_sd=resolved["proposal_sd"],
            seed=derive_seed(seed, index),
        )
        chains.append((summary, mcmc.sample_posterior(counts, prior, config)))

    # ranked worst-first: descending median fraction nonconforming
    ranked = sorted(
        (
            (summary, chain, mcmc.empirical_five_number(chain))
            for summary, chain in chains
        ),
        key=lambda item: -item[2].median,
    )
    matrix = ab.pairwise_matrix(
        [chain for _, chain, _ in ranked], n=resolved["resamples"], seed=seed
    )

    out = _out_dir(resolved)
    info = report.meta("operators", resolved, seed=seed)
    ids = [summary.key.operator_id for summary, _, _ in ranked]
    report.write_table(
        out / "operators.csv",
        [
            "operator_id",
            "inspected_welds",
            "repaired_welds",
            "whisker_low",
            "q1",
            "median",
            "q3",
            "whisker_high",
        ],
        [
            [
                summary.key.operator_id,
                summary.inspected_welds,
                summary.repaired_welds,
                five.whisker_low,
                five.q1,
                five.median,
                five.q3,
                five.whisker_high,
            ]
            for summary, _, five in ranked
        ],
        info,
    )
    report.write_table(
        out / "ab_matrix.csv",
        ["operator_id"] + ids,
        [[ids[i]] + [matrix[i, j] for j in range(len(ids))] for i in range(len(ids))],
        info,
    )
    report.write_svg(
        out / "operators_boxplot.svg",
        render.boxplot_svg(ids, [five for _, _, five in ranked]),
        info,
    )
    print(f"ranked {len(ranked)} operators; outputs in {out}")
    return 0


# ---------------------------------------------------------------- complexity


def _counts_from_file(path: str, delimiter: str) -> list[dict]:
    """Counts table: label, inspected, repaired[, total] with a header row."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle, delimiter=delimiter, restval="")
            required = {"label", "inspected", "repaired"}
            if not reader.fieldnames or not required.issubset(set(reader.fieldnames)):
                raise SchemaError(
                    "counts file needs columns: label, inspected, repaired[, total]"
                )
            records = list(reader)
    except OSError as exc:
        raise SchemaError(f"cannot read counts file {path}: {exc.strerror}")
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"counts file is not a valid UTF-8 table: {exc}")
    if not records:
        raise SchemaError("counts file holds no rows")
    rows = []
    for number, record in enumerate(records, start=1):
        with _fields(f"counts row {number}"):
            rows.append(
                {
                    "label": record["label"].strip(),
                    "inspected": int(record["inspected"]),
                    "repaired": int(record["repaired"]),
                    "total": int(record["total"]) if record.get("total") else None,
                }
            )
    return rows


def cmd_complexity(args: argparse.Namespace, file_config: dict) -> int:
    options = {
        "input": (None, str),
        "counts": (None, str),
        "delimiter": (",", _DELIMITER),
        "where": ([], _strings),
        "group_by": (list(DEFAULT_GROUP_BY), _strings),
        "top": (None, int),
        "clusters": (None, int),
        "cluster_on": ("profile", _choice("profile", "hellinger")),
        "prior": ([0.5, 0.5], _pair),
    }
    resolved = _resolve(args, options, file_config)
    if resolved["counts"]:
        rows = _counts_from_file(resolved["counts"], _delimiter(resolved))
    elif resolved["input"]:
        summaries, _ = _load_summaries(resolved)
        rows = [
            {
                "label": "(" + ", ".join(s.key.as_dict().values()) + ")",
                "inspected": s.inspected_welds,
                "repaired": s.repaired_welds,
                "total": s.total_welds,
            }
            for s in summaries
        ]
    else:
        raise ConfigError("complexity requires --input or --counts")

    totals_known = all(r["total"] is not None for r in rows)
    rows.sort(key=lambda r: (-(r["total"] if totals_known else r["inspected"]), r["label"]))
    if resolved["top"]:
        rows = rows[: resolved["top"]]

    prior = BetaParams(*resolved["prior"])
    posteriors = [
        posterior(CountData(r["repaired"], r["inspected"]), prior) for r in rows
    ]
    labels = [r["label"] for r in rows]
    scores = complexity.complexity_scores(posteriors, labels)
    matrix = complexity.distance_matrix(posteriors, labels)
    cluster_input = (
        complexity.profile_distance_matrix(matrix)
        if resolved["cluster_on"] == "profile"
        else matrix
    )
    tree = complexity.agglomerative_cluster(cluster_input)
    k = resolved["clusters"] or min(7, len(rows))
    assignments = complexity.cut(tree, k)
    totals = [r["total"] for r in rows] if totals_known else None
    cluster_labels = complexity.label_clusters(assignments, scores, totals)

    out = _out_dir(resolved)
    info = report.meta("complexity", resolved, seed=None)
    letter_of = {}
    for label in cluster_labels:
        for member in label.members:
            letter_of[member] = label.letter
    report.write_table(
        out / "complexity_scores.csv",
        ["label", "inspected", "repaired", "median", "raw_score", "scaled_score", "cluster"],
        [
            [
                rows[i]["label"],
                rows[i]["inspected"],
                rows[i]["repaired"],
                scores[i].median,
                scores[i].raw,
                scores[i].scaled,
                letter_of[i],
            ]
            for i in range(len(rows))
        ],
        info,
    )
    report.write_table(
        out / "hellinger_matrix.csv",
        ["label"] + labels,
        [[labels[i]] + list(matrix.values[i]) for i in range(len(labels))],
        info,
    )
    report.write_json(out / "dendrogram.json", complexity.tree_to_dict(tree), info)
    report.write_table(
        out / "clusters.csv",
        ["cluster", "members", "mean_scaled_score", "total_welds", "business_share"],
        [
            [
                label.letter,
                "|".join(labels[i] for i in label.members),
                label.mean_score,
                label.total_welds if label.total_welds is not None else "",
                label.share if label.share is not None else "",
            ]
            for label in cluster_labels
        ],
        info,
    )
    report.write_svg(out / "dendrogram.svg", render.dendrogram_svg(tree), info)
    print(f"scored {len(rows)} product types into {k} clusters; outputs in {out}")
    return 0


# ------------------------------------------------------------------ forecast


def _write_quantiles(path: Path, table: list[tuple[float, float]], info: dict) -> dict:
    """One CSV row of quantiles headed 0%..100%; returns them keyed by those labels."""
    quantiles = {f"{round(level * 100)}%": value for level, value in table}
    report.write_table(path, list(quantiles), [list(quantiles.values())], info)
    return quantiles


def _load_design(path: str, prior: BetaParams) -> forecast.ProjectDesign:
    document = _read_json(path, "design", SchemaError)
    if not isinstance(document.get("welds"), list):
        raise SchemaError("design file needs a 'welds' list")
    type_counts: dict[str, CountData] = {}
    with _fields("design 'types'"):
        for key, spec in (document.get("types") or {}).items():
            with _fields(f"design type {key!r}"):
                type_counts[key] = _count_data(spec)
    entries = []
    posteriors = {}
    for number, weld in enumerate(document["welds"], start=1):
        with _fields(f"design weld #{number}"):
            key = str(weld.get("key", f"type-{len(entries) + 1}"))
            count = int(weld.get("count", 1))
            if "failed" in weld and "inspected" in weld:
                counts = _count_data(weld)
            elif key in type_counts:
                counts = type_counts[key]
            else:
                raise ConfigError(f"design references unresolved weld type {key!r}")
        entries.append((key, count))
        posteriors[key] = posterior(counts, prior)
    return forecast.ProjectDesign.from_type_counts(entries, posteriors)


def cmd_forecast(args: argparse.Namespace, file_config: dict) -> int:
    options = {
        "design": (_REQUIRED, str),
        "iterations": (forecast.DEFAULT_ITERATIONS, int),
        "seed": (0, int),
        "mode": ("average", str),
        "prior": ([0.5, 0.5], _pair),
        "keep_samples": (True, _flag),
    }
    resolved = _resolve(args, options, file_config)
    design = _load_design(resolved["design"], BetaParams(*resolved["prior"]))
    result = forecast.simulate_project(
        design,
        iterations=resolved["iterations"],
        seed=resolved["seed"],
        mode=resolved["mode"],
    )

    out = _out_dir(resolved)
    info = report.meta("forecast", resolved, seed=resolved["seed"])
    quantiles = _write_quantiles(out / "forecast_quantiles.csv", result.quantiles(), info)
    payload = {
        "n_welds": design.n_welds,
        "n_types": design.n_types,
        "iterations": result.iterations,
        "mode": result.mode,
        "quantiles": quantiles,
    }
    if resolved["keep_samples"]:
        payload["samples"] = [float(v) for v in result.samples]
    report.write_json(out / "forecast.json", payload, info)
    report.write_svg(
        out / "forecast_histogram.svg", render.histogram_svg(result.samples), info
    )
    print(
        f"project fraction nonconforming median {report.fmt(quantiles['50%'])} "
        f"over {result.iterations} iterations; outputs in {out}"
    )
    return 0


# -------------------------------------------------------------------- rework


def _load_specs(path: str, prior: BetaParams) -> list[rework.ProductSpec]:
    products = _read_json(path, "specs", SchemaError).get("products")
    if not isinstance(products, list) or not products:
        raise SchemaError("specs file needs a non-empty 'products' list")
    specs = []
    for number, product in enumerate(products, start=1):
        with _fields(f"product #{number}"):
            key = product.get("key")
            specs.append(
                rework.ProductSpec(
                    posterior=posterior(_count_data(product), prior),
                    estimated_hours=float(product["estimated_hours"]),
                    efficiency=float(product.get("efficiency", rework.DEFAULT_EFFICIENCY)),
                    key=None if key is None else str(key),
                )
            )
    return specs


def _load_actuals(path: str | None) -> tuple[list[float], list[int]]:
    if not path:
        return [], []
    document = _read_json(path, "actuals", SchemaError)
    with _fields("actuals file"):
        hours = [float(h) for h in document.get("hours", [])]
        results = [int(r) for r in document.get("results", [])]
    return hours, results


def cmd_rework(args: argparse.Namespace, file_config: dict) -> int:
    options = {
        "specs": (_REQUIRED, str),
        "actuals": (None, str),
        "iterations": (rework.DEFAULT_ITERATIONS, int),
        "seed": (0, int),
        "prior": ([0.5, 0.5], _pair),
        "update_posteriors": (False, _flag),
    }
    resolved = _resolve(args, options, file_config)
    specs = _load_specs(resolved["specs"], BetaParams(*resolved["prior"]))
    hours, results = _load_actuals(resolved["actuals"])
    seed = resolved["seed"]
    iterations = resolved["iterations"]

    estimate = rework.simulate_total_rework(specs, iterations, derive_seed(seed, 0))
    limits = rework.control_limits(estimate)
    series = rework.control_chart(
        specs,
        hours,
        results,
        iterations=iterations,
        seed=seed,
        limits=limits,
        update_posteriors=resolved["update_posteriors"],
    )

    out = _out_dir(resolved)
    info = report.meta("rework", resolved, seed=seed)
    quantiles = _write_quantiles(out / "rework_quantiles.csv", estimate.quantiles(), info)
    report.write_json(
        out / "rework.json",
        {
            "mean": estimate.mean,
            "iterations": estimate.iterations,
            "quantiles": quantiles,
            "limits": asdict(limits),
        },
        info,
    )
    report.write_table(
        out / "control_chart.csv",
        ["state", "median", "band_low", "band_high", "accrued_actual_hours", "flag"],
        [
            [p.state, p.median, p.band_low, p.band_high, p.accrued_actual_hours, p.flag]
            for p in series.points
        ],
        info,
    )
    report.write_json(
        out / "control_chart.json",
        {"limits": asdict(limits), "points": [asdict(p) for p in series.points]},
        info,
    )
    report.write_svg(out / "control_chart.svg", render.control_chart_svg(series), info)
    print(
        f"rework estimate median {report.fmt(limits.cl)} h "
        f"(LCL {report.fmt(limits.lcl)}, UCL {report.fmt(limits.ucl)}); outputs in {out}"
    )
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weldqc",
        description="Bayesian quality analytics for pass/fail inspection data",
    )
    parser.add_argument("--version", action="version", version=f"weldqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out-dir", dest="out_dir", help=f"output directory (default ${OUT_DIR_ENV} or .)")

    p = sub.add_parser("summarize", help="parse, clean and group raw inspection exports")
    common(p)
    p.add_argument("--input")
    p.add_argument("--delimiter", choices=[",", "tab", ";"])
    p.add_argument("--group-by", dest="group_by", type=lambda s: s.split(","))
    p.add_argument("--where", action="append", metavar="FIELD=VALUE")
    p.add_argument("--min-inspected", dest="min_inspected", type=int)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("interval", help="credible interval for failure counts")
    common(p)
    p.add_argument("--failed", type=int)
    p.add_argument("--inspected", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--prior", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--classical", action="store_true", default=None,
                   help="also report Wald, Wilson and Agresti-Coull intervals")
    p.set_defaults(func=cmd_interval)

    p = sub.add_parser("operators", help="rank operators and compare them pairwise")
    common(p)
    p.add_argument("--input")
    p.add_argument("--delimiter", choices=[",", "tab", ";"])
    p.add_argument("--where", action="append", metavar="FIELD=VALUE")
    p.add_argument("--nps")
    p.add_argument("--schedule")
    p.add_argument("--material")
    p.add_argument("--weld-kind", dest="weld_kind")
    p.add_argument("--min-inspected", dest="min_inspected", type=int)
    p.add_argument("--prior", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--burn-in", dest="burn_in", type=int)
    p.add_argument("--proposal-sd", dest="proposal_sd", type=float)
    p.add_argument("--resamples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_operators)

    p = sub.add_parser("complexity", help="score and cluster product complexity")
    common(p)
    p.add_argument("--input", help="raw inspection export")
    p.add_argument("--counts", help="counts table: label,inspected,repaired[,total]")
    p.add_argument("--delimiter", choices=[",", "tab", ";"])
    p.add_argument("--where", action="append", metavar="FIELD=VALUE")
    p.add_argument("--group-by", dest="group_by", type=lambda s: s.split(","))
    p.add_argument("--top", type=int, help="keep the N largest product types")
    p.add_argument("--clusters", type=int, help="number of clusters (default min(7, N))")
    p.add_argument("--cluster-on", dest="cluster_on", choices=["profile", "hellinger"])
    p.add_argument("--prior", nargs=2, type=float, metavar=("A", "B"))
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("forecast", help="Monte Carlo project nonconformance forecast")
    common(p)
    p.add_argument("--design", help="JSON project design file")
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["average", "mixture"])
    p.add_argument("--prior", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--no-samples", dest="keep_samples", action="store_false", default=None)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("rework", help="rework man-hour estimate and control chart")
    common(p)
    p.add_argument("--specs", help="JSON product specs file")
    p.add_argument("--actuals", help="JSON actual hours/results file")
    p.add_argument("--iterations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--prior", nargs=2, type=float, metavar=("A", "B"))
    p.add_argument("--update-posteriors", dest="update_posteriors",
                   action="store_true", default=None,
                   help="fold observed project outcomes into remaining posteriors")
    p.set_defaults(func=cmd_rework)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_config = _read_json(args.config, "config", ConfigError) if args.config else {}
        return args.func(args, file_config)
    except WeldQCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)


if __name__ == "__main__":
    sys.exit(main())
