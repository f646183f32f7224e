"""Command-line surface tying the analytics modules together.

Subcommands: summarize, interval, operators, complexity, forecast, rework.
Each option is declared once, in COMMANDS, and is both a config key and a
flag.  Options resolve in three layers: built-in defaults, then a JSON config
file (--config), then explicit flags; _resolve coerces or rejects a value from
either source.  Every stochastic command runs under an explicit or defaulted
seed that is echoed into each output file.

Handlers compute and render everything and touch no file: each returns its
artifacts as (file name, payload) pairs, and its stdout line with `{out}` for
the output directory.  `main` is the only writer: one report header, then each
artifact by the writer its suffix names (.csv takes (header, rows), where rows
may be any iterable and a matrix comes as `report.matrix_lines`, .json a
mapping or a record, .svg the text).  An artifact name taken by a directory
stops the run before any artifact is written.

Exit codes: 0 success, 2 input/schema error, 3 configuration error,
4 numeric/domain error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Mapping
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from . import __version__, ab, complexity, forecast, mcmc, render, report, rework
from .bayes import JEFFREYS, BetaParams, CountData, credible_interval, posterior
from .bayes import agresti_coull_interval, wald_interval, wilson_interval
from .errors import ConfigError, DomainError, SchemaError, WeldQCError
from .ingest import (
    DEFAULT_GROUP_BY,
    KEY_FIELDS,
    REQUIRED_COLUMNS,
    GroupSummary,
    clean,
    filter_records,
    filter_summaries,
    normalize_nps,
    open_table,
    parse_records,
    summarize,
)
from .streams import derive_seed

OUT_DIR_ENV = "WELDQC_OUT"

#: (file name, payload) pairs a handler returns; the suffix picks the writer
Artifacts = list[tuple[str, object]]


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _strings(value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a list of strings")
    return value


def _grouping(value) -> list[str]:
    bad = [name for name in _strings(value) if name not in KEY_FIELDS]
    if bad:
        raise ValueError(f"cannot group by non-key field(s): {', '.join(bad)}")
    return value


def _operator_grouping(value) -> list[str]:
    if "operator_id" not in _grouping(value):
        raise ValueError("operators are compared per operator_id, so it must be listed")
    return value


def _where(value) -> list[str]:
    """field=value pairs, one per record field, with an NPS value normalized as ingest stores it."""
    criteria = {}
    for pair in _strings(value):
        name, equals, text = (part.strip() for part in pair.partition("="))
        if not equals:
            raise ValueError(f"expected field=value, got {pair!r}")
        if name not in REQUIRED_COLUMNS:
            raise ValueError(f"unknown record field {name!r}")
        if name in criteria:
            raise ValueError(f"field {name!r} is given more than once")
        criteria[name] = normalize_nps(text) if name == "nps" else text
    return [f"{name}={text}" for name, text in criteria.items()]


def _choice(*allowed: str):
    def check(value) -> str:
        if value not in allowed:
            raise ValueError(f"expected one of {allowed}")
        return value

    check.metavar = "{%s}" % ",".join(a.encode("unicode_escape").decode() for a in allowed)
    return check


def _integer(value) -> int:
    """An int, an integral float or a flag's digit string; never a boolean."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got a boolean")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("expected an integer")
    return int(value)


def _number(inside: Callable[[float], bool], expected: str):
    """A float for which `inside` holds; never a boolean."""

    def check(value) -> float:
        if isinstance(value, bool):
            raise TypeError("expected a number, got a boolean")
        number = float(value)
        if not inside(number):
            raise ValueError(f"expected {expected}, got {value!r}")
        return number

    return check


#: hours or an efficiency
_amount = _number(lambda x: 0 <= x < math.inf, "a finite number >= 0")
#: a Beta shape or a proposal width
_positive = _number(lambda x: 0 < x < math.inf, "a finite number > 0")
_probability = _number(lambda x: 0 < x < 1, "a number strictly between 0 and 1")


def _path(value) -> str:
    """A path as text; one the file system cannot encode (a lone surrogate) is rejected."""
    path = str(value)
    os.fsencode(path)
    return path


def _at_least(low: int):
    def check(value) -> int:
        value = _integer(value)
        if value < low:
            raise ValueError(f"expected an integer >= {low}")
        return value

    return check


def _shapes(value) -> list[float]:
    a, b = value
    return [_positive(a), _positive(b)]


_REQUIRED = object()


class Option(NamedTuple):
    """One command option: a config key and a `--flag` of the same name.

    `coerce` accepts or rejects a value from either source.  `flag` holds the
    add_argument keywords of a flag that is not a plain `--name value`; none
    of them converts or checks a value.  `spelling` replaces `--name`.
    """

    default: object
    coerce: Callable[[object], object]
    flag: Mapping = MappingProxyType({})  # read-only: every Option may share it
    spelling: str | None = None

    def flag_name(self, name: str) -> str:
        return self.spelling or "--" + name.replace("_", "-")


class _CommaList(argparse.Action):
    """`--group-by a,b` gives ["a", "b"]; a config file gives the list itself."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values.split(","))


#: options of every command, besides --config
_COMMON = {
    "out_dir": Option(None, _path, {"help": f"output directory (default ${OUT_DIR_ENV} or .)"}),
}


def _resolve(args: argparse.Namespace, options: dict[str, Option], file_config: dict) -> dict:
    """defaults <- config file <- explicit CLI flags, each coerced by its Option.

    A null config value means the default, and a _REQUIRED default must be set.
    """
    options = {**options, **_COMMON}
    unknown = set(file_config) - set(options)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    resolved = {}
    for key, option in options.items():
        value = getattr(args, key, None)
        if value is None:
            value = file_config.get(key)
        if value is None:
            value = option.default
        if value is _REQUIRED:
            raise ConfigError(f"{args.command} requires {option.flag_name(key)}")
        if value is not None:
            try:
                value = option.coerce(value)
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
    """Map a missing, mistyped or out-of-range field of a data-file record to a SchemaError."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, DomainError) as exc:
        raise SchemaError(f"{record} has a missing or malformed field: {exc}")


def _delimiter(resolved: dict) -> str:
    name = resolved.get("delimiter", ",")
    return "\t" if name in ("tab", "\\t", "\t") else name


def _load_summaries(resolved: dict) -> tuple[list, dict]:
    """Summaries of the export's clean records that --where and the key flags select."""
    where = dict(pair.split("=", 1) for pair in resolved["where"])
    for name in DEFAULT_GROUP_BY:
        value = resolved.get(name)
        if value is not None and where.setdefault(name, value) != value:
            raise ConfigError(f"{name} {value!r} contradicts where {name}={where[name]}")
    parsed = parse_records(resolved["input"], _delimiter(resolved))
    counts, rejections = clean(parsed.counts)
    if where:
        counts = filter_records(counts, **where)
    summaries = summarize(counts, tuple(resolved["group_by"]))
    info = {
        "rows_parsed": parsed.counts.total(),
        "parse_issues": parsed.issues,
        "rejections": rejections.reasons,
        "rows_kept": counts.total(),
    }
    return summaries, info


# ---------------------------------------------------------------- summarize


def cmd_summarize(resolved: dict) -> tuple[Artifacts, str]:
    summaries, ingest_info = _load_summaries(resolved)
    summaries = filter_summaries(summaries, min_inspected=resolved["min_inspected"])

    key_fields = [f for f in KEY_FIELDS if f in resolved["group_by"]]
    rows = [[getattr(s.key, f) for f in key_fields] + list(s[1:]) for s in summaries]
    groups = [{**s._asdict(), "key": s.key.as_dict()} for s in summaries]
    return [
        ("summary.csv", (key_fields + list(GroupSummary._fields[1:]), rows)),
        ("summary.json", {"groups": groups}),
        ("rejections.json", ingest_info),
    ], f"wrote {len(summaries)} group summaries to {{out}}"


# ------------------------------------------------------------------ interval


def cmd_interval(resolved: dict) -> tuple[Artifacts, str]:
    counts = CountData(resolved["failed"], resolved["inspected"])
    prior = BetaParams(*resolved["prior"])
    alpha = resolved["alpha"]
    params = posterior(counts, prior)
    interval = credible_interval(params, alpha)

    payload = {
        "counts": counts, "prior": prior, "posterior": params, "credible_interval": interval,
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

    return [("interval.json", payload)], (
        f"credible interval [{report.fmt(interval.lower)}, {report.fmt(interval.upper)}] "
        f"at level {report.fmt(interval.level)}"
    )


# ----------------------------------------------------------------- operators


def cmd_operators(resolved: dict) -> tuple[Artifacts, str]:
    burn_in, iterations = resolved["burn_in"], resolved["iterations"]
    if burn_in >= iterations:
        raise ConfigError(f"burn_in ({burn_in}) must be below iterations ({iterations})")
    summaries, _ = _load_summaries(resolved)
    selected = filter_summaries(summaries, min_inspected=resolved["min_inspected"])
    if not selected:
        raise ConfigError("no operator matches the record filters and threshold")

    prior = BetaParams(*resolved["prior"])
    seed = resolved["seed"]
    ranked = []
    for index, summary in enumerate(selected):
        counts = CountData(summary.repaired_welds, summary.inspected_welds)
        config = mcmc.ChainConfig(
            iterations=iterations,
            burn_in=burn_in,
            proposal_sd=resolved["proposal_sd"],
            seed=derive_seed(seed, index),
        )
        chain = mcmc.sample_posterior(counts, prior, config)
        ranked.append((summary, chain, mcmc.empirical_five_number(chain)))
    # worst-first: descending median fraction nonconforming
    ranked.sort(key=lambda item: -item[2].median)
    ranked_chains = [chain for _, chain, _ in ranked]
    if resolved["resamples"] is None:
        matrix = ab.exact_matrix(ranked_chains)
    else:
        matrix = ab.pairwise_matrix(ranked_chains, n=resolved["resamples"], seed=seed)

    ids = [summary.key.operator_id for summary, _, _ in ranked]
    header = ["operator_id", "inspected_welds", "repaired_welds"]
    header += mcmc.FiveNumberSummary._fields[:5]
    rows = [
        [summary.key.operator_id, summary.inspected_welds, summary.repaired_welds, *five[:5]]
        for summary, _, five in ranked
    ]
    return [
        ("operators.csv", (header, rows)),
        ("ab_matrix.csv", (
            ["operator_id"] + ids,
            report.matrix_lines(ids, matrix),
        )),
        ("operators_boxplot.svg", render.boxplot_svg(ids, [five for _, _, five in ranked])),
    ], f"ranked {len(ranked)} operators; outputs in {{out}}"


# ---------------------------------------------------------------- complexity


#: a complexity row: label, counts and total welds (None where not known)
CountRow = tuple[str, CountData, int | None]


def _counts_from_file(path: str, delimiter: str) -> list[CountRow]:
    """Counts table: label, inspected, repaired[, total] with a header row."""
    with open_table(path, "counts file") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter, restval="")
        required = {"label", "inspected", "repaired"}
        if not reader.fieldnames or not required.issubset(set(reader.fieldnames)):
            raise SchemaError(
                "counts file needs columns: label, inspected, repaired[, total]"
            )
        records = list(reader)
    if not records:
        raise SchemaError("counts file holds no rows")
    rows = []
    for number, record in enumerate(records, start=1):
        with _fields(f"counts row {number}"):
            counts = CountData(_integer(record["repaired"]), _integer(record["inspected"]))
            total = _integer(record["total"]) if record.get("total") else None
            if total is not None and total < counts.inspected:
                raise ValueError(f"total {total} is below inspected {counts.inspected}")
            rows.append((record["label"].strip(), counts, total))
    return rows


def cmd_complexity(resolved: dict) -> tuple[Artifacts, str]:
    if resolved["counts"]:
        rows = _counts_from_file(resolved["counts"], _delimiter(resolved))
    elif resolved["input"]:
        summaries, _ = _load_summaries(resolved)
        if not summaries:
            raise ConfigError("no product type matches the record filters")
        rows = [
            (
                "(" + ", ".join(s.key.as_dict().values()) + ")",
                CountData(s.repaired_welds, s.inspected_welds),
                s.total_welds,
            )
            for s in summaries
        ]
    else:
        raise ConfigError("complexity requires --input or --counts")

    totals_known = all(total is not None for _, _, total in rows)
    rows.sort(key=lambda r: (-(r[2] if totals_known else r[1].inspected), r[0]))
    rows = rows[: resolved["top"]]
    k = resolved["clusters"] or min(7, len(rows))
    if k > len(rows):
        raise ConfigError(f"clusters ({k}) must not exceed the product types ({len(rows)})")

    prior = BetaParams(*resolved["prior"])
    posteriors = [posterior(counts, prior) for _, counts, _ in rows]
    labels = [label for label, _, _ in rows]
    scores = complexity.complexity_scores(posteriors)
    matrix = complexity.distance_matrix(posteriors, labels)
    cluster_input = (
        complexity.profile_distance_matrix(matrix)
        if resolved["cluster_on"] == "profile"
        else matrix
    )
    tree = complexity.agglomerative_cluster(cluster_input)
    assignments = complexity.cut(tree, k)
    totals = [total for _, _, total in rows] if totals_known else None
    cluster_labels = complexity.label_clusters(assignments, scores, totals)

    letter_of = {}
    for label in cluster_labels:
        for member in label.members:
            letter_of[member] = label.letter
    score_rows = [
        [label, counts.inspected, counts.failed, s.median, s.raw, s.scaled, letter_of[i]]
        for i, ((label, counts, _), s) in enumerate(zip(rows, scores))
    ]
    cluster_rows = [
        [
            label.letter,
            "|".join(labels[i] for i in label.members),
            label.mean_score,
            label.total_welds if label.total_welds is not None else "",
            label.share if label.share is not None else "",
        ]
        for label in cluster_labels
    ]
    return [
        ("complexity_scores.csv", (
            ["label", "inspected", "repaired", "median", "raw_score", "scaled_score", "cluster"],
            score_rows,
        )),
        ("hellinger_matrix.csv", (
            ["label"] + labels,
            report.matrix_lines(labels, matrix.values),
        )),
        ("dendrogram.json", complexity.tree_to_dict(tree)),
        ("clusters.csv", (
            ["cluster", "members", "mean_scaled_score", "total_welds", "business_share"],
            cluster_rows,
        )),
        ("dendrogram.svg", render.dendrogram_svg(tree)),
    ], f"scored {len(rows)} product types into {k} clusters; outputs in {{out}}"


# ------------------------------------------------------------------ forecast


def _quantiles(table: list[tuple[float, float]]) -> tuple[dict, tuple[list, list]]:
    """Quantiles keyed 0%..100%, and the one-row CSV table headed by those keys."""
    keyed = {f"{round(level * 100)}%": value for level, value in table}
    return keyed, (list(keyed), [list(keyed.values())])


def _load_design(path: str, prior: BetaParams) -> forecast.ProjectDesign:
    document = _read_json(path, "design", SchemaError)
    if not isinstance(document.get("welds"), list) or not document["welds"]:
        raise SchemaError("design file needs a non-empty 'welds' list")
    # one posterior per key, so inline counts must agree with any seen before
    seen: dict[str, CountData] = {}
    with _fields("design 'types'"):
        for key, spec in (document.get("types") or {}).items():
            with _fields(f"design type {key!r}"):
                seen[key] = CountData(_integer(spec["failed"]), _integer(spec["inspected"]))
    # weld count by key, in order of first appearance
    welds: dict[str, int] = {}
    n_welds = 0
    for number, weld in enumerate(document["welds"], start=1):
        with _fields(f"design weld #{number}"):
            key = str(weld.get("key", f"type-{number}"))
            count = _at_least(1)(weld.get("count", 1))
            n_welds += count
            if n_welds >= 2**63:  # the bound of numpy's `integers`, which picks mixture welds
                raise ValueError("the design's weld count must stay below 2**63")
            if "failed" in weld and "inspected" in weld:
                counts = CountData(_integer(weld["failed"]), _integer(weld["inspected"]))
                earlier = seen.setdefault(key, counts)
                if earlier != counts:
                    raise SchemaError(
                        f"design weld #{number} gives key {key!r} {counts.failed} failed "
                        f"of {counts.inspected}, but {earlier.failed} of "
                        f"{earlier.inspected} were given before"
                    )
            elif key not in seen:
                raise SchemaError(f"design weld #{number} references unresolved weld type {key!r}")
        welds[key] = welds.get(key, 0) + count
    return forecast.ProjectDesign(
        tuple((key, posterior(seen[key], prior), count) for key, count in welds.items())
    )


def cmd_forecast(resolved: dict) -> tuple[Artifacts, str]:
    design = _load_design(resolved["design"], BetaParams(*resolved["prior"]))
    result = forecast.simulate_project(
        design,
        iterations=resolved["iterations"],
        seed=resolved["seed"],
        mode=resolved["mode"],
    )

    quantiles, quantile_table = _quantiles(result.quantiles())
    payload = {
        "n_welds": design.n_welds,
        "n_types": design.n_types,
        "iterations": result.iterations,
        "mode": result.mode,
        "quantiles": quantiles,
    }
    if resolved["keep_samples"]:
        payload["samples"] = [float(v) for v in result.samples]
    return [
        ("forecast_quantiles.csv", quantile_table),
        ("forecast.json", payload),
        ("forecast_histogram.svg", render.histogram_svg(result.samples)),
    ], (
        f"project fraction nonconforming median {report.fmt(quantiles['50%'])} "
        f"over {result.iterations} iterations; outputs in {{out}}"
    )


# -------------------------------------------------------------------- rework


def _load_specs(path: str, prior: BetaParams) -> list[rework.ProductSpec]:
    products = _read_json(path, "specs", SchemaError).get("products")
    if not isinstance(products, list) or not products:
        raise SchemaError("specs file needs a non-empty 'products' list")
    specs = []
    for number, product in enumerate(products, start=1):
        with _fields(f"product #{number}"):
            key = product.get("key")
            counts = CountData(_integer(product["failed"]), _integer(product["inspected"]))
            specs.append(
                rework.ProductSpec(
                    posterior=posterior(counts, prior),
                    estimated_hours=_amount(product["estimated_hours"]),
                    efficiency=_amount(product.get("efficiency", rework.DEFAULT_EFFICIENCY)),
                    key=None if key is None else str(key),
                )
            )
    return specs


def _load_actuals(path: str | None, n_products: int) -> tuple[list[float], list[int]]:
    if not path:
        return [], []
    document = _read_json(path, "actuals", SchemaError)
    with _fields("actuals file"):
        hours = [_amount(h) for h in document.get("hours", [])]
        results = [_integer(r) for r in document.get("results", [])]
        rework.check_actuals(hours, results, n_products)
    return hours, results


def cmd_rework(resolved: dict) -> tuple[Artifacts, str]:
    specs = _load_specs(resolved["specs"], BetaParams(*resolved["prior"]))
    hours, results = _load_actuals(resolved["actuals"], len(specs))
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

    quantiles, quantile_table = _quantiles(estimate.quantiles())
    summary = {
        "mean": estimate.mean,
        "iterations": estimate.iterations,
        "quantiles": quantiles,
        "limits": limits,
    }
    return [
        ("rework_quantiles.csv", quantile_table),
        ("rework.json", summary),
        ("control_chart.csv", (rework.StatePoint._fields, series.points)),
        ("control_chart.json", series),
        ("control_chart.svg", render.control_chart_svg(series)),
    ], (
        f"rework estimate median {report.fmt(limits.cl)} h "
        f"(LCL {report.fmt(limits.lcl)}, UCL {report.fmt(limits.ucl)}); outputs in {{out}}"
    )


# -------------------------------------------------------------------- parser


_INPUT = Option(_REQUIRED, _path)
_DELIMITER = Option(",", _choice(",", "tab", ";", "\\t", "\t"))
_WHERE = Option([], _where, {"action": "append", "metavar": "FIELD=VALUE"})
_GROUP_BY = Option(list(DEFAULT_GROUP_BY), _grouping, {"action": _CommaList})
_PRIOR = Option(list(JEFFREYS), _shapes, {"nargs": 2, "metavar": ("A", "B")})
_SEED = Option(0, _integer)

#: command -> (handler, help, options): the one declaration of every option
COMMANDS: dict[str, tuple[Callable[[dict], tuple[Artifacts, str]], str, dict[str, Option]]] = {
    "summarize": (cmd_summarize, "parse, clean and group raw inspection exports", {
        "input": _INPUT,
        "delimiter": _DELIMITER,
        "group_by": _GROUP_BY,
        "where": _WHERE,
        "min_inspected": Option(0, _at_least(0)),
    }),
    "interval": (cmd_interval, "credible interval for failure counts", {
        "failed": Option(_REQUIRED, _integer),
        "inspected": Option(_REQUIRED, _integer),
        "alpha": Option(0.05, _probability),
        "prior": _PRIOR,
        "classical": Option(False, _flag, {
            "action": "store_true",
            "help": "also report Wald, Wilson and Agresti-Coull intervals",
        }),
    }),
    "operators": (cmd_operators, "rank operators and compare them pairwise", {
        "input": _INPUT,
        "delimiter": _DELIMITER,
        "where": _WHERE,
        "nps": Option(None, lambda value: normalize_nps(str(value))),
        "schedule": Option(None, str),
        "material": Option(None, str),
        "weld_kind": Option(None, str),
        "min_inspected": Option(100, _at_least(0)),
        "prior": _PRIOR,
        "iterations": Option(mcmc.ChainConfig._field_defaults["iterations"], _at_least(1)),
        "burn_in": Option(mcmc.ChainConfig._field_defaults["burn_in"], _at_least(0)),
        "proposal_sd": Option(mcmc.ChainConfig._field_defaults["proposal_sd"], _positive),
        "resamples": Option(None, _at_least(1), {
            "help": "estimate each A/B cell from N resamples (default: exact over all draw pairs)",
        }),
        "seed": _SEED,
        "group_by": Option(
            list(DEFAULT_GROUP_BY) + ["operator_id"], _operator_grouping, {"action": _CommaList}
        ),
    }),
    "complexity": (cmd_complexity, "score and cluster product complexity", {
        "input": Option(None, _path, {"help": "raw inspection export"}),
        "counts": Option(None, _path, {"help": "counts table: label,inspected,repaired[,total]"}),
        "delimiter": _DELIMITER,
        "where": _WHERE,
        "group_by": _GROUP_BY,
        "top": Option(None, _at_least(1), {"help": "keep the N largest product types"}),
        "clusters": Option(None, _at_least(1), {"help": "number of clusters (default min(7, N))"}),
        "cluster_on": Option("profile", _choice("profile", "hellinger")),
        "prior": _PRIOR,
    }),
    "forecast": (cmd_forecast, "Monte Carlo project nonconformance forecast", {
        "design": Option(_REQUIRED, _path, {"help": "JSON project design file"}),
        "iterations": Option(forecast.DEFAULT_ITERATIONS, _at_least(1)),
        "seed": _SEED,
        "mode": Option("average", _choice("average", "mixture")),
        "prior": _PRIOR,
        "keep_samples": Option(True, _flag, {"action": "store_false"}, "--no-samples"),
    }),
    "rework": (cmd_rework, "rework man-hour estimate and control chart", {
        "specs": Option(_REQUIRED, _path, {"help": "JSON product specs file"}),
        "actuals": Option(None, _path, {"help": "JSON actual hours/results file"}),
        "iterations": Option(rework.DEFAULT_ITERATIONS, _at_least(1)),
        "seed": _SEED,
        "prior": _PRIOR,
        "update_posteriors": Option(False, _flag, {
            "action": "store_true",
            "help": "fold observed project outcomes into remaining posteriors",
        }),
    }),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One flag per option of COMMANDS; values are coerced later, by _resolve.

    Built once per process: parsing leaves the parser unchanged, and `main`
    looks each command's handler up in COMMANDS at every call.
    """
    parser = argparse.ArgumentParser(
        prog="weldqc",
        description="Bayesian quality analytics for pass/fail inspection data",
    )
    parser.add_argument("--version", action="version", version=f"weldqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for name, option in {**_COMMON, **options}.items():
            metavar = getattr(option.coerce, "metavar", None)
            keywords = {"metavar": metavar, **option.flag} if metavar else option.flag
            p.add_argument(option.flag_name(name), dest=name, default=None, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, options = COMMANDS[args.command]
    try:
        file_config = _read_json(args.config, "config", ConfigError) if args.config else {}
        resolved = _resolve(args, options, file_config)
        artifacts, message = handler(resolved)
        out = Path(resolved["out_dir"] or os.environ.get(OUT_DIR_ENV) or ".")
        info = report.meta(args.command, resolved, seed=resolved.get("seed"))
        for name, _ in artifacts:
            if (out / name).is_dir():
                raise ConfigError(f"cannot write {out / name}: {os.strerror(errno.EISDIR)}")
        for name, payload in artifacts:
            path = out / name
            try:
                # looked up on `report` at each call, so a wrapped writer sees every write
                if path.suffix == ".csv":
                    report.write_table(path, *payload, info)
                elif path.suffix == ".json":
                    report.write_json(path, payload, info)
                else:
                    report.write_svg(path, payload, info)
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    except WeldQCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 4)
    except MemoryError as exc:
        # array sizes come from configured counts such as iterations or resamples
        print(f"error: cannot allocate memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return ConfigError.exit_code
    print(message.format(out=out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
