"""Spans and counts recorded around the public functions of each layer.

The benchmark wraps library functions from the outside: `install` replaces
each listed function with a wrapper in every loaded `weldqc` module that
binds it (so `from .streams import substream` copies are wrapped too), and
`uninstall` puts the originals back.  Spans are kept in memory as
[name, start, end, parent index] and turned into per-layer metrics at the end.

Counts describe the work requested at the layer boundary (for example chains
x iterations, or n(n-1)/2 distance pairs), so they stay comparable when a
later change does the same work with a different algorithm.  A count hook
runs only for the outermost span of its name, so nested calls of one stage
(`sample_chains` calling `sample_posterior`) are counted once.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter
from typing import Callable

#: count hook: (counts, bound arguments by name, return value)
Hook = Callable[[Counter, dict, object], None]


def _ingest_parse(counts, arguments, result):
    counts["ingest.rows_parsed"] += len(result.records)


def _ingest_clean(counts, arguments, result):
    counts["ingest.rows_rejected"] += result[1].dropped


def _ab_matrix(counts, arguments, result):
    cells = result.shape[0] * (result.shape[0] - 1)
    counts["ab.cells"] += cells
    counts["ab.resamples"] += cells * arguments["n"]


def _mcmc_chains(counts, arguments, result):
    for chain in result if isinstance(result, list) else [result]:
        iterations = chain.config.iterations
        counts["mcmc.chains"] += 1
        counts["mcmc.draws"] += iterations
        counts["mcmc.accepted"] += round(chain.acceptance_rate * iterations)


def _complexity_pairs(counts, arguments, result):
    counts["complexity.pairs"] += result.size * (result.size - 1) // 2


def _complexity_profile(counts, arguments, result):
    counts["complexity.profile_bytes_computed"] += result.size**3 * 8


def _forecast(counts, arguments, result):
    per_iteration = arguments["design"].n_welds if result.mode == "average" else 1
    counts["forecast.draws"] += per_iteration * result.iterations


def _rework_plan(counts, arguments, result):
    counts["rework.draws"] += len(arguments["specs"]) * result.iterations


def _rework_chart(counts, arguments, result):
    n = len(arguments["specs"])
    # state k simulates the n - k products still to be made
    counts["rework.draws"] += arguments["iterations"] * sum(n - p.state for p in result.points)


def _report_bytes(counts, arguments, result):
    counts["report.files"] += 1
    counts["report.bytes"] += os.path.getsize(arguments["path"])


#: (module, function, span name, count hook) for every wrapped public function
WRAPPED: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("cli", "main", "cli.main", None),
    ("ingest", "parse_records", "ingest.parse", _ingest_parse),
    ("ingest", "clean", "ingest.clean", _ingest_clean),
    ("ingest", "summarize", "ingest.summarize", None),
    ("ingest", "filter_records", "ingest.filter", None),
    ("ingest", "filter_summaries", "ingest.filter", None),
    ("bayes", "credible_interval", "bayes.interval", None),
    ("special", "beta_quantile", "special.quantile", None),
    ("mcmc", "sample_chains", "mcmc.sample", _mcmc_chains),
    ("mcmc", "sample_posterior", "mcmc.sample", _mcmc_chains),
    ("mcmc", "empirical_interval", "mcmc.summary", None),
    ("mcmc", "empirical_five_number", "mcmc.summary", None),
    ("mcmc", "residual_metrics", "mcmc.summary", None),
    ("ab", "pairwise_matrix", "ab.matrix", _ab_matrix),
    ("complexity", "distance_matrix", "complexity.distance", _complexity_pairs),
    ("complexity", "profile_distance_matrix", "complexity.profile", _complexity_profile),
    ("complexity", "agglomerative_cluster", "complexity.linkage", None),
    ("complexity", "complexity_scores", "complexity.scores", None),
    ("complexity", "cut", "complexity.cut", None),
    ("complexity", "label_clusters", "complexity.cut", None),
    ("forecast", "simulate_project", "forecast.simulate", _forecast),
    ("rework", "simulate_total_rework", "rework.plan", _rework_plan),
    ("rework", "control_chart", "rework.chart", _rework_chart),
    ("streams", "substream", "streams.substream", None),
    ("report", "write_table", "report.write", _report_bytes),
    ("report", "write_json", "report.write", _report_bytes),
    ("report", "write_svg", "report.write", _report_bytes),
    ("render", "boxplot_svg", "render.svg", None),
    ("render", "histogram_svg", "render.svg", None),
    ("render", "control_chart_svg", "render.svg", None),
    ("render", "dendrogram_svg", "render.svg", None),
)

LAYERS = (
    "cli", "ingest", "bayes", "special", "mcmc", "ab",
    "complexity", "forecast", "rework", "streams", "report", "render",
)

#: span-time metrics: metric name -> span name (outermost spans of that name)
SPAN_METRICS = {
    "ingest.parse_s": "ingest.parse",
    "ingest.clean_s": "ingest.clean",
    "ingest.summarize_s": "ingest.summarize",
    "ingest.filter_s": "ingest.filter",
    "ab.matrix_s": "ab.matrix",
    "mcmc.sample_s": "mcmc.sample",
    "mcmc.summary_s": "mcmc.summary",
    "special.quantile_s": "special.quantile",
    "bayes.interval_s": "bayes.interval",
    "complexity.linkage_s": "complexity.linkage",
    "complexity.profile_s": "complexity.profile",
    "complexity.distance_s": "complexity.distance",
    "complexity.scores_s": "complexity.scores",
    "complexity.cut_s": "complexity.cut",
    "forecast.simulate_s": "forecast.simulate",
    "rework.plan_s": "rework.plan",
    "rework.chart_s": "rework.chart",
    "streams.substream_s": "streams.substream",
    "report.write_s": "report.write",
    "render.svg_s": "render.svg",
}

COUNT_METRICS = (
    "ingest.rows_parsed", "ingest.rows_rejected", "ab.cells", "ab.resamples",
    "mcmc.chains", "mcmc.draws", "special.quantile_calls", "complexity.pairs",
    "complexity.profile_bytes_computed", "forecast.draws", "rework.draws",
    "streams.substreams", "report.bytes", "report.files",
)


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_rate", "_per_quantile")):
        return "ratio"
    if "bytes" in metric:
        return "B"
    return "count"


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, func: Callable, hook: Hook | None) -> Callable:
        spans, stack, open_, counts = self.spans, self._stack, self._open, self.counts
        clock = time.perf_counter
        signature = inspect.signature(func) if hook is not None else None

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            open_[name] += 1
            try:
                result = func(*args, **kwargs)
            finally:
                open_[name] -= 1
                stack.pop()
                spans[index][2] = clock()
            if hook is not None and not open_[name]:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(counts, bound.arguments, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _count_cdf_calls(self, func: Callable) -> Callable:
        """Count incomplete-beta evaluations made directly by a quantile solve."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][0] == "special.quantile":
                counts["special.cdf_in_quantile"] += 1
            return func(*args, **kwargs)

        counted.__wrapped__ = func
        return counted

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "weldqc" or n.startswith("weldqc.")]
        replacements = {}
        for module, attr, name, hook in WRAPPED:
            original = getattr(sys.modules[f"weldqc.{module}"], attr)
            replacements[id(original)] = (original, self.wrap(name, original, hook))
        cdf = sys.modules["weldqc.special"].beta_cdf
        replacements[id(cdf)] = (cdf, self._count_cdf_calls(cdf))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = replacements.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ metrics

    def _outermost(self, index: int) -> bool:
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def metrics(self) -> dict[str, float]:
        """Per-layer span times, self times, counts and ratios."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        span_time: Counter = Counter()
        self_time: Counter = Counter({f"{layer}.self_s": 0.0 for layer in LAYERS})
        for index, (name, start, end, _) in enumerate(self.spans):
            self_time[f"{name.split('.')[0]}.self_s"] += (end - start) - child_time[index]
            if self._outermost(index):
                span_time[name] += end - start
        calls = Counter(span[0] for span in self.spans)
        quantiles = calls["special.quantile"]
        counts = Counter(self.counts)
        counts["special.quantile_calls"] = quantiles
        counts["streams.substreams"] = calls["streams.substream"]

        metrics = {key: span_time[span] for key, span in SPAN_METRICS.items()}
        metrics.update(self_time)
        metrics.update({key: counts[key] for key in COUNT_METRICS})

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        rework_s = metrics["rework.plan_s"] + metrics["rework.chart_s"]
        metrics.update({
            "ingest.rows_per_s": ratio(counts["ingest.rows_parsed"], metrics["ingest.parse_s"]),
            "mcmc.acceptance_rate": ratio(counts["mcmc.accepted"], counts["mcmc.draws"]),
            "special.cdf_per_quantile": ratio(counts["special.cdf_in_quantile"], quantiles),
            "forecast.draws_per_s": ratio(counts["forecast.draws"], metrics["forecast.simulate_s"]),
            "rework.draws_per_s": ratio(counts["rework.draws"], rework_s),
        })
        return metrics

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
