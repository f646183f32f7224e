"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a `numpy.random.Generator` built from the workload
seed and returns the files to write (name -> exact bytes) plus facts about
them: input sizes, and what the correctness checks need (injected rejection
counts, the busiest product type).  The same seed gives the same bytes.

Rates and volumes are stratified: each of k values is drawn from its own
1/k slice of the distribution, and the slices are shuffled.  A new seed then
changes which product gets which value, but not how spread the values are,
so the work a run does (for example how often a Metropolis proposal leaves
(0, 1)) barely moves between seeds and timings compare across seeds.
"""

from __future__ import annotations

import json
from statistics import NormalDist

import numpy as np

EXPORT_ROWS = 200_000
EXPORT_OPERATORS = 40
EXPORT_TYPES = 40
#: malformed rows per kind; 3 kinds x 800 = 1.2% of the export
MALFORMED_PER_KIND = 800
ZIPF_EXPONENT = 1.1

PORTFOLIO_TYPES = 400
PORTFOLIO_MIN_INSPECTED = 150
PORTFOLIO_MAX_INSPECTED = 100_000

PLANNING_WELDS = 20_000
PLANNING_TYPES = 35
PLANNING_PRODUCTS = 300
PLANNING_COMPLETED = 150

FIDELITY_PAIRS = 35
CASE_MIN_INSPECTED = 150
CASE_MAX_INSPECTED = 7_500

NPS = ("0.5", "0.75", "1", "1.5", "2", "3", "4", "6", "8", "10", "12", "16")
SCHEDULES = ("10S", "40S", "40", "80", "160", "STD", "XS")
MATERIALS = ("Material A", "Material B", "Material C")
WELD_KINDS = ("BW", "SW")
EXPORT_HEADER = (
    "operator_id,weld_kind,schedule,nps,material,project_type,inspection_status"
)


#: fractions nonconforming span the case-study range
MIN_RATE = 0.005
MAX_RATE = 0.15


def _stratified(rng: np.random.Generator, size: int) -> np.ndarray:
    """One uniform draw from each of `size` equal slices of [0, 1), shuffled."""
    return rng.permutation((np.arange(size) + rng.random(size)) / size)


def _log_uniform(rng: np.random.Generator, low: float, high: float, size: int) -> np.ndarray:
    return np.exp(np.log(low) + _stratified(rng, size) * np.log(high / low))


def _failure_rates(rng: np.random.Generator, size: int) -> np.ndarray:
    return _log_uniform(rng, MIN_RATE, MAX_RATE, size)


def _product_types(rng: np.random.Generator, count: int) -> list[tuple[str, str, str, str]]:
    """`count` distinct (nps, schedule, material, weld_kind) keys."""
    grid = [
        (nps, schedule, material, kind)
        for nps in NPS
        for schedule in SCHEDULES
        for material in MATERIALS
        for kind in WELD_KINDS
    ]
    picks = rng.choice(len(grid), size=count, replace=False)
    return [grid[i] for i in picks]


def export(rng: np.random.Generator) -> tuple[dict[str, bytes], dict]:
    """Raw inspection export with a Zipf type mix and three malformed-row kinds.

    Malformed kinds: a blank key field (schedule, nps or material), status
    `9` (an integer outside {0, 1, 2}) and status `x` (not an integer).
    """
    types = _product_types(rng, EXPORT_TYPES)
    weights = 1.0 / np.arange(1, EXPORT_TYPES + 1) ** ZIPF_EXPONENT
    type_of_row = rng.choice(EXPORT_TYPES, size=EXPORT_ROWS, p=weights / weights.sum())
    operator_of_row = rng.integers(0, EXPORT_OPERATORS, EXPORT_ROWS)
    type_rate = _failure_rates(rng, EXPORT_TYPES)
    operator_factor = 0.5 + _stratified(rng, EXPORT_OPERATORS)
    fail_p = (type_rate[type_of_row] * operator_factor[operator_of_row]).clip(0.0, 0.3)
    inspected = rng.random(EXPORT_ROWS) < 0.7
    failed = rng.random(EXPORT_ROWS) < fail_p
    status = np.where(inspected, np.where(failed, "2", "1"), "0").astype(object)
    project_type = rng.integers(0, 2, EXPORT_ROWS)

    fields = [
        [f"OP{o + 1:02d}" for o in operator_of_row],
        [types[t][3] for t in type_of_row],
        [types[t][1] for t in type_of_row],
        [types[t][0] for t in type_of_row],
        [types[t][2] for t in type_of_row],
        [str(p) for p in project_type],
        list(status),
    ]
    bad_rows = rng.choice(EXPORT_ROWS, size=3 * MALFORMED_PER_KIND, replace=False)
    blank, status_9, status_x = np.split(bad_rows, 3)
    # schedule, nps, material are fields 2, 3, 4
    for row, column in zip(blank, rng.integers(2, 5, len(blank))):
        fields[column][row] = ""
    for row in status_9:
        fields[6][row] = "9"
    for row in status_x:
        fields[6][row] = "x"

    lines = [EXPORT_HEADER]
    lines.extend(",".join(cells) for cells in zip(*fields))
    data = ("\n".join(lines) + "\n").encode()
    busiest = types[int(np.bincount(type_of_row, minlength=EXPORT_TYPES).argmax())]
    facts = {
        "rows": EXPORT_ROWS,
        "types": EXPORT_TYPES,
        "operators": EXPORT_OPERATORS,
        "blank_field": MALFORMED_PER_KIND,
        "invalid_status": 2 * MALFORMED_PER_KIND,
        "unparseable_status": MALFORMED_PER_KIND,
        "busiest": dict(zip(("nps", "schedule", "material", "weld_kind"), busiest)),
    }
    return {"export.csv": data}, facts


def portfolio(rng: np.random.Generator) -> tuple[dict[str, bytes], dict]:
    """Counts table of product types with lognormal inspection volumes."""
    normal = NormalDist(np.log(2_000.0), 1.3)
    logs = [normal.inv_cdf(u) for u in _stratified(rng, PORTFOLIO_TYPES)]
    inspected = np.exp(logs).astype(np.int64)
    inspected = inspected.clip(PORTFOLIO_MIN_INSPECTED, PORTFOLIO_MAX_INSPECTED)
    repaired = rng.binomial(inspected, _failure_rates(rng, PORTFOLIO_TYPES))
    total = inspected + rng.binomial(inspected, 0.4)
    lines = ["label,inspected,repaired,total"]
    lines.extend(
        f"T{i + 1:03d},{n},{x},{t}"
        for i, (n, x, t) in enumerate(zip(inspected, repaired, total))
    )
    return {"counts.csv": ("\n".join(lines) + "\n").encode()}, {"types": PORTFOLIO_TYPES}


def _type_counts(rng: np.random.Generator, count: int, low: int, high: int):
    inspected = _log_uniform(rng, low, high, count).astype(np.int64)
    failed = rng.binomial(inspected, _failure_rates(rng, count))
    return [(int(x), int(n)) for x, n in zip(failed, inspected)]


def planning(rng: np.random.Generator) -> tuple[dict[str, bytes], dict]:
    """Forecast design, rework specs and actuals for one project.

    Products share the design's type keys, so `--update-posteriors` folds
    completed outcomes into the remaining same-type posteriors.
    """
    counts = _type_counts(rng, PLANNING_TYPES, CASE_MIN_INSPECTED, CASE_MAX_INSPECTED)
    keys = [f"K{i + 1:02d}" for i in range(PLANNING_TYPES)]
    # every type gets at least one weld; the rest follow a Dirichlet mix
    mix = rng.dirichlet(np.ones(PLANNING_TYPES))
    extra = rng.multinomial(PLANNING_WELDS - PLANNING_TYPES, mix)
    design = {
        "types": {k: {"failed": x, "inspected": n} for k, (x, n) in zip(keys, counts)},
        "welds": [{"key": k, "count": int(c) + 1} for k, c in zip(keys, extra)],
    }
    product_type = rng.integers(0, PLANNING_TYPES, PLANNING_PRODUCTS)
    hours = rng.uniform(2.0, 40.0, PLANNING_PRODUCTS).round(2)
    efficiency = rng.uniform(1.0, 1.5, PLANNING_PRODUCTS).round(2)
    products = [
        {
            "key": keys[t],
            "estimated_hours": float(h),
            "efficiency": float(e),
            "failed": counts[t][0],
            "inspected": counts[t][1],
        }
        for t, h, e in zip(product_type, hours, efficiency)
    ]
    # the first PLANNING_COMPLETED products are done; a failed one took rework hours
    done = slice(0, PLANNING_COMPLETED)
    p_done = np.array([(counts[t][0] + 0.5) / (counts[t][1] + 1.0) for t in product_type[done]])
    results = (rng.random(PLANNING_COMPLETED) < p_done).astype(int)
    spread = rng.uniform(0.5, 1.5, PLANNING_COMPLETED)
    actual_hours = (results * efficiency[done] * hours[done] * spread).round(2)
    actuals = {"hours": [float(h) for h in actual_hours], "results": [int(r) for r in results]}
    files = {
        "design.json": json.dumps(design, sort_keys=True).encode(),
        "specs.json": json.dumps({"products": products}, sort_keys=True).encode(),
        "actuals.json": json.dumps(actuals, sort_keys=True).encode(),
    }
    facts = {
        "welds": PLANNING_WELDS,
        "types": PLANNING_TYPES,
        "products": PLANNING_PRODUCTS,
        "completed": PLANNING_COMPLETED,
    }
    return files, facts


def fidelity(rng: np.random.Generator) -> tuple[dict[str, bytes], dict]:
    """Count pairs (failed, inspected) in the case-study range."""
    pairs = _type_counts(rng, FIDELITY_PAIRS, CASE_MIN_INSPECTED, CASE_MAX_INSPECTED)
    return {"pairs.json": json.dumps({"pairs": pairs}).encode()}, {"pairs": FIDELITY_PAIRS}


def simulation(rng: np.random.Generator) -> tuple[dict[str, bytes], dict]:
    """The planning inputs, then the fidelity count pairs, from one stream."""
    files, facts = planning(rng)
    more, extra = fidelity(rng)
    return {**files, **more}, {**facts, **extra}
