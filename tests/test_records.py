"""The result and input records: immutable NamedTuples.

Each record keeps the field order, defaults, repr text, hash and validation
errors it had as a frozen dataclass.  `ASDICT` holds, as literals, what
`dataclasses.asdict` returned for the same values under the dataclasses, and
`plain` (`_asdict` applied through nested records) must return the same.
"""

import dataclasses
import importlib
import pkgutil
import re
from collections import Counter

import numpy as np
import pytest

import weldqc
from weldqc import ab, bayes, cli, complexity, forecast, ingest, mcmc, rework
from weldqc.errors import ConfigError, DomainError, SchemaError

B = bayes.BetaParams(0.5, 2.5)
KEY = ingest.GroupKey("4")
MERGE = complexity.Merge(0, 1, 0.75)
LIMITS = rework.ControlLimits(2.0, 3.0, 1.0)
POINT = rework.StatePoint(0, 2.0, 1.0, 3.0, 0.0, "in_control")
ISSUE = ingest.ParseIssue(3, "bad row")

# record class -> (positional field values, repr text)
RECORDS = {
    ab.ComparisonResult: (
        (0.25, 100, 7), "ComparisonResult(prob_a_greater=0.25, draw_count=100, seed=7)"),
    bayes.CountData: ((1, 3), "CountData(failed=1, inspected=3)"),
    bayes.BetaParams: ((0.5, 2.5), "BetaParams(a=0.5, b=2.5)"),
    bayes.CredibleInterval: (
        (0.1, 0.4, 0.95), "CredibleInterval(lower=0.1, upper=0.4, level=0.95)"),
    cli.Option: (
        (0, int, {"nargs": 2}, "--n"),
        "Option(default=0, coerce=<class 'int'>, flag={'nargs': 2}, spelling='--n')"),
    complexity.HellingerMatrix: (
        (("a",), np.zeros((1, 1))), "HellingerMatrix(labels=('a',), values=array([[0.]]))"),
    complexity.ComplexityScore: (
        (2, 0.5, 10.0, 0.125), "ComplexityScore(index=2, raw=0.5, scaled=10.0, median=0.125)"),
    complexity.Merge: ((0, 1, 0.75), "Merge(left=0, right=1, height=0.75)"),
    complexity.ClusterTree: (
        (2, ("a", "b"), (MERGE,)),
        "ClusterTree(n_leaves=2, labels=('a', 'b'), merges=(Merge(left=0, right=1, height=0.75),))"),
    complexity.ClusterLabel: (
        ("A", (0, 2), 7.5, 30, 0.25),
        "ClusterLabel(letter='A', members=(0, 2), mean_score=7.5, total_welds=30, share=0.25)"),
    forecast.ProjectDesign: (
        ((("k", B, 3),),), "ProjectDesign(types=(('k', BetaParams(a=0.5, b=2.5), 3),))"),
    forecast.ForecastResult: (
        (np.array([0.5, 0.25]), 4, 2, "average"),
        "ForecastResult(samples=array([0.5 , 0.25]), seed=4, iterations=2, mode='average')"),
    ingest.ParseIssue: ((3, "bad row"), "ParseIssue(line=3, message='bad row')"),
    ingest.ParseResult: (
        (Counter({"r": 2}), [ISSUE]),
        "ParseResult(counts=Counter({'r': 2}), issues=[ParseIssue(line=3, message='bad row')])"),
    ingest.RejectionReport: (
        (Counter({"blank_field": 2}),), "RejectionReport(reasons=Counter({'blank_field': 2}))"),
    ingest.GroupKey: (
        ("4", "40", "CS", "BW", None),
        "GroupKey(nps='4', schedule='40', material='CS', weld_kind='BW', operator_id=None)"),
    ingest.GroupSummary: (
        (KEY, 10, 6, 2),
        "GroupSummary(key=GroupKey(nps='4', schedule=None, material=None, weld_kind=None, "
        "operator_id=None), total_welds=10, inspected_welds=6, repaired_welds=2)"),
    mcmc.ChainConfig: (
        (500, 50, 0.1, 0.25, 9),
        "ChainConfig(iterations=500, burn_in=50, proposal_sd=0.1, initial=0.25, seed=9)"),
    mcmc.Chain: (
        (np.array([0.5, 0.25]), mcmc.ChainConfig(2, 1), 0.5, bayes.CountData(1, 3), B),
        "Chain(draws=array([0.5 , 0.25]), config=ChainConfig(iterations=2, burn_in=1, "
        "proposal_sd=0.05, initial=None, seed=0), acceptance_rate=0.5, "
        "counts=CountData(failed=1, inspected=3), prior=BetaParams(a=0.5, b=2.5))"),
    mcmc.FiveNumberSummary: (
        (0.0, 0.25, 0.5, 0.75, 1.0, (2.0,)),
        "FiveNumberSummary(whisker_low=0.0, q1=0.25, median=0.5, q3=0.75, whisker_high=1.0, "
        "outliers=(2.0,))"),
    mcmc.ResidualReport: (
        (0.5, 0.25, 0.125, 0.0625),
        "ResidualReport(mae_lower=0.5, mae_upper=0.25, rmse_lower=0.125, rmse_upper=0.0625)"),
    rework.ProductSpec: (
        (B, 8.0, 1.5, "k"),
        "ProductSpec(posterior=BetaParams(a=0.5, b=2.5), estimated_hours=8.0, efficiency=1.5, "
        "key='k')"),
    rework.MarkovMatrices: (
        (np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1))),
        "MarkovMatrices(P=array([[1.]]), Q=array([[0.]]), R=array([[1.]]))"),
    rework.ReworkEstimate: (
        (np.array([1.0, 3.0]), 5, 2), "ReworkEstimate(samples=array([1., 3.]), seed=5, iterations=2)"),
    rework.ControlLimits: ((2.0, 3.0, 1.0), "ControlLimits(cl=2.0, ucl=3.0, lcl=1.0)"),
    rework.StatePoint: (
        (1, 2.0, 1.0, 3.0, 0.5, "in_control"),
        "StatePoint(state=1, median=2.0, band_low=1.0, band_high=3.0, accrued_actual_hours=0.5, "
        "flag='in_control')"),
    rework.ControlChartSeries: (
        (LIMITS, (POINT,)),
        "ControlChartSeries(limits=ControlLimits(cl=2.0, ucl=3.0, lcl=1.0), "
        "points=(StatePoint(state=0, median=2.0, band_low=1.0, band_high=3.0, "
        "accrued_actual_hours=0.0, flag='in_control'),))"),
}

# what dataclasses.asdict returned for the values above
ASDICT = {
    ab.ComparisonResult: {"prob_a_greater": 0.25, "draw_count": 100, "seed": 7},
    bayes.CountData: {"failed": 1, "inspected": 3},
    bayes.BetaParams: {"a": 0.5, "b": 2.5},
    bayes.CredibleInterval: {"lower": 0.1, "upper": 0.4, "level": 0.95},
    cli.Option: {"default": 0, "coerce": int, "flag": {"nargs": 2}, "spelling": "--n"},
    complexity.HellingerMatrix: {"labels": ("a",), "values": np.zeros((1, 1))},
    complexity.ComplexityScore: {"index": 2, "raw": 0.5, "scaled": 10.0, "median": 0.125},
    complexity.Merge: {"left": 0, "right": 1, "height": 0.75},
    complexity.ClusterTree: {
        "n_leaves": 2, "labels": ("a", "b"), "merges": ({"left": 0, "right": 1, "height": 0.75},),
    },
    complexity.ClusterLabel: {
        "letter": "A", "members": (0, 2), "mean_score": 7.5, "total_welds": 30, "share": 0.25,
    },
    forecast.ProjectDesign: {"types": (("k", {"a": 0.5, "b": 2.5}, 3),)},
    forecast.ForecastResult: {
        "samples": np.array([0.5, 0.25]), "seed": 4, "iterations": 2, "mode": "average",
    },
    ingest.ParseIssue: {"line": 3, "message": "bad row"},
    # asdict rebuilt a Counter from its (key, count) pairs, so it returned
    # Counter({('r', 2): 1}); the record keeps the counts it holds
    ingest.ParseResult: {"counts": Counter({"r": 2}), "issues": [{"line": 3, "message": "bad row"}]},
    ingest.RejectionReport: {"reasons": Counter({"blank_field": 2})},
    ingest.GroupKey: {
        "nps": "4", "schedule": "40", "material": "CS", "weld_kind": "BW", "operator_id": None,
    },
    ingest.GroupSummary: {
        "key": {"nps": "4", "schedule": None, "material": None, "weld_kind": None,
                "operator_id": None},
        "total_welds": 10, "inspected_welds": 6, "repaired_welds": 2,
    },
    mcmc.ChainConfig: {
        "iterations": 500, "burn_in": 50, "proposal_sd": 0.1, "initial": 0.25, "seed": 9,
    },
    mcmc.Chain: {
        "draws": np.array([0.5, 0.25]),
        "config": {"iterations": 2, "burn_in": 1, "proposal_sd": 0.05, "initial": None,
                   "seed": 0},
        "acceptance_rate": 0.5,
        "counts": {"failed": 1, "inspected": 3},
        "prior": {"a": 0.5, "b": 2.5},
    },
    mcmc.FiveNumberSummary: {
        "whisker_low": 0.0, "q1": 0.25, "median": 0.5, "q3": 0.75, "whisker_high": 1.0,
        "outliers": (2.0,),
    },
    mcmc.ResidualReport: {
        "mae_lower": 0.5, "mae_upper": 0.25, "rmse_lower": 0.125, "rmse_upper": 0.0625,
    },
    rework.ProductSpec: {
        "posterior": {"a": 0.5, "b": 2.5}, "estimated_hours": 8.0, "efficiency": 1.5, "key": "k",
    },
    rework.MarkovMatrices: {"P": np.ones((1, 1)), "Q": np.zeros((1, 1)), "R": np.ones((1, 1))},
    rework.ReworkEstimate: {"samples": np.array([1.0, 3.0]), "seed": 5, "iterations": 2},
    rework.ControlLimits: {"cl": 2.0, "ucl": 3.0, "lcl": 1.0},
    rework.StatePoint: {
        "state": 1, "median": 2.0, "band_low": 1.0, "band_high": 3.0,
        "accrued_actual_hours": 0.5, "flag": "in_control",
    },
    rework.ControlChartSeries: {
        "limits": {"cl": 2.0, "ucl": 3.0, "lcl": 1.0},
        "points": ({"state": 0, "median": 2.0, "band_low": 1.0, "band_high": 3.0,
                    "accrued_actual_hours": 0.0, "flag": "in_control"},),
    },
}

# the fields a record may omit, with the value it then holds
DEFAULTS = {
    cli.Option: {"flag": {}, "spelling": None},
    complexity.ClusterLabel: {"total_welds": None, "share": None},
    ingest.GroupKey: dict.fromkeys(ingest.KEY_FIELDS),
    mcmc.ChainConfig: {
        "iterations": 10_000, "burn_in": 200, "proposal_sd": 0.05, "initial": None, "seed": 0,
    },
    mcmc.FiveNumberSummary: {"outliers": ()},
    rework.ProductSpec: {"efficiency": rework.DEFAULT_EFFICIENCY, "key": None},
}

# record class -> [(positional field values, error class, message)]
INVALID = {
    bayes.CountData: [
        ((4, 3), DomainError, "counts must satisfy 0 <= failed <= inspected, got failed=4, inspected=3"),
        ((1.0, 3), DomainError, "failed must be an integer, got 1.0"),
        ((-1, 3), DomainError, "counts must satisfy 0 <= failed <= inspected, got failed=-1, inspected=3"),
        ((True, 3), DomainError, "failed must be an integer, got True"),
    ],
    bayes.BetaParams: [
        ((0.0, 1.0), DomainError, "Beta shapes must be positive and finite, got a=0.0, b=1.0"),
        ((1.0, float("inf")), DomainError, "Beta shapes must be positive and finite, got a=1.0, b=inf"),
        ((float("nan"), 1.0), DomainError, "Beta shapes must be positive and finite, got a=nan, b=1.0"),
    ],
    bayes.CredibleInterval: [
        ((0.1, 0.4, 1.0), DomainError, "interval level must lie in (0, 1), got 1.0"),
        ((0.5, 0.4, 0.95), DomainError, "interval limits out of order: [0.5, 0.4]"),
    ],
    complexity.HellingerMatrix: [
        ((("a",), np.zeros((2, 2))), DomainError, "matrix shape (2, 2) does not match 1 labels"),
        (((), np.zeros((0, 0))), DomainError, "a distance matrix needs at least one label"),
    ],
    forecast.ProjectDesign: [
        (((),), ConfigError, "a project design needs at least one weld type, each of count >= 1"),
        (((("k", B, 0),),), ConfigError,
         "a project design needs at least one weld type, each of count >= 1"),
    ],
    ingest.GroupSummary: [
        ((KEY, 10, 6, 7), SchemaError,
         "summary counts out of order for GroupKey(nps='4', schedule=None, material=None, "
         "weld_kind=None, operator_id=None): 7 repaired, 6 inspected, 10 total"),
        ((KEY, 5, 6, 2), SchemaError,
         "summary counts out of order for GroupKey(nps='4', schedule=None, material=None, "
         "weld_kind=None, operator_id=None): 2 repaired, 6 inspected, 5 total"),
    ],
    mcmc.ChainConfig: [
        ((10, 10), DomainError, "need iterations > burn_in >= 0, got 10, 10"),
        ((10.0,), DomainError, "iterations must be an integer, got 10.0"),
        ((10, -1), DomainError, "need iterations > burn_in >= 0, got 10, -1"),
        ((10, 2, 0.0), DomainError, "proposal_sd must be positive, got 0.0"),
        ((10, 2, 0.1, 1.0), DomainError, "initial value must lie in (0, 1), got 1.0"),
        ((10, 2, 0.1, None, -1), ConfigError, "seed must be non-negative, got -1"),
    ],
    rework.ProductSpec: [
        ((B, -1.0), DomainError, "estimated hours must be >= 0, got -1.0"),
        ((B, 1.0, 0.0), DomainError, "efficiency must be positive, got 0.0"),
    ],
    rework.ControlLimits: [
        ((2.0, 1.0, 0.5), DomainError, "limits out of order: LCL=0.5, CL=2.0, UCL=1.0"),
        ((1.0, 3.0, 2.0), DomainError, "limits out of order: LCL=2.0, CL=1.0, UCL=3.0"),
    ],
}

CLASSES = list(RECORDS)
INVALID_CASES = [(cls, *case) for cls, cases in INVALID.items() for case in cases]


def plain(value):
    """`_asdict` through nested records, lists and tuples, as dataclasses.asdict recursed."""
    if hasattr(value, "_asdict"):
        return {name: plain(field) for name, field in value._asdict().items()}
    if isinstance(value, (list, tuple)):
        return type(value)(plain(item) for item in value)
    return value


def same(a, b) -> bool:
    """Equality that compares arrays by value, through dicts, lists and tuples."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return type(a) is type(b) and np.array_equal(a, b)
    if isinstance(a, dict):
        return type(a) is type(b) and list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


def test_every_record_is_listed():
    listed = {cls.__name__ for cls in CLASSES}
    assert len(CLASSES) == 27
    assert set(ASDICT) == set(RECORDS)
    modules = [ab, bayes, cli, complexity, forecast, ingest, mcmc, rework]
    found = {
        name for module in modules for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
        and value.__module__ == module.__name__ and not name.startswith("_")
    }
    assert found == listed | {"WeldRecord"}


def test_no_dataclass_in_the_package():
    for info in pkgutil.iter_modules(weldqc.__path__):
        module = importlib.import_module(f"weldqc.{info.name}")
        for name, value in vars(module).items():
            assert not dataclasses.is_dataclass(value), f"weldqc.{info.name}.{name}"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls):
        values, _ = RECORDS[cls]
        by_position = cls(*values)
        by_name = cls(**dict(zip(cls._fields, values)))
        assert type(by_position) is type(by_name) is cls
        assert same(tuple(by_position), tuple(by_name))
        assert same(tuple(by_position), values)
        assert isinstance(by_position, tuple) and len(by_position) == len(cls._fields)

    def test_repr(self, cls):
        values, text = RECORDS[cls]
        assert repr(cls(*values)) == text

    def test_asdict_matches_the_dataclass_output(self, cls):
        values, _ = RECORDS[cls]
        record = cls(*values)
        assert list(record._asdict()) == list(cls._fields)
        assert same(plain(record), ASDICT[cls])

    def test_defaults(self, cls):
        defaults = DEFAULTS.get(cls, {})
        assert cls._field_defaults == defaults
        values, _ = RECORDS[cls]
        required = values[: len(cls._fields) - len(defaults)]
        record = cls(*required)
        assert {name: getattr(record, name) for name in defaults} == defaults

    def test_fields_cannot_be_assigned(self, cls):
        values, _ = RECORDS[cls]
        record = cls(*values)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_hash_is_the_field_tuples(self, cls):
        values, _ = RECORDS[cls]
        try:
            expected = hash(values)
        except TypeError:  # a list, Counter or array field: unhashable before too
            with pytest.raises(TypeError):
                hash(cls(*values))
        else:
            assert hash(cls(*values)) == expected


@pytest.mark.parametrize("cls, values, error, message", INVALID_CASES,
                         ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_validation_errors_are_unchanged(cls, values, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(*values)


@pytest.mark.parametrize("cls", list(INVALID), ids=lambda cls: cls.__name__)
def test_make_and_replace_run_the_checks(cls):
    record = cls(*RECORDS[cls][0])
    bad, error, message = INVALID[cls][0]
    assert type(cls._make(tuple(record))) is cls
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls._make(bad + tuple(record)[len(bad):])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        record._replace(**dict(zip(cls._fields, bad)))


def test_group_keys_order_as_their_field_tuples():
    keys = [ingest.GroupKey("4", "80"), ingest.GroupKey("2", "40"), ingest.GroupKey("4", "40")]
    assert sorted(keys) == [keys[1], keys[2], keys[0]]
    assert ingest.GroupKey("4", "40") < ingest.GroupKey("4", "80")


def test_tuple_semantics():
    counts = bayes.CountData(1, 3)
    failed, inspected = counts
    assert (failed, inspected) == (1, 3) and counts[1] == 3
    assert counts == (1, 3)
    assert len({counts, (1, 3)}) == 1


def test_mutable_fields_are_not_shared():
    # an Option's default flag mapping is read-only; ParseResult and
    # RejectionReport take their list and Counter from the caller
    with pytest.raises(TypeError):
        cli.Option(None, str).flag["nargs"] = 2
    for cls in (ingest.ParseResult, ingest.RejectionReport):
        assert cls._field_defaults == {}
    _, report = ingest.clean(Counter({ingest.WeldRecord("1", "BW", "", "2", "M", "0", 1): 3}))
    _, empty = ingest.clean(Counter())
    assert report.reasons == {"blank_field": 3} and empty.reasons == {}
