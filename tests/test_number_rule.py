"""One number rule: every scalar the library takes is judged alike.

A scalar must be a real number (int, float, numpy real scalar or
Fraction), not a bool, finite in float range, and within its bound.
Every entry point refuses anything else with a ValueError naming the
field, never an OverflowError or TypeError, and accepts every real
number its bound allows.
"""

import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from chainsim import (
    CascadeConfig,
    FirmParameters,
    FirmSeries,
    FirmState,
    FitOptions,
    GameConfig,
    GeneratorConfig,
    InvestmentDecision,
    MacroSeries,
    PanelSeries,
    TransactionNetwork,
    forward_simulate,
    generate_economy,
)
from chainsim.cli import main
from chainsim.netgen import SCALARS

from conftest import steady_chain_csvs

REFUSED = [10 ** 400, -(10 ** 400), math.nan, math.inf, True, "0.3", None,
           Decimal("0.3")]
ACCEPTED = [1, 0.3, np.float32(0.3), np.int64(1), Fraction(1, 3)]

ECONOMY = generate_economy(GeneratorConfig(n_firms=3, seed=1))
ONES = np.ones((2, 3))

# GeneratorConfig's nine scalar settings and the bound each message states
GENERATOR_BOUNDS = {
    "gdp_start": " and > 0", "interest_rate": " and >= 0",
    "noise_sigma": " and >= 0", "start_jitter": "",
    "decision_jitter": " and >= 0", "mean_out_degree": " and >= 0",
    "elasticity_sum_max": "", "gdp_growth": " and > -1",
    "gdp_volatility": " and >= 0",
}

# entry point -> (call with the value, its refusal, formatted with v)
ENTRIES = {
    "FirmParameters.alpha": (
        lambda v: FirmParameters(alpha=v, beta=0.3, cost_coeff=0.2,
                                 interest_rate=0.05),
        "alpha must be finite and >= 0, got {v!r}"),
    "FirmParameters.noise_sigma": (
        lambda v: FirmParameters(0.3, 0.3, 0.2, 0.05, noise_sigma=v),
        "noise_sigma must be finite and >= 0, got {v!r}"),
    "FirmState.revenue": (
        lambda v: FirmState(revenue=v, prev_revenue=1.0, capital=1.0,
                            labor=1.0, equity=0.0),
        "revenue must be finite and > 0, got {v!r}"),
    "FirmState.equity": (
        lambda v: FirmState(1.0, 1.0, 1.0, 1.0, equity=v),
        "equity must be finite, got {v!r}"),
    "FirmState.equity of a flagged firm": (
        lambda v: FirmState(0.0, 0.0, 0.0, 0.0, equity=v, bankrupt=True),
        "equity must be finite, got {v!r}"),
    "InvestmentDecision.capital": (
        lambda v: InvestmentDecision(capital=v, labor=1.0),
        "capital must be finite and > 0, got {v!r}"),
    "InvestmentDecision.labor": (
        lambda v: InvestmentDecision(capital=1.0, labor=v),
        "labor must be finite and > 0, got {v!r}"),
    "MacroSeries.gdp": (
        lambda v: MacroSeries(gdp=(100.0, v)),
        "gdp[1] must be finite and > 0, got {v!r}"),
    "TransactionNetwork.k": (
        lambda v: TransactionNetwork(("A", "B"), [("A", "B", v)]),
        "edge ('A', 'B') has non-finite k"),
    "FitOptions.tol": (
        lambda v: FitOptions(tol=v),
        "tol must be finite and > 0, got {v!r}"),
    "CascadeConfig.gdp_growth": (
        lambda v: CascadeConfig(("A",), gdp_growth=v),
        "gdp_growth must be finite and > 0, got {v!r}"),
    **{f"GeneratorConfig.{name}": (
        lambda v, name=name: GeneratorConfig(**{name: v}),
        f"{name} must be finite{bound}, got {{v!r}}")
       for name, bound in GENERATOR_BOUNDS.items()},
    "forward_simulate.decision_jitter": (
        lambda v: forward_simulate(*ECONOMY, decision_jitter=v),
        "decision_jitter must be finite and >= 0, got {v!r}"),
    "PanelSeries.revenue": (
        lambda v: PanelSeries(("A", "B"), [[v] * 3] * 2, ONES, ONES,
                              gdp=np.ones(3), periods=(0, 1, 2)),
        "revenue series must be finite and > 0"),
    # numpy read a True among floats as 1.0
    "PanelSeries.revenue among floats": (
        lambda v: PanelSeries(("A",), [[100.0, v, 100.0]], ONES[:1], ONES[:1],
                              gdp=np.ones(3), periods=(0, 1, 2)),
        "revenue series must be finite and > 0"),
    "FirmSeries.revenue among floats": (
        lambda v: FirmSeries([1.0, v], [1.0, 1.0], [1.0, 1.0]),
        "revenue series must be finite and > 0"),
    "GameConfig.decision_bounds low": (
        lambda v: GameConfig((v, 4.0)),
        "decision_bounds low must be finite and > 0, got {v!r}"),
    "GameConfig.decision_bounds high": (
        lambda v: GameConfig((0.25, v)),
        "decision_bounds high must be finite and >= 0.25, got {v!r}"),
}


@pytest.mark.parametrize("value", REFUSED, ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
def test_refused_with_a_value_error_naming_the_field(entry, value):
    call, message = ENTRIES[entry]
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message.format(v=value)


@pytest.mark.parametrize("value", ACCEPTED, ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
def test_accepted_where_the_bound_allows(entry, value):
    ENTRIES[entry][0](value)


def test_every_generator_scalar_is_in_the_table():
    assert [name for name, _ in SCALARS] == list(GENERATOR_BOUNDS)


@pytest.mark.parametrize("value, accepted", [
    *((v, False) for v in REFUSED if not isinstance(v, Decimal)),
    (1, True), (0.3, True),
], ids=repr)
def test_cascade_gdp_ratio_from_a_config_file(tmp_path, capsys, value,
                                              accepted):
    # a JSON config carries the values JSON can: no Decimal, numpy
    # scalar or Fraction
    paths = steady_chain_csvs(tmp_path)
    config = tmp_path / "cascade.json"
    config.write_text(json.dumps({"gdp_ratio": value}))
    out = tmp_path / "shock"
    code = main(["cascade", "--panel", paths["panel.csv"],
                 "--edges", paths["edges.csv"], "--gdp", paths["gdp.csv"],
                 "--params", paths["params.csv"], "--trigger", "C",
                 "--config", str(config), "--out-dir", str(out)])
    if accepted:
        assert code == 0
    else:
        assert code == 2
        assert capsys.readouterr().err == (
            f"chainsim: gdp_ratio must be finite and > 0, got {value!r}\n")
        assert not out.exists() or not any(out.iterdir())


# a series type -> a call building it over two periods with the given labels
LABELLED = {
    "MacroSeries": lambda periods: MacroSeries(gdp=(1.0, 2.0), periods=periods),
    "PanelSeries": lambda periods: PanelSeries(
        ("A",), [[1.0, 1.0]], [[1.0, 1.0]], [[1.0, 1.0]], gdp=np.ones(2),
        periods=periods),
}


@pytest.mark.parametrize("periods, bad", [
    ((0.5, 1.7), 0.5),
    ((1.2, 1.7), 1.2),
    ((0, 2.9), 2.9),
    ((True, 7), True),
    ((0, "7"), "7"),
    ((np.float64(0.0), 1), np.float64(0.0)),
    ((0, None), None),
], ids=repr)
@pytest.mark.parametrize("series", LABELLED)
def test_a_period_label_that_is_no_integer_is_refused(series, periods, bad):
    # int() truncated these: (0.5, 1.7) became (0, 1)
    with pytest.raises(ValueError) as exc:
        LABELLED[series](periods)
    assert str(exc.value) == f"period label must be an integer, got {bad!r}"


@pytest.mark.parametrize("series", LABELLED)
def test_integer_period_labels_are_kept_as_python_ints(series):
    # MacroSeries asked an array of labels for its truth value, which
    # numpy refuses
    for labels in ((np.int64(4), 7), np.array([4, 7])):
        built = LABELLED[series](labels)
        assert built.periods == (4, 7)
        assert all(type(p) is int for p in built.periods)

