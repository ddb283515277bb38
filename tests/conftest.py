"""Shared fixtures: a hand-traceable three-firm chain and small helpers.

The chain is A -> B -> C in the product direction (A supplies B, B
supplies C), all elasticities zero so production and material cost drop
out and every number can be checked on paper: revenue 100, labor 95,
flat GDP. With k = 0.5 a dead customer halves next-term revenue, so the
term profit swings from +5 to -45 and solvency is decided by whether
beginning equity covers 45.
"""

import numpy as np
import pytest

from chainsim import (
    Economy,
    FirmParameters,
    FirmSeries,
    FirmState,
    InvestmentDecision,
    MacroSeries,
    PanelSeries,
    TransactionNetwork,
)
from chainsim.io import write_edges, write_gdp, write_panel, write_params

from oracles import steady_state_inputs


def make_chain(equity_a=50.0, equity_b=40.0, k_ab=0.5, k_bc=0.5):
    params = {
        f: FirmParameters(alpha=0.0, beta=0.0, cost_coeff=0.0,
                          interest_rate=0.0, noise_sigma=0.0)
        for f in "ABC"
    }
    equities = {"A": equity_a, "B": equity_b, "C": 60.0}
    states = {
        f: FirmState(revenue=100.0, prev_revenue=100.0, capital=100.0,
                     labor=95.0, equity=equities[f])
        for f in "ABC"
    }
    network = TransactionNetwork(
        firms=("A", "B", "C"),
        edges=(("A", "B", k_ab), ("B", "C", k_bc)),
    )
    decisions = {f: InvestmentDecision(capital=100.0, labor=95.0)
                 for f in "ABC"}
    return Economy(params=params, states=states), network, decisions


def mismatched_chain_network(firm):
    """A network that differs from make_chain's economy by firm: "C"
    drops C, "D" adds a firm D supplying A."""
    if firm == "C":
        return TransactionNetwork(firms=("A", "B"), edges=(("A", "B", 0.5),))
    return TransactionNetwork(firms=("A", "B", "C", "D"),
                              edges=(("A", "B", 0.5), ("B", "C", 0.5),
                                     ("D", "A", 0.1)))


def make_panel(firms, gdp, periods, equity=None):
    """PanelSeries over the FirmSeries in firms, with optional equity rows."""
    ids = tuple(sorted(firms))

    def rows(series):
        return np.array(series, dtype=float).reshape(len(ids), len(periods))

    return PanelSeries(
        ids, *(rows([getattr(firms[f], name) for f in ids])
               for name in ("revenue", "capital", "labor")),
        gdp=gdp, periods=periods,
        equity=None if equity is None else rows([equity[f] for f in ids]))


def steady_chain_csvs(tmp_path, equity_a=30.0, equity_b=10.0):
    """Three-firm chain at each firm's investment optimum, as CSV files.

    Holding the optimum makes a frozen-game decision reproduce the
    current books, so the shocked term profit is the hand number
    (about -16.6 against +33.4 baseline) and equity decides everything.
    """
    p = FirmParameters(alpha=0.3, beta=0.35, cost_coeff=0.2,
                       interest_rate=0.05, noise_sigma=0.02)
    cap, lab = steady_state_inputs(p, 100.0)
    series = FirmSeries(revenue=np.full(3, 100.0),
                        capital=np.full(3, cap),
                        labor=np.full(3, lab))
    equities = {"A": equity_a, "B": equity_b, "C": 30.0}
    panel = make_panel(
        firms={f: series for f in "ABC"},
        gdp=np.full(3, 100.0),
        periods=(0, 1, 2),
        equity={f: np.full(3, equities[f]) for f in "ABC"},
    )
    net = TransactionNetwork(firms=("A", "B", "C"),
                             edges=(("A", "B", 0.5), ("B", "C", 0.5)))
    macro = MacroSeries(gdp=(100.0, 100.0, 100.0))
    params = {f: p for f in "ABC"}
    paths = {}
    for name, writer, obj in (("panel.csv", write_panel, panel),
                              ("edges.csv", write_edges, net),
                              ("gdp.csv", write_gdp, macro),
                              ("params.csv", write_params, params)):
        path = tmp_path / name
        writer(str(path), obj)
        paths[name] = str(path)
    return paths


@pytest.fixture
def chain():
    return make_chain()


@pytest.fixture
def flat_macro():
    return MacroSeries(gdp=(100.0, 100.0, 100.0))


def write_lines(path, text):
    path.write_text(text)
    return str(path)


def rng_values(seed, n):
    return np.random.default_rng(seed).random(n)
