"""Shared fixtures: a hand-traceable three-firm chain and small helpers.

The chain is A -> B -> C in the product direction (A supplies B, B
supplies C), all elasticities zero so production and material cost drop
out and every number can be checked on paper: revenue 100, labor 95,
flat GDP. With k = 0.5 a dead customer halves next-term revenue, so the
term profit swings from +5 to -45 and solvency is decided by whether
beginning equity covers 45.
"""

from dataclasses import replace

import numpy as np
import pytest

from chainsim import (
    Economy,
    FirmParameters,
    FirmSeries,
    FirmState,
    GeneratorConfig,
    InvestmentDecision,
    MacroSeries,
    PanelSeries,
    TransactionNetwork,
    generate_economy,
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


def flag_bankrupt(economy, *firms):
    """A new economy with the given firms flagged bankrupt."""
    states = dict(economy.states)
    for f in firms:
        states[f] = replace(states[f], bankrupt=True)
    return replace(economy, states=states)


def mismatched_chain_network(firm):
    """A network that differs from make_chain's economy by firm: "C"
    drops C, "D" adds a firm D supplying A."""
    if firm == "C":
        return TransactionNetwork(firms=("A", "B"), edges=(("A", "B", 0.5),))
    return TransactionNetwork(firms=("A", "B", "C", "D"),
                              edges=(("A", "B", 0.5), ("B", "C", 0.5),
                                     ("D", "A", 0.1)))


def supplier_hub_economy(n_firms, seed, factor=6.0):
    """A generated economy on scale-free wiring with every edge reversed
    and every k times factor: an economy with supplier hubs.

    generate_network's scale-free model grows customer hubs only: each
    firm picks few customers, preferring firms with many suppliers. Its
    edges reversed make suppliers of a hundred customers and more, the
    heavy-tailed out-degrees of real production networks.
    """
    economy, network, _ = generate_economy(
        GeneratorConfig(n_firms=n_firms, seed=seed, edge_model="scale-free"))
    return economy, TransactionNetwork(
        network.firms, [(c, s, k * factor) for s, c, k in network.edges()])


def largest_supplier(network):
    """Position of the firm with the most customers, the first of ties."""
    offsets = network.customers[0]
    return max(range(len(network.firms)),
               key=lambda i: offsets[i + 1] - offsets[i])


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
